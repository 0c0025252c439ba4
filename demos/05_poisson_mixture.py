"""Rate-family sampling: a two-component Poisson mixture.

The mixture mean is the only unbounded parameter; the component rates are
``lam * gamma_i / p_i`` with ``gamma`` on the simplex.  The global mean gets
an independence proposal on the log scale centred at the log sample mean;
both simplexes move through offset Dirichlet proposals.
"""

import numpy as np

from mixanchor.likelihood import Dataset
from mixanchor.postprocess import find_map, pool_draws, relabel_map
from mixanchor.priors import PriorSpec
from mixanchor.sampler import RunConfig, mwg_poisson

rng = np.random.default_rng(101)
comp = rng.choice(2, size=2000, p=[0.6, 0.4])
x = rng.poisson(np.array([1.0, 5.0])[comp]).astype(float)
data = Dataset(x)
print(f"truth: 0.6 P(1) + 0.4 P(5); n = {data.n}, sample mean = {x.mean():.4f} (mixture mean 2.6)")

config = RunConfig(iterations=20000, burn_in=1000, seed=3)
result = mwg_poisson(data, 2, PriorSpec(), config)
chain = result.chains[0]

lam = chain.post_burn("lam")
print(f"\nglobal mean posterior: mean {lam.mean():.4f}, sd {lam.std():.4f}")

draws = pool_draws([chain])
map_params, _ = find_map(draws)
relabelled, _ = relabel_map(draws, map_params)
order = np.argsort(np.median(relabelled.locs, axis=0))
print("component summaries after MAP relabelling (sorted by rate):")
print(f"  rate medians:   {np.round(np.median(relabelled.locs, axis=0)[order], 3)}")
print(f"  weight medians: {np.round(np.median(relabelled.weights, axis=0)[order], 3)}")

print("\nacceptance rates after adaptation:")
for block, rate in result.acceptance_rates()[0].items():
    print(f"  {block:>6}: {rate:.3f}")
