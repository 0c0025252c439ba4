"""Geweke (2004) joint-distribution tests of the Gaussian kernels.

Under a proper prior, alternating "simulate data from the current parameters"
with "one kernel sweep on that data" leaves the prior invariant when the kernel
leaves each data set's posterior invariant.  So the parameter draws of this
successive-conditional simulator must have the prior's means.  The check covers
the whole kernel: block order, proposal corrections, Jacobians, the sign coin,
the cache hand-off between states, and the target itself.

The kernels' own prior is improper in the globals (flat in ``mu``, ``1/sigma``),
so the test adds ``mu ~ N(0, 2^2)`` and ``log sigma ~ N(0, 0.5^2)`` to their
target; the kernel's ``1/sigma`` factor is then the Jacobian from ``log sigma``
to ``sigma``.  The kernels close over their data, so each sweep runs a kernel
rebuilt on the data just drawn; the k = 2 kernel's independence proposals at the
sample moments are valid, since each data set's kernel keeps that data set's
posterior.  Every compared quantity is read through the kernel's ``row``.

The k = 2 simulators start off the corners of the weight pair and of the scale
simplex (a coordinate below ``CORNER``, under 1 % of the prior's mass).  From a
corner, variant 1's offset-free Beta and Dirichlet moves have shape parameters
near 0, so their draws underflow to the boundary and the chain stays put: a
start at ``eta1_sq = 1.7e-7`` did not move in 4000 sweeps.  That is a mixing
defect of the variant, not a wrong target, and this test checks the target.
"""

import math

import numpy as np
import pytest

from mixanchor.likelihood import Dataset
from mixanchor.priors import PriorSpec, sample_prior
from mixanchor.sampler import RunConfig, _gaussian_k2_kernel, _gaussian_kernel, _mh_step

N_OBS = 4  # observations simulated per sweep
SWEEPS = 20_000
BATCHES = 40  # batch means for the simulator's Monte Carlo standard error
PRIOR_DRAWS = 200_000
Z_BOUND = 4.0
MU_SD, LOG_SIGMA_SD = 2.0, 0.5
CORNER = 1e-5

# (k, prior kind, k = 2 proposal variant or None for the general kernel, fixed scales)
GENERAL_SCALES = {"mu": 0.8, "sigma": 0.4, "phi": 5.0, "p": 10.0, "xi_rw": 0.3, "varpi_rw": 0.3}
CASES = [
    (3, "double_uniform", None, GENERAL_SCALES),
    (3, "single_uniform", None, GENERAL_SCALES),
    (2, "double_uniform", 1, {"mu": 1.0, "p": 5.0, "v": 5.0}),
    (2, "double_uniform", 2, {"mu": 1.0, "p": 0.8, "v": 0.8}),
]


def build(k, kind, proposal, values):
    data = Dataset(values)
    config = RunConfig(iterations=1, burn_in=0, proposal=proposal)
    builder = _gaussian_kernel if proposal is None else _gaussian_k2_kernel
    return builder(data, "gaussian", k, PriorSpec(kind=kind), config)


def proper(target):
    """``target`` plus the test's normal densities of ``mu`` and ``log sigma``."""

    def log_density(state):
        lp = target(state)
        if lp == -math.inf:
            return lp
        log_sigma = math.log(state["sigma"])
        return lp - 0.5 * (state["mu"] / MU_SD) ** 2 - 0.5 * (log_sigma / LOG_SIGMA_SD) ** 2

    return log_density


def in_corner(r):
    """Whether a k = 2 row has a weight or a scale-simplex coordinate below ``CORNER``."""
    xi = r["xi"][0]
    one_minus = 1.0 - r["phi_sq"]
    return min(*r["weights"], r["phi_sq"], one_minus * math.cos(xi) ** 2,
               one_minus * math.sin(xi) ** 2) < CORNER


def quantities(mu, log_sigma, weights, phi_sq, phi_sign, xi, varpi, k2):
    """The compared functions of one draw, or of arrays of prior draws."""
    common = [mu, log_sigma, phi_sq, weights[..., 0], mu * mu]
    if k2:
        return common + [(1.0 - phi_sq) * np.cos(xi[..., 0]) ** 2, phi_sign]
    return common + [xi[..., j] for j in range(xi.shape[-1])] + [
        np.cos(varpi[..., j]) for j in range(varpi.shape[-1])]


def simulate(k, kind, proposal, scales, seed):
    """The simulator's draws of every compared quantity, one row per sweep."""
    rng = np.random.default_rng(seed)
    k2 = proposal is not None
    blocks, target, init, row = build(k, kind, proposal, rng.normal(size=N_OBS))
    assert set(scales) == {b.name for b in blocks if b.kind != "fixed"}
    while True:  # a prior draw: the kernel's own (None off its support), with the test's globals
        state = init(rng)
        if state is None:
            continue
        state = {**state, "mu": MU_SD * rng.standard_normal(),
                 "sigma": math.exp(LOG_SIGMA_SD * rng.standard_normal()), "cache": {}}
        if math.isfinite(proper(target)(state)) and not (k2 and in_corner(row(state))):
            break
    out = []
    for _ in range(SWEEPS):
        r = row(state)
        comp = rng.choice(k, size=N_OBS, p=r["weights"])
        values = rng.normal(r["locs"][comp], r["scales"][comp])
        blocks, target, _, row = build(k, kind, proposal, values)
        log_density = proper(target)
        state = {**state, "cache": {}}
        lp = log_density(state)
        for block in blocks:
            move = block.propose(rng, state, scales.get(block.name))
            state, lp, _ = _mh_step(rng, state, lp, move, log_density)
        r = row(state)
        out.append(quantities(state["mu"], math.log(state["sigma"]), r["weights"], r["phi_sq"],
                              r["phi_sign"], r["xi"], r["varpi"], k2))
    return np.array(out, dtype=float)


def prior_quantities(k, kind, k2, seed):
    rng = np.random.default_rng(seed)
    draws = sample_prior(PriorSpec(kind=kind), k, "gaussian", PRIOR_DRAWS, rng)
    mu = MU_SD * rng.standard_normal(PRIOR_DRAWS)
    log_sigma = LOG_SIGMA_SD * rng.standard_normal(PRIOR_DRAWS)
    columns = quantities(mu, log_sigma, draws.weights, draws.phi_sq, draws.phi_sign, draws.xi,
                         draws.varpi, k2)
    return np.column_stack(columns).astype(float)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"k{c[0]}-{c[1]}-proposal{c[2]}")
def test_successive_conditional_draws_keep_the_prior_means(case):
    k, kind, proposal, scales = case
    # a residual past the float range gets a -inf likelihood term, as in a fit
    with np.errstate(over="ignore"):
        draws = simulate(k, kind, proposal, scales, seed=5)
    prior = prior_quantities(k, kind, proposal is not None, seed=6)
    batch_means = draws.reshape(BATCHES, -1, draws.shape[1]).mean(axis=1)
    mcse_sq = batch_means.var(axis=0, ddof=1) / BATCHES
    z = (draws.mean(axis=0) - prior.mean(axis=0)) / np.sqrt(
        mcse_sq + prior.var(axis=0, ddof=1) / PRIOR_DRAWS)
    assert np.all(np.abs(z) <= Z_BOUND), z
