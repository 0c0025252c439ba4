"""Geweke (2004) joint-distribution tests of the Gaussian kernels.

Under a proper prior, alternating "simulate data from the current parameters"
with "one kernel sweep on that data" leaves the prior invariant when the kernel
leaves each data set's posterior invariant.  So the parameter draws of this
successive-conditional simulator must have the prior's means.  The check covers
the whole kernel: block order, proposal corrections, Jacobians, the sign coin,
the cache hand-off between states, and the target itself.

The kernels' own prior is improper in the globals (flat in ``mu``, ``1/sigma``,
``1/lam``), so the test adds ``mu ~ N(0, 2^2)`` and ``log sigma ~ N(0, 0.5^2)``
to the Gaussian targets and ``log lam ~ N(m, 0.5^2)`` to the rate target; the
kernel's ``1/sigma`` (``1/lam``) factor is then the Jacobian from ``log sigma``
(``log lam``) to ``sigma`` (``lam``).  The kernels close over their data, so
each sweep runs a kernel rebuilt on the data just drawn; the independence
proposals at the sample moments are valid, since each data set's kernel keeps
that data set's posterior.  Every compared quantity is read through the
kernel's ``row``.

Poisson data with no positive count admit no kernel (the posterior is
improper), so the Poisson simulator draws each data set conditional on a
positive count.  Its draws then keep the restricted joint, whose parameter
means are those of prior draws kept only when data drawn from them hold a
positive count; that is its reference.  Plain prior draws would be the wrong
reference: under Dirichlet(1) weights a heavy component with a near-zero rate
makes all-zero data common.

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
from mixanchor.sampler import (
    RunConfig,
    _gaussian_k2_kernel,
    _gaussian_kernel,
    _mh_step,
    _rate_kernel,
)

N_OBS = 4  # observations simulated per sweep
SWEEPS = 20_000
BATCHES = 40  # batch means for the simulator's Monte Carlo standard error
PRIOR_DRAWS = 200_000
Z_BOUND = 4.0
MU_SD, LOG_SIGMA_SD = 2.0, 0.5
LOG_LAM_MEAN = {"poisson": math.log(3.0), "exponential": 0.0}
LOG_LAM_SD = 0.5
CORNER = 1e-5

# (family, k, prior kind, k = 2 proposal variant or None for the general
# kernel, fixed scales)
GENERAL_SCALES = {"mu": 0.8, "sigma": 0.4, "phi": 5.0, "p": 10.0, "xi_rw": 0.3, "varpi_rw": 0.3}
GENERAL_K2_SCALES = {name: GENERAL_SCALES[name] for name in ("mu", "sigma", "phi", "p", "xi_rw")}
RATE_SCALES = {"lam": 1.0, "gamma": 10.0, "p": 10.0}
CASES = [
    ("gaussian", 3, "double_uniform", None, GENERAL_SCALES),
    ("gaussian", 3, "single_uniform", None, GENERAL_SCALES),
    ("gaussian", 2, "double_uniform", None, GENERAL_K2_SCALES),
    ("gaussian", 4, "double_uniform", None, GENERAL_SCALES),
    ("gaussian", 2, "double_uniform", 1, {"mu": 1.0, "p": 5.0, "v": 5.0}),
    ("gaussian", 2, "double_uniform", 2, {"mu": 1.0, "p": 0.8, "v": 0.8}),
    ("poisson", 3, "double_uniform", None, RATE_SCALES),
    ("exponential", 3, "double_uniform", None, RATE_SCALES),
]


def case_id(case):
    family, k, kind, proposal, _ = case
    return f"k{k}-{kind}-proposal{proposal}" if family == "gaussian" else f"{family}-k{k}"


def build(family, k, kind, proposal, values):
    data = Dataset(values)
    config = RunConfig(iterations=1, burn_in=0, proposal=proposal)
    if family != "gaussian":
        builder = _rate_kernel
    else:
        builder = _gaussian_kernel if proposal is None else _gaussian_k2_kernel
    return builder(data, family, k, PriorSpec(kind=kind), config)


def proper(target, family):
    """``target`` plus the test's normal densities of the log scale globals and of ``mu``."""

    def log_density(state):
        lp = target(state)
        if lp == -math.inf:
            return lp
        if family != "gaussian":
            log_lam = math.log(state["lam"])
            return lp - 0.5 * ((log_lam - LOG_LAM_MEAN[family]) / LOG_LAM_SD) ** 2
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
    """The compared functions of one Gaussian draw, or of arrays of prior draws."""
    common = [mu, log_sigma, phi_sq, weights[..., 0], (weights * weights).sum(axis=-1), mu * mu]
    if k2:
        return common + [(1.0 - phi_sq) * np.cos(xi[..., 0]) ** 2, phi_sign]
    if weights.shape[-1] == 2:
        common.append(phi_sign)
    return common + [xi[..., j] for j in range(xi.shape[-1])] + [
        np.cos(varpi[..., j]) for j in range(varpi.shape[-1])]


def rate_quantities(log_lam, gamma, weights):
    """The compared functions of one rate draw, or of arrays of prior draws; the
    sums of squares see a simplex move's concentration, which the symmetric
    Dirichlet prior leaves out of every component's mean."""
    k = weights.shape[-1]
    return [log_lam, log_lam * log_lam, (gamma * gamma).sum(axis=-1),
            (weights * weights).sum(axis=-1)] + [gamma[..., j] for j in range(k)] + [
        weights[..., j] for j in range(k)]


def simulate_data(rng, family, r):
    """``N_OBS`` observations from a row's mixture; Poisson counts are drawn
    again until one is positive."""
    while True:
        comp = rng.choice(len(r["weights"]), size=N_OBS, p=r["weights"])
        if family == "gaussian":
            return rng.normal(r["locs"][comp], r["scales"][comp])
        if family == "exponential":
            return rng.exponential(r["locs"][comp])
        counts = rng.poisson(r["locs"][comp]).astype(float)
        if counts.any():
            return counts


def prior_globals(rng, family):
    """The test's proper prior draw of the kernel's unbounded globals."""
    if family != "gaussian":
        return {"lam": math.exp(LOG_LAM_MEAN[family] + LOG_LAM_SD * rng.standard_normal())}
    return {"mu": MU_SD * rng.standard_normal(),
            "sigma": math.exp(LOG_SIGMA_SD * rng.standard_normal())}


def compared(family, state, r, k2):
    if family != "gaussian":
        return rate_quantities(math.log(state["lam"]), r["gamma"], r["weights"])
    return quantities(state["mu"], math.log(state["sigma"]), r["weights"], r["phi_sq"],
                      r["phi_sign"], r["xi"], r["varpi"], k2)


def simulate(family, k, kind, proposal, scales, seed):
    """The simulator's draws of every compared quantity, one row per sweep."""
    rng = np.random.default_rng(seed)
    k2 = proposal is not None
    start = np.full(N_OBS, 1.0) if family == "poisson" else np.abs(rng.normal(size=N_OBS))
    blocks, target, init, row = build(family, k, kind, proposal, start)
    assert set(scales) == {b.name for b in blocks if b.kind != "fixed"}
    while True:  # a prior draw: the kernel's own (None off its support), with the test's globals
        state = init(rng)
        if state is None:
            continue
        state = {**state, **prior_globals(rng, family), "cache": {}}
        if math.isfinite(proper(target, family)(state)) and not (k2 and in_corner(row(state))):
            break
    out = []
    for _ in range(SWEEPS):
        values = simulate_data(rng, family, row(state))
        blocks, target, _, row = build(family, k, kind, proposal, values)
        log_density = proper(target, family)
        state = {**state, "cache": {}}
        lp = log_density(state)
        for block in blocks:
            move = block.propose(rng, state, scales.get(block.name))
            state, lp, _ = _mh_step(rng, state, lp, move, log_density)
        out.append(compared(family, state, row(state), k2))
    return np.array(out, dtype=float)


def prior_quantities(family, k, kind, k2, seed):
    """The compared quantities of ``PRIOR_DRAWS`` draws of the test's proper
    prior; for Poisson, of those whose simulated counts hold a positive one."""
    rng = np.random.default_rng(seed)
    draws = sample_prior(PriorSpec(kind=kind), k, family, PRIOR_DRAWS, rng)
    if family == "gaussian":
        mu = MU_SD * rng.standard_normal(PRIOR_DRAWS)
        log_sigma = LOG_SIGMA_SD * rng.standard_normal(PRIOR_DRAWS)
        columns = quantities(mu, log_sigma, draws.weights, draws.phi_sq, draws.phi_sign,
                             draws.xi, draws.varpi, k2)
        return np.column_stack(columns).astype(float)
    log_lam = LOG_LAM_MEAN[family] + LOG_LAM_SD * rng.standard_normal(PRIOR_DRAWS)
    columns = np.column_stack(rate_quantities(log_lam, draws.gamma, draws.weights))
    if family == "poisson":
        rates = np.exp(log_lam)[:, None] * draws.gamma / draws.weights
        cdf = np.cumsum(draws.weights, axis=1)
        comp = (rng.random((PRIOR_DRAWS, N_OBS, 1)) > cdf[:, None, :]).sum(axis=2)
        counts = rng.poisson(np.take_along_axis(rates, np.minimum(comp, k - 1), axis=1))
        columns = columns[counts.any(axis=1)]
    return columns


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_successive_conditional_draws_keep_the_prior_means(case):
    family, k, kind, proposal, scales = case
    # a residual past the float range gets a -inf likelihood term, as in a fit
    with np.errstate(over="ignore"):
        draws = simulate(family, k, kind, proposal, scales, seed=5)
    prior = prior_quantities(family, k, kind, proposal is not None, seed=6)
    batch_means = draws.reshape(BATCHES, -1, draws.shape[1]).mean(axis=1)
    mcse_sq = batch_means.var(axis=0, ddof=1) / BATCHES
    z = (draws.mean(axis=0) - prior.mean(axis=0)) / np.sqrt(
        mcse_sq + prior.var(axis=0, ddof=1) / len(prior))
    assert np.all(np.abs(z) <= Z_BOUND), z
