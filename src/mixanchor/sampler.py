"""Adaptive Metropolis-within-Gibbs samplers for anchored mixtures.

Every sampler (general-k Gaussian, specialised two-component Gaussian, and
the Poisson/exponential rate sampler) is a list of blocks, each a proposal
with its scale kind, initial scale and target acceptance rate, plus a
target log-density, an initial-state draw and a row recorder.  One driver
owns the rest: entry checks, initial-state search, the Metropolis-Hastings
step, acceptance flags, adaptation, chain columns and per-chain seeding.
With two or more chains and usable CPUs, a fit's chains run in forked worker
processes; each chain's seed is spawned from the run's, so the chains do not
depend on the number of processes.
Both Gaussian samplers run on the one Gaussian target of ``likelihood``, and
every state carries that target's derived-value cache.

Asymmetric proposals (Beta, Dirichlet, Inverse-Gamma, independence moves)
carry the full ``q(current|proposed) / q(proposed|current)`` correction, and
blocks proposed on a transformed scale (log sigma, logit p, log-ratio
simplex walks) the matching Jacobian.  A proposal outside the support skips
the target but still draws its coin, so the random stream never depends on
where the support ends.

Proposal scales are tuned batch-by-batch toward the usual optimal
acceptance rates, 0.44 for one-dimensional blocks and 0.234 for vector
blocks.  The tuning reads each block's kind and target from the block list
and keeps one plain dict of scales per chain: after each batch a log-scale
moves by ``min(0.01, b^-1/2)`` toward the block's target rate.  Adaptation
stops after ``adapt_horizon`` iterations (half the run by default) so that
the retained draws come from a fixed kernel; a horizon of at least the run
length adapts throughout.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .likelihood import Dataset, _gaussian_logpost, _k2_logpost, _rate_logpost
from .params import MIN_WEIGHT
from .priors import PriorSpec, _betaln, sample_prior, sample_varpi
from .transforms import _k2_simplex
# not called here: the layer tracer of ``bench/spans.py`` wraps them under these names
from .likelihood import loglik_gaussian_arrays  # noqa: F401
from .priors import _log_beta, _log_dirichlet  # noqa: F401
from .transforms import standard_arrays_from_angular  # noqa: F401

__all__ = [
    "RunConfig",
    "CHAIN_FIELDS",
    "Chain",
    "RunResult",
    "adapt_scales",
    "chain_columns",
    "mwg_gaussian",
    "mwg_gaussian_k2",
    "mwg_poisson",
    "mwg_exponential",
    "gelman_rubin",
]

HALF_PI = math.pi / 2
TWO_PI = 2 * math.pi

BATCH_SIZE = 50  # iterations per adaptation batch
SCALAR_RATE = 0.44  # target acceptance rate of one-dimensional blocks
VECTOR_RATE = 0.234  # target acceptance rate of vector blocks


@dataclass(frozen=True)
class RunConfig:
    """Length, seeding, and tuning knobs shared by all samplers."""

    iterations: int
    burn_in: int = 1000
    n_chains: int = 1
    seed: int = 0
    adapt_horizon: int | None = None
    proposal: int | None = None  # the k = 2 Gaussian variant, 1 or 2; None chooses none
    init_scales: dict | None = None

    def __post_init__(self):
        for name in ("iterations", "burn_in", "n_chains", "seed", "adapt_horizon", "proposal"):
            value = getattr(self, name)
            optional = name in ("adapt_horizon", "proposal")
            if type(value) is not int and not (optional and value is None):
                raise ValueError(f"run option {name!r} must be an integer, got {value!r}")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("need iterations > burn_in >= 0")
        if self.n_chains < 1:
            raise ValueError("need at least one chain")
        if self.proposal not in (None, 1, 2):
            raise ValueError("run option 'proposal' must be 1 or 2")
        scales = {} if self.init_scales is None else self.init_scales
        if not isinstance(scales, dict) or not all(
            (type(v) is int or isinstance(v, float)) and 0 < v <= sys.float_info.max
            for v in scales.values()
        ):
            raise ValueError(
                f"run option 'init_scales' must map block names to finite numbers > 0, "
                f"got {self.init_scales!r}"
            )

    @property
    def horizon(self) -> int:
        return self.iterations // 2 if self.adapt_horizon is None else self.adapt_horizon


# --------------------------------------------------------------------------
# chain storage


# The chain table schema, ``(Chain field, CSV prefix | None)`` in column order:
# a field without a prefix is one column under its own name, one with a
# prefix is a (draws, j) array written as columns ``prefix1..prefixj``.
CHAIN_FIELDS = (
    ("log_posterior", None), ("mu", None), ("sigma", None), ("lam", None),
    ("weights", "p"), ("locs", "loc"), ("scales", "scale"), ("gamma", "gamma"),
    ("phi_sq", None), ("phi_sign", None), ("xi", "xi"), ("varpi", "varpi"),
)


def chain_columns(draws):
    """Yield ``(CSV name, 1-d column)`` in ``CHAIN_FIELDS`` order for any object
    carrying some of those fields as attributes; absent or ``None`` ones are skipped."""
    for field, prefix in CHAIN_FIELDS:
        values = getattr(draws, field, None)
        if values is None:
            continue
        if prefix is None:
            yield field, values
        else:
            for i in range(values.shape[1]):
                yield f"{prefix}{i + 1}", values[:, i]


@dataclass
class Chain:
    """Column-oriented storage of one chain, burn-in included."""

    family: str
    k: int
    burn_in: int
    log_posterior: np.ndarray
    weights: np.ndarray
    locs: np.ndarray
    scales: np.ndarray | None
    accepts: dict
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None
    phi_sq: np.ndarray | None = None
    phi_sign: np.ndarray | None = None
    xi: np.ndarray | None = None
    varpi: np.ndarray | None = None
    lam: np.ndarray | None = None
    gamma: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.log_posterior)

    @property
    def iterations(self) -> np.ndarray:
        return np.arange(len(self))

    columns = chain_columns

    def column(self, name: str) -> np.ndarray:
        """Column by CSV name: scalars, ``p1..pk``, ``loc1..``, etc."""
        return dict(self.columns())[name]

    def post_burn(self, name: str) -> np.ndarray:
        return self.column(name)[self.burn_in:]

    def acceptance_rate(self, block: str, start: int = 0) -> float | None:
        """Share of accepted proposals from ``start`` on; ``None`` if none are left."""
        flags = self.accepts[block][start:]
        return float(flags.mean()) if len(flags) else None


@dataclass
class RunResult:
    """Chains plus the final proposal scales and block acceptance rates, each
    chain's wall seconds and the number of processes the chains ran in."""

    chains: list
    final_scales: list
    config: RunConfig
    chain_s: list
    workers: int

    def acceptance_rates(self, start: int | None = None) -> list:
        start = self.config.horizon if start is None else start
        return [
            {name: chain.acceptance_rate(name, start) for name in chain.accepts}
            for chain in self.chains
        ]


# --------------------------------------------------------------------------
# densities, the Metropolis-Hastings step and the proposals; each proposal
# draws a candidate for one coordinate and returns ``(candidate | None, log_q)``


def _log_beta_pdf(x: float, a: float, b: float) -> float:
    if not 0.0 < x < 1.0:
        return -math.inf
    return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - _betaln(a, b)


def _log_dirichlet_pdf(x: np.ndarray, alpha: np.ndarray) -> float:
    if (x <= 0.0).any():
        return -math.inf
    return float(
        math.lgamma(alpha.sum()) - sum(map(math.lgamma, alpha.tolist()))
        + (alpha - 1.0) @ np.log(x)
    )


def _log_invgamma_pdf(x: float, shape: float, scale: float) -> float:
    if x <= 0.0:
        return -math.inf
    return shape * math.log(scale) - math.lgamma(shape) - (shape + 1.0) * math.log(x) - scale / x


def _mh_step(rng, state, lp, proposal, target):
    """One Metropolis-Hastings decision; returns ``(state, lp, accepted)``.

    ``proposal`` is ``(proposed | None, log q(state|proposed) - log
    q(proposed|state))``; ``None`` lies outside the support.
    """
    proposed, log_q = proposal
    lp_p = -math.inf if proposed is None else target(proposed)
    u = rng.random()  # drawn on every step, so the stream never depends on the support
    log_ratio = -math.inf if lp_p == -math.inf else lp_p - lp + log_q
    if log_ratio >= 0.0 or math.log(u) < log_ratio:
        return proposed, lp_p, True
    return state, lp, False


def _beta_proposal(rng, x, eps, offset=1.0):
    a_fwd = x * eps + offset
    b_fwd = (1.0 - x) * eps + offset
    prop = rng.beta(a_fwd, b_fwd)
    if not 0.0 < prop < 1.0:
        return None, 0.0
    lq_fwd = _log_beta_pdf(prop, a_fwd, b_fwd)
    lq_rev = _log_beta_pdf(x, prop * eps + offset, (1.0 - prop) * eps + offset)
    return prop, lq_rev - lq_fwd


def _dirichlet_proposal(rng, v, eps, offset=1.0):
    alpha_fwd = v * eps + offset
    prop = rng.dirichlet(alpha_fwd)
    if (prop <= 0.0).any():
        return None, 0.0
    lq_fwd = _log_dirichlet_pdf(prop, alpha_fwd)
    lq_rev = _log_dirichlet_pdf(v, prop * eps + offset)
    return prop, lq_rev - lq_fwd


def _invgamma_proposal(rng, x, shape, scale):
    prop = scale / rng.gamma(shape)
    return prop, _log_invgamma_pdf(x, shape, scale) - _log_invgamma_pdf(prop, shape, scale)


def _invgamma_sigma_proposal(rng, sigma, shape, scale):
    """Inverse-Gamma independence draw of sigma^2 as a move over sigma; the
    ``-log sigma`` terms are the Jacobian of sigma -> sigma^2."""
    sigma_sq_p, log_q = _invgamma_proposal(rng, sigma * sigma, shape, scale)
    sigma_p = math.sqrt(sigma_sq_p)
    return sigma_p, log_q - math.log(sigma_p) + math.log(sigma)


def _normal_walk(rng, x, eps):
    return x + eps * rng.standard_normal(), 0.0


def _log_walk(rng, x, eps):
    """Normal random walk on log x; the Jacobian makes it a move over x.  A
    step past the float range, either way, leaves the support."""
    log_x = math.log(x)
    log_p = log_x + eps * rng.standard_normal()
    try:
        prop = math.exp(log_p)
    except OverflowError:
        return None, 0.0
    if prop == 0.0:
        return None, 0.0
    return prop, log_p - log_x


def _logit_walk(rng, p, eps):
    """Normal random walk on logit p, as a move over p in (0, 1)."""
    logit_p = math.log(p / (1.0 - p)) + eps * rng.standard_normal()
    try:
        prop = 1.0 / (1.0 + math.exp(-logit_p))
    except OverflowError:  # p underflows to 0
        return None, 0.0
    if not 0.0 < prop < 1.0:
        return None, 0.0
    return prop, math.log(prop * (1.0 - prop)) - math.log(p * (1.0 - p))


def _simplex_log_ratio_walk(rng, v, eps):
    """Normal random walk on ``log(v[:-1] / v[-1])``, as a move over the simplex."""
    chi = np.log(v[:-1] / v[-1])
    expd = np.exp(chi + eps * rng.standard_normal(len(chi)))
    prop = np.append(expd, 1.0) / (1.0 + expd.sum())
    if (prop <= 0.0).any():
        return None, 0.0
    return prop, float(np.sum(np.log(prop)) - np.sum(np.log(v)))


# --------------------------------------------------------------------------
# the block driver


class _Block(NamedTuple):
    """A block: ``propose(rng, state, scale) -> (proposed_state | None, log_q)``
    plus its scale kind, initial scale and target acceptance rate."""

    name: str
    propose: Callable
    kind: str = "fixed"
    scale: float | None = None
    rate: float | None = None


def _on(field, proposal, sign=None):
    """Lift a proposal for ``state[field]`` to the whole state.  With ``sign``, a
    fair coin first redraws ``state[sign]``; being symmetric, it adds no ``log_q``."""

    def propose(rng, state, scale):
        flip = {} if sign is None else {sign: 1 if rng.random() < 0.5 else -1}
        value, log_q = proposal(rng, state[field], scale)
        return (None if value is None else {**state, field: value, **flip}), log_q

    return propose


def _fields(state: dict) -> dict:
    """A state's coordinates, without its cache."""
    return {name: value for name, value in state.items() if name != "cache"}


def _own_cache(state: dict) -> None:
    """Give ``state`` its own copy of the derived-value cache it shares with the
    state it was proposed from (``_on`` copies the reference), so that a
    target filling it leaves the current state's values in place; the target
    then recomputes only the values whose inputs the move replaced."""
    state["cache"] = dict(state["cache"])


def adapt_scales(scales: dict, blocks, accepts: dict, t: int) -> None:
    """Tune ``scales`` in place at the batch boundary after ``t`` sweeps.

    A block accepting more often than its target rate over the batch just
    ended gets a wider walk (or a looser concentration), one accepting less
    often a narrower walk (a tighter concentration): the log-scale moves by
    ``min(0.01, b^-1/2)`` at batch ``b``.  A rate equal to its target leaves
    the scale untouched; fixed blocks carry no scale.
    """
    delta = min(0.01, (t // BATCH_SIZE) ** -0.5)
    for block in blocks:
        if block.kind == "fixed":
            continue
        rate = float(accepts[block.name][t - BATCH_SIZE:t].mean())
        direction = (rate > block.rate) - (rate < block.rate)
        if block.kind == "concentration":
            direction = -direction
        scales[block.name] *= math.exp(direction * delta)


class _NoInitialState(RuntimeError):
    """No draw of ``init`` gave a finite log-posterior."""


def _run_chain(kernel, family: str, k: int, config: RunConfig, rng):
    """Run one chain of ``kernel``; returns ``(chain, final_scales)``.

    A kernel is ``(blocks, target, init, row)``.  Its states are dicts keyed
    by the target's argument names; ``init(rng)`` draws a candidate initial
    state and ``row(state)`` maps ``Chain`` fields to one sweep's values.
    """
    blocks, target, init, row = kernel
    for _ in range(100):
        state = init(rng)
        if np.isfinite(lp := target(state)):
            break
    else:
        raise _NoInitialState("could not find a finite initial log-posterior")

    T, horizon = config.iterations, config.horizon
    scales = {b.name: b.scale for b in blocks if b.kind != "fixed"}
    scales.update(config.init_scales or {})
    accepts = {b.name: np.zeros(T, dtype=np.uint8) for b in blocks}
    columns = {name: np.empty((T, *np.shape(value))) for name, value in row(state).items()}
    log_posterior = columns["log_posterior"] = np.empty(T)

    for t in range(T):
        for block in blocks:
            proposal = block.propose(rng, state, scales.get(block.name))
            state, lp, accepted = _mh_step(rng, state, lp, proposal, target)
            accepts[block.name][t] = accepted
        log_posterior[t] = lp
        for name, value in row(state).items():
            columns[name][t] = value
        if (t + 1) % BATCH_SIZE == 0 and t < horizon:
            adapt_scales(scales, blocks, accepts, t + 1)
    columns.setdefault("scales", None)  # the rate kernels have no component scales
    return Chain(family, k, config.burn_in, accepts=accepts, **columns), scales


_worker_job = None  # the job a forked worker was handed; see ``_run_chains``


def _take_job(job) -> None:
    """Pool initializer: keep ``job`` for ``_chain_job``, and let an interrupt
    end the worker at once instead of letting it start the next queued chain."""
    import signal

    global _worker_job
    _worker_job = job
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _chain_job(i: int, job=None) -> tuple:
    """Run chain ``i`` of ``job`` (by default the job of this worker); returns
    ``(chain, final_scales, wall seconds)``."""
    kernel, family, k, config, seeds = _worker_job if job is None else job
    start = time.perf_counter()
    # a move that takes a standardised residual past the float range gets a
    # -inf likelihood term, which is right; its overflow warning is silenced
    # once here rather than in every target call
    with np.errstate(over="ignore"):
        rng = np.random.Generator(np.random.PCG64(seeds[i]))
        chain, scales = _run_chain(kernel, family, k, config, rng)
    return chain, scales, time.perf_counter() - start


def usable_cpus(n: int) -> int:
    """``min(n, CPUs this process may run on)``; 1 where CPU affinity is unknown."""
    try:
        return min(n, len(os.sched_getaffinity(0)))
    except AttributeError:  # no CPU affinity on this platform
        return 1


def _run_chains(job) -> tuple:
    """Every chain of ``job`` in chain order, and the number of processes used.

    Workers inherit ``job`` through the pool's initializer, so only chain
    indices and results are pickled.  Forking is safe here: no thread of
    this package is alive when the pool forks (``postprocess.density_curve``
    joins its threads before it returns), and the pool forks every worker
    before it starts its own.  The pool is imported only when it is used.
    """
    n_chains = len(job[-1])  # one spawned seed per chain
    workers = usable_cpus(n_chains)
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            # leaving the block joins every worker; a failed chain cancels the pending ones
            with ProcessPoolExecutor(workers, mp_context=context, initializer=_take_job,
                                     initargs=(job,)) as pool:
                return list(pool.map(_chain_job, range(n_chains))), workers
    return [_chain_job(i, job) for i in range(n_chains)], 1


def _sample(build, data: Dataset, family: str, k: int, prior_spec, config) -> RunResult:
    """Check the data, then run ``build(...)``'s kernel once per spawned seed.

    Chain ``i`` draws from ``PCG64(SeedSequence(config.seed).spawn(n)[i])``
    whatever process it runs in, so the chains are the same whatever the CPU
    count.  With two or more chains and two or more usable CPUs the chains
    run in ``min(n_chains, usable CPUs)`` forked worker processes, which
    inherit the kernel (a closure, which does not pickle) and hand back each
    chain with its final scales and wall time; otherwise they run one after
    another in this process.  A chain's error is raised here as it would be in-process,
    and no worker outlives the call.  A kernel whose prior never draws an
    initial state inside the support is refused with a ``ValueError`` that
    names the prior settings.
    """
    data.check_family(family)
    if family == "gaussian":
        if data.n < 2:
            raise ValueError(
                "a gaussian mixture fit requires at least two observations for the "
                "posterior to be proper"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            spread = float(np.std(data.values, ddof=1))
        if spread == 0.0:
            raise ValueError(
                "a gaussian mixture fit requires at least two distinct observations "
                "for the posterior to be proper (the sample standard deviation is 0)"
            )
        if not math.isfinite(spread):
            raise ValueError(
                "the sample standard deviation of the data overflows float64; a gaussian "
                "mixture fit requires at least two distinct observations with a finite "
                "spread (rescale the data)"
            )
    elif family == "poisson" and not np.any(data.values > 0):
        raise ValueError(
            "a poisson mixture fit requires at least one strictly positive "
            "observation for the posterior to be proper"
        )
    if k < 2:
        raise ValueError("need at least two components")
    kernel = build(data, family, k, prior_spec, config)
    tuned = [b.name for b in kernel[0] if b.kind != "fixed"]
    unknown = [name for name in config.init_scales or () if name not in tuned]
    if unknown:
        raise ValueError(
            f"run option 'init_scales' names {unknown}, which are not tuned blocks of "
            f"this kernel (tuned blocks: {tuned})"
        )
    job = (kernel, family, k, config, np.random.SeedSequence(config.seed).spawn(config.n_chains))
    try:
        runs, workers = _run_chains(job)
    except _NoInitialState:
        raise ValueError(
            f"no prior draw of the initial state lay inside the support under the prior "
            f"settings {asdict(prior_spec)}: extreme hyperparameters put the draws on its "
            f"boundary (a weight below {MIN_WEIGHT}, or a squared radius at 0 or 1)"
        ) from None
    chains, scales, seconds = zip(*runs)
    return RunResult(list(chains), list(scales), config, list(seconds), workers)


# --------------------------------------------------------------------------
# Gaussian sampler, general k


def _gaussian_kernel(data, family, k, prior_spec, config) -> tuple:
    n = data.n
    mu0 = float(np.mean(data.values))
    sigma0 = float(np.std(data.values, ddof=1))
    scalar = SCALAR_RATE
    vector = VECTOR_RATE if k > 2 else scalar

    def init(rng):
        draws = sample_prior(prior_spec, k, "gaussian", 1, rng)
        return {
            "mu": mu0,
            "sigma": sigma0,
            "weights": draws.weights[0].copy(),
            "phi_sq": float(draws.phi_sq[0]),
            "phi_sign": int(draws.phi_sign[0]),
            "varpi": draws.varpi[0].copy(),
            "xi": draws.xi[0].copy(),
            "cache": {},
        }

    def refresh_xi(rng, xi, _):
        return rng.uniform(0.0, HALF_PI, size=k - 1), 0.0

    def refresh_varpi(rng, varpi, _):
        return sample_varpi(rng, k, 1)[0], 0.0

    def xi_walk(rng, xi, eps):
        xi = xi + rng.uniform(-eps, eps, size=k - 1)
        return (None if (xi < 0.0).any() or (xi > HALF_PI).any() else xi), 0.0

    def varpi_walk(rng, varpi, eps):
        # periodic wrapping: [0, pi) for all but the last angle, [0, 2 pi) for it
        varpi = varpi + rng.uniform(-eps, eps, size=k - 2)
        varpi[:-1] %= math.pi
        varpi[-1] %= TWO_PI
        return varpi, 0.0

    # the squared radius moves by Beta proposal, with a fair sign flip when k = 2
    radius_move = _on("phi_sq", _beta_proposal, sign="phi_sign" if k == 2 else None)
    blocks = [
        _Block("mu", _on("mu", _normal_walk), "width", 2.4 * sigma0 / math.sqrt(n), scalar),
        _Block("sigma", _on("sigma", _log_walk), "width", max(1.5 / math.sqrt(n), 0.02), scalar),
        _Block("xi_ind", _on("xi", refresh_xi)),
        _Block("phi", radius_move, "concentration", float(n), scalar),
        _Block("p", _on("weights", _dirichlet_proposal), "concentration", 2.0 * float(n), vector),
        _Block("xi_rw", _on("xi", xi_walk), "width", 0.3, vector),
    ]
    if k >= 3:
        blocks.insert(3, _Block("varpi_ind", _on("varpi", refresh_varpi)))
        varpi_rate = VECTOR_RATE if k > 3 else scalar
        blocks.append(_Block("varpi_rw", _on("varpi", varpi_walk), "width", 0.3, varpi_rate))

    def target(s):
        _own_cache(s)
        return _gaussian_logpost(data, prior_spec, **s)

    def row(s):
        cache = s["cache"]
        return {**_fields(s), "locs": cache["locs"][1], "scales": cache["scales"][1]}

    return tuple(blocks), target, init, row


def mwg_gaussian(data: Dataset, k: int, prior_spec: PriorSpec, config: RunConfig) -> RunResult:
    """General-k Gaussian sampler over the angular coordinates.

    Per iteration: a location walk, a log-scale walk, independence
    refreshes of the scale and location angles, a Beta move on the squared
    radius, an offset-Dirichlet move on the weights, and bounded random
    walks on both angle sets.  Requires at least two distinct observations,
    the minimal sample for a proper posterior under the 1/sigma prior.
    """
    return _sample(_gaussian_kernel, data, "gaussian", k, prior_spec, config)


# --------------------------------------------------------------------------
# Gaussian sampler, k = 2 specialisation


def _gaussian_k2_kernel(data, family, k, prior_spec, config) -> tuple:
    n = data.n
    xbar = float(np.mean(data.values))
    svar = float(np.var(data.values, ddof=1))
    ig_shape = (n + 1) / 2.0
    ig_scale = (n - 1) * svar / 2.0
    mu_scale = 2.0 * float(np.std(data.values, ddof=1)) / math.sqrt(n)
    if config.proposal == 2:
        weight_proposal, simplex_proposal = _logit_walk, _simplex_log_ratio_walk
        kind, scale = "width", 0.5
    else:
        weight_proposal = partial(_beta_proposal, offset=0.0)
        simplex_proposal = partial(_dirichlet_proposal, offset=0.0)
        kind, scale = "concentration", float(n)

    def init(rng):
        draws = sample_prior(prior_spec, 2, "gaussian", 1, rng)
        return {
            "mu": xbar,
            "sigma": math.sqrt(svar),
            "p1": float(draws.weights[0, 0]),
            "v": _k2_simplex(float(draws.phi_sq[0]), float(draws.xi[0, 0])),
            "sign": int(draws.phi_sign[0]),
            "cache": {},
        }

    def mean_move(rng, mu, eps):
        # independence proposal at the sample mean
        prop = xbar + eps * rng.standard_normal()
        return prop, 0.5 * ((prop - xbar) ** 2 - (mu - xbar) ** 2) / (eps * eps)

    def variance_move(rng, sigma, _):
        # independence Inverse-Gamma anchored at the sample variance
        return _invgamma_sigma_proposal(rng, sigma, ig_shape, ig_scale)

    def row(s):
        cache = s["cache"]
        phi_sq, xi, _ = cache["k2_angles"][1]
        return {
            "mu": s["mu"],
            "sigma": s["sigma"],
            "weights": cache["k2_weights"][1],
            "locs": cache["locs"][1],
            "scales": cache["scales"][1],
            "phi_sq": phi_sq,
            "phi_sign": s["sign"],
            "xi": xi,
            "varpi": (),
        }

    blocks = (
        _Block("mu", _on("mu", mean_move), "width", mu_scale, SCALAR_RATE),
        _Block("sigma", _on("sigma", variance_move)),
        _Block("p", _on("p1", weight_proposal), kind, scale, SCALAR_RATE),
        # joint (phi_sq, eta1_sq, eta2_sq) block plus a fair sign draw
        _Block("v", _on("v", simplex_proposal, sign="sign"), kind, scale, VECTOR_RATE),
    )

    def target(s):
        _own_cache(s)
        return _k2_logpost(data, prior_spec, **s)

    return blocks, target, init, row


def mwg_gaussian_k2(data: Dataset, prior_spec: PriorSpec, config: RunConfig) -> RunResult:
    """Two-component Gaussian sampler with the specialised proposals.

    Variant 1 (also ``config.proposal=None``) uses a Beta move on the weight
    and an offset-free Dirichlet move on ``(phi_sq, eta1_sq, eta2_sq)``;
    variant 2 walks the logit weight and the log-ratio simplex coordinates.
    Both variants propose the globals independently: the mean from a normal
    law at the sample mean, the variance from an Inverse-Gamma law anchored
    at the sample variance.  The target is the general Gaussian one, cache
    included, measured through ``eta1_sq`` (``likelihood._k2_logpost``).
    """
    return _sample(_gaussian_k2_kernel, data, "gaussian", 2, prior_spec, config)


# --------------------------------------------------------------------------
# rate-family sampler (Poisson and exponential)


def _rate_kernel(data, family, k, prior_spec, config) -> tuple:
    xbar = float(np.mean(data.values))
    log_xbar = math.log(xbar)
    vector = VECTOR_RATE if k > 2 else SCALAR_RATE

    def init(rng):
        draws = sample_prior(prior_spec, k, family, 1, rng)
        return {
            "lam": xbar,
            "gamma": draws.gamma[0].copy(),
            "weights": draws.weights[0].copy(),
            "cache": {},
        }

    def mean_move(rng, lam, eps):
        # log-normal independence draw at the sample mean, as a move over lam
        log_lam = log_xbar + eps * rng.standard_normal()
        lq_fwd = -0.5 * ((log_lam - log_xbar) / eps) ** 2 - log_lam
        lq_rev = -0.5 * ((math.log(lam) - log_xbar) / eps) ** 2 - math.log(lam)
        return math.exp(log_lam), lq_rev - lq_fwd

    lam_scale = 2.0 / math.sqrt(data.n * xbar + 1.0)
    blocks = (
        _Block("lam", _on("lam", mean_move), "width", lam_scale, SCALAR_RATE),
        _Block("gamma", _on("gamma", _dirichlet_proposal), "concentration", float(data.n), vector),
        _Block("p", _on("weights", _dirichlet_proposal), "concentration", float(data.n), vector),
    )

    def target(s):
        _own_cache(s)
        return _rate_logpost(data, prior_spec, family, **s)

    def row(s):
        return {**_fields(s), "locs": s["cache"]["rates"][1]}

    return blocks, target, init, row


def mwg_poisson(data: Dataset, k: int, prior_spec: PriorSpec, config: RunConfig) -> RunResult:
    """Poisson mixture sampler over ``(lam, gamma, p)``.

    The global mean moves on the log scale through an independence proposal
    centred at the log sample mean; the two simplexes move through offset
    Dirichlet proposals.  At least one strictly positive count is required
    for the posterior to be proper under the 1/lam prior.
    """
    return _sample(_rate_kernel, data, "poisson", k, prior_spec, config)


def mwg_exponential(data: Dataset, k: int, prior_spec: PriorSpec, config: RunConfig) -> RunResult:
    """Exponential mixture sampler; mirrors the Poisson kernel."""
    return _sample(_rate_kernel, data, "exponential", k, prior_spec, config)


# --------------------------------------------------------------------------
# convergence monitoring


def gelman_rubin(chains, param: str) -> float:
    """Potential scale reduction factor for one scalar across chains.

    With m chains of post-burn-in length n, within-chain variance W and
    between-chain variance B (the usual ``n * var(chain means)``), the
    factor is ``sqrt(((n-1)/n * W + B/n) / W)``.  Identical chains sit on
    the B = 0 branch and return exactly 1; zero within-chain variance is an
    error.
    """
    if len(chains) < 2:
        raise ValueError("need at least two chains")
    series = [np.asarray(c.post_burn(param), dtype=float) for c in chains]
    n = len(series[0])
    if any(len(s) != n for s in series):
        raise ValueError("chains must have equal post-burn-in length")
    if n < 2:
        raise ValueError("need at least two retained draws per chain")
    within = float(np.mean([np.var(s, ddof=1) for s in series]))
    if within == 0.0:
        raise ValueError("zero within-chain variance")
    means = np.array([s.mean() for s in series])
    between = n * float(np.var(means, ddof=1))
    if between == 0.0:
        return 1.0
    pooled = (n - 1) / n * within + between / n
    return math.sqrt(pooled / within)
