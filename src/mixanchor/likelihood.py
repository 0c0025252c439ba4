"""Numerically stable mixture log-likelihoods and log-posteriors.

Component densities are evaluated in log space throughout; the mixture
aggregation is a max-shifted log-sum-exp, so well-separated components do
not underflow the naive density sum.  Each family builds one contiguous row
of log-terms per component; a compare-exchange network puts every
observation's terms in canonical (ascending) order before aggregation, which
makes the value bit-for-bit invariant under permutations of the component
labels.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.special import gammaln

from . import transforms
from .params import (
    GaussianState,
    MIN_WEIGHT,
    PoissonReparam,
    RateState,
    StandardParams,
)
# The layer tracer of ``bench/spans.py`` wraps each layer under the name its
# caller looks up, so ``transforms.basis_rows`` is called through its module,
# and ``log_prior`` and ``standard_arrays_from_angular``, no longer on the
# targets' path, stay importable from here.
from .priors import (  # noqa: F401
    PriorSpec,
    _log_beta,
    _log_dirichlet,
    log_prior,
    log_varpi_density,
    log_xi_density,
)
from .transforms import _direction_from_angles, standard_arrays_from_angular  # noqa: F401

__all__ = [
    "Dataset",
    "loglik_gaussian",
    "loglik_poisson",
    "loglik_exponential",
    "log_posterior",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Dataset:
    """Observations plus family-specific validation.

    Gaussian and exponential data are real-valued (exponential strictly
    positive); Poisson data are nonnegative integers.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float).ravel()
        if arr.size < 1:
            raise ValueError("dataset must hold at least one observation")
        if not np.all(np.isfinite(arr)):
            raise ValueError("observations must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    def check_family(self, family: str) -> None:
        if family == "poisson":
            if np.any(self.values < 0) or np.any(self.values != np.round(self.values)):
                raise ValueError("poisson data must be nonnegative integers")
        elif family == "exponential":
            if np.any(self.values <= 0):
                raise ValueError("exponential data must be strictly positive")

    @cached_property
    def _count_summary(self):
        # collapse repeated counts once; Poisson/exponential likelihoods are
        # then linear in the distinct values
        uniq, counts = np.unique(self.values, return_counts=True)
        return uniq, counts.astype(float), gammaln(uniq + 1.0)


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """Sum the rows of ``terms`` (m, n), modifying it in place.

    The additions follow numpy's pairwise summation along a contiguous axis:
    in order below 8 terms, otherwise 8 interleaved partial sums joined as a
    tree, with runs over 128 split in halves at a multiple of 8.  The result
    therefore equals ``np.sum(terms.T.copy(), axis=1)`` bit for bit (up to
    the sign of a zero sum, as numpy starts from +0.0), without the
    transposed copy or the per-observation reduction loop.
    """
    m = len(terms)
    if m < 8:
        acc = terms[0]
        for row in terms[1:]:
            acc += row
        return acc
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _sum_terms(terms[:half]) + _sum_terms(terms[half:])
    full = m - m % 8
    r = terms[:8]
    for i in range(8, full, 8):
        r += terms[i : i + 8]
    acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in terms[full:]:
        acc += row
    return acc


@cache
def _merge_network(k: int) -> tuple:
    """Batcher's odd-even merge sort on ``k`` wires, as ``(lo, hi)`` slice pairs.

    Each pair is a batch of compare-exchanges of row ``lo[i]`` with row
    ``hi[i]``; the batches run in order.  The network is Batcher's (1968) for
    the next power of two, less every comparator that touches a wire ``>= k``:
    those wires would hold ``+inf`` padding, which never moves.  All
    comparators of one layer span one distance, so a run of them whose low
    wires step evenly becomes one pair of strided slices.
    """
    size = 1 << (k - 1).bit_length()
    batches = []
    p = 1
    while p < size:
        d = p
        while d >= 1:
            lows = [
                i + j
                for j in range(d % p, size - d, 2 * d)
                for i in range(min(d, size - j - d))
                if (i + j) // (2 * p) == (i + j + d) // (2 * p) and i + j + d < k
            ]
            while lows:
                step = lows[1] - lows[0] if len(lows) > 1 else 1
                run = 1
                while run < len(lows) and lows[run] - lows[run - 1] == step:
                    run += 1
                first, last = lows[0], lows[run - 1]
                batches.append(
                    (slice(first, last + 1, step), slice(first + d, last + d + 1, step))
                )
                lows = lows[run:]
            d //= 2
        p *= 2
    return tuple(batches)


def _sort_rows(rows: np.ndarray) -> None:
    """Sort every column of ``rows`` (k, n) ascending, in place.

    The compare-exchanges of :func:`_merge_network` give the values
    ``np.sort(rows, axis=0)`` gives.  A NaN spreads to both rows of every
    compare-exchange it meets instead of moving to the last row; every wire
    of a sorting network reaches the last one, so the last row is NaN
    exactly where a sort puts a NaN there.
    """
    for lo_rows, hi_rows in _merge_network(len(rows)):
        lo, hi = rows[lo_rows], rows[hi_rows]
        low = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo[...] = low


def _mixture_loglik(log_terms: np.ndarray, counts: np.ndarray | None = None) -> float:
    """Aggregate component log-term rows of shape (k, n), k >= 2, in place.

    Putting every observation's terms in canonical (ascending) order fixes
    the summation order, so the result is bit-for-bit invariant under
    relabelling; the max-shift is then the last row.
    """
    _sort_rows(log_terms)
    shift = log_terms[-1]
    if not np.isfinite(shift).all():
        return -math.inf
    rest = np.subtract(log_terms[:-1], shift, out=log_terms[:-1])
    per_obs = shift + np.log1p(_sum_terms(np.exp(rest, out=rest)))
    if counts is None:
        return float(per_obs.sum())
    return float(counts @ per_obs)


def loglik_gaussian_arrays(
    x: np.ndarray,
    weights: np.ndarray,
    locs: np.ndarray,
    scales: np.ndarray,
    log_weights: np.ndarray | None = None,
) -> float:
    """Gaussian mixture log-likelihood from raw parameter arrays.

    ``log_weights`` is ``np.log(weights)`` when the caller already has it.
    An observation whose standardised residual overflows gets a ``-inf``
    term, the right value, with NumPy's overflow warning unless the caller
    silences it (as :func:`loglik_gaussian` and the samplers do).
    """
    if (scales <= 0).any() or (weights < 0).any():
        return -math.inf
    if log_weights is None:
        with np.errstate(divide="ignore"):
            log_weights = np.log(weights)
    z = (x[None, :] - locs[:, None]) / scales[:, None]
    log_terms = (log_weights - np.log(scales) - 0.5 * _LOG_2PI)[:, None] - 0.5 * z * z
    return _mixture_loglik(log_terms)


def loglik_gaussian(data: Dataset, params: StandardParams) -> float:
    """Sum over observations of ``log sum_i p_i N(x | mu_i, sigma_i^2)``."""
    if params.family != "gaussian":
        raise ValueError("params must describe a gaussian mixture")
    with np.errstate(over="ignore"):
        return loglik_gaussian_arrays(data.values, params.weights, params.locs, params.scales)


def loglik_poisson_arrays(
    data: Dataset, weights: np.ndarray, rates: np.ndarray
) -> float:
    if (rates <= 0).any() or (weights < 0).any():
        return -math.inf
    uniq, counts, lgam = data._count_summary
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    log_terms = (
        log_w[:, None]
        + uniq[None, :] * np.log(rates)[:, None]
        - rates[:, None]
        - lgam[None, :]
    )
    return _mixture_loglik(log_terms, counts)


def loglik_poisson(data: Dataset, r: PoissonReparam) -> float:
    """Poisson mixture log-likelihood with rates ``lam * gamma_i / p_i``."""
    data.check_family("poisson")
    return loglik_poisson_arrays(data, r.weights, r.rates)


def loglik_exponential_arrays(
    data: Dataset, weights: np.ndarray, means: np.ndarray
) -> float:
    if (means <= 0).any() or (weights < 0).any():
        return -math.inf
    uniq, counts, _ = data._count_summary
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    log_terms = (log_w - np.log(means))[:, None] - uniq[None, :] / means[:, None]
    return _mixture_loglik(log_terms, counts)


def loglik_exponential(data: Dataset, r: PoissonReparam) -> float:
    """Exponential mixture log-likelihood (mean-parameterised components)."""
    data.check_family("exponential")
    return loglik_exponential_arrays(data, r.weights, r.rates)


def _cached(cache: dict, name: str, compute, *inputs):
    """``compute(*inputs)``, reused from ``cache[name]`` while every input is the
    very object (``is``) the stored value was computed from.

    An entry keeps its inputs alive, so an identity never matches a new object
    that took over a freed one's address.
    """
    entry = cache.get(name)
    if entry is not None and all(map(operator.is_, entry[0], inputs)):
        return entry[1]
    value = compute(*inputs)
    cache[name] = (inputs, value)
    return value


def _interior(v: np.ndarray) -> bool:
    return bool((v >= MIN_WEIGHT).all())


def _on_simplex(weights: np.ndarray) -> bool:
    return abs(float(np.sum(weights)) - 1.0) <= 1e-9


# The pieces of ``transforms.standard_arrays_from_angular``, with its float
# operations in its order, so that the cached values match it to the bit.


def _unit_vector(angles: np.ndarray) -> np.ndarray:
    return _direction_from_angles(angles, len(angles) + 1)


def _gamma(phi_sq: float, phi_sign: int, varpi_direction: np.ndarray, basis: np.ndarray):
    # k = 2 has a single basis row and a signed radius
    radius = phi_sign * math.sqrt(phi_sq) if len(basis) == 1 else math.sqrt(phi_sq)
    return radius * (varpi_direction @ basis)


def _eta(phi_sq: float, xi_direction: np.ndarray) -> np.ndarray:
    return math.sqrt(1.0 - phi_sq) * xi_direction


def _over_sqrt_p(scale: float, v: np.ndarray, sqrt_p: np.ndarray) -> np.ndarray:
    return scale * v / sqrt_p


def _rates(lam: float, gamma: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return lam * gamma / weights


def _rate_logpost(
    data: Dataset,
    spec: PriorSpec,
    family: str,
    lam: float,
    gamma: np.ndarray,
    weights: np.ndarray,
    cache: dict | None = None,
) -> float:
    """Log-posterior of a rate-family state; ``cache`` works as in
    :func:`_gaussian_logpost` and also keeps the component ``rates``."""
    c = {} if cache is None else cache
    if not (
        lam > 0
        and _cached(c, "gamma_interior", _interior, gamma)
        and _cached(c, "weights_interior", _interior, weights)
    ):
        return -math.inf
    lp = -math.log(lam)
    lp += _cached(c, "log_dirichlet_gamma", _log_dirichlet, gamma, spec.gamma_dirichlet_alpha)
    lp += _cached(c, "log_dirichlet", _log_dirichlet, weights, spec.alpha0)
    if lp == -math.inf:
        return -math.inf
    rates = _cached(c, "rates", _rates, lam, gamma, weights)
    if family == "poisson":
        return lp + loglik_poisson_arrays(data, weights, rates)
    return lp + loglik_exponential_arrays(data, weights, rates)


def _gaussian_logpost(
    data: Dataset,
    spec: PriorSpec,
    mu: float,
    sigma: float,
    weights: np.ndarray,
    phi_sq: float,
    phi_sign: int,
    varpi: np.ndarray,
    xi: np.ndarray,
    cache: dict | None = None,
) -> float:
    """Log-posterior of a Gaussian state in anchored coordinates.

    Every derived value (support checks, prior factors, the hyperplane basis,
    ``gamma``, ``eta``, component ``locs`` and ``scales``) is stored in
    ``cache`` with the inputs it came from.  A caller that passes a copy of
    the cache of the state a proposal was built from, with the unmoved fields
    the same objects, recomputes only what the move changed; without a cache
    everything is computed.  The prior terms are summed in one fixed order,
    so the value is the same to the bit either way.
    """
    c = {} if cache is None else cache
    k = len(weights)
    # the prior densities below return -inf outside their own supports; only
    # the log of sigma and the simplex sum are left to check here
    if not (sigma > 0 and _cached(c, "on_simplex", _on_simplex, weights)):
        return -math.inf
    lp = -math.log(sigma)
    lp += _cached(c, "log_dirichlet", _log_dirichlet, weights, spec.alpha0)
    lp += _cached(c, "log_beta", _log_beta, phi_sq, *spec.phi_beta)
    if k == 2:
        lp += math.log(0.5)
    lp += _cached(c, "log_varpi", log_varpi_density, varpi, k)
    lp += _cached(c, "log_xi", log_xi_density, spec, xi, k)
    if lp == -math.inf:
        return -math.inf
    sqrt_p = _cached(c, "sqrt_p", np.sqrt, weights)
    basis = _cached(c, "basis", transforms.basis_rows, weights)
    varpi_direction = _cached(c, "varpi_direction", _unit_vector, varpi)
    gamma = _cached(c, "gamma", _gamma, phi_sq, phi_sign, varpi_direction, basis)
    eta = _cached(c, "eta", _eta, phi_sq, _cached(c, "xi_direction", _unit_vector, xi))
    offsets = _cached(c, "loc_offsets", _over_sqrt_p, sigma, gamma, sqrt_p)
    locs = _cached(c, "locs", operator.add, mu, offsets)
    scales = _cached(c, "scales", _over_sqrt_p, sigma, eta, sqrt_p)
    log_w = _cached(c, "log_p", np.log, weights)
    return lp + loglik_gaussian_arrays(data.values, weights, locs, scales, log_w)


def log_posterior(data: Dataset, prior_spec: PriorSpec, state) -> float:
    """Log prior plus log likelihood; ``-inf`` outside the support.

    The value is defined only up to an additive constant because the global
    parameters carry an improper scale-invariant prior; comparisons are
    meaningful within a single run configuration.
    """
    if isinstance(state, GaussianState):
        c = state.coords
        return _gaussian_logpost(
            data,
            prior_spec,
            state.mu,
            state.sigma,
            state.weights,
            c.phi_sq,
            c.phi_sign,
            c.varpi,
            c.xi,
        )
    if isinstance(state, RateState):
        return _rate_logpost(
            data, prior_spec, state.family, state.lam, state.gamma, state.weights
        )
    raise TypeError(f"unsupported state type {type(state).__name__}")
