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
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .params import (
    GaussianState,
    MIN_WEIGHT,
    PoissonReparam,
    RateState,
    StandardParams,
)
from .priors import (
    PriorSpec,
    _log_beta,
    _log_dirichlet,
    log_prior,
    log_varpi_density,
    log_xi_density,
)
from .transforms import standard_arrays_from_angular

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


def _sort_rows(rows: np.ndarray) -> None:
    """Sort every column of ``rows`` (k, n) ascending, in place.

    k rounds of odd-even transposition, each one elementwise compare-exchange
    of all adjacent row pairs of one parity, give the values ``np.sort(rows,
    axis=0)`` gives.  A NaN spreads to every later row instead of moving to
    the last, so the last row is NaN exactly where a sort puts a NaN there.
    """
    k = len(rows)
    for step in range(k):
        first = step % 2
        if first + 1 < k:
            lo, hi = rows[first : k - 1 : 2], rows[first + 1 : k : 2]
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
    x: np.ndarray, weights: np.ndarray, locs: np.ndarray, scales: np.ndarray
) -> float:
    """Gaussian mixture log-likelihood from raw parameter arrays."""
    if np.any(scales <= 0) or np.any(weights < 0):
        return -math.inf
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    z = (x[None, :] - locs[:, None]) / scales[:, None]
    log_terms = (log_w - np.log(scales) - 0.5 * _LOG_2PI)[:, None] - 0.5 * z * z
    return _mixture_loglik(log_terms)


def loglik_gaussian(data: Dataset, params: StandardParams) -> float:
    """Sum over observations of ``log sum_i p_i N(x | mu_i, sigma_i^2)``."""
    if params.family != "gaussian":
        raise ValueError("params must describe a gaussian mixture")
    return loglik_gaussian_arrays(data.values, params.weights, params.locs, params.scales)


def loglik_poisson_arrays(
    data: Dataset, weights: np.ndarray, rates: np.ndarray
) -> float:
    if np.any(rates <= 0) or np.any(weights < 0):
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
    if np.any(means <= 0) or np.any(weights < 0):
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


def _rate_logpost(
    data: Dataset,
    spec: PriorSpec,
    family: str,
    lam: float,
    gamma: np.ndarray,
    weights: np.ndarray,
) -> float:
    if not (lam > 0 and np.all(gamma >= MIN_WEIGHT) and np.all(weights >= MIN_WEIGHT)):
        return -math.inf
    lp = log_prior(spec, RateState(family=family, lam=lam, gamma=gamma, weights=weights))
    if lp == -math.inf:
        return -math.inf
    rates = lam * gamma / weights
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
) -> float:
    # the prior densities below return -inf outside their own supports; only
    # the log of sigma and the simplex sum are left to check here
    k = len(weights)
    if not (sigma > 0 and abs(float(np.sum(weights)) - 1.0) <= 1e-9):
        return -math.inf
    lp = -math.log(sigma)
    lp += _log_dirichlet(weights, spec.alpha0)
    lp += _log_beta(phi_sq, *spec.phi_beta)
    if k == 2:
        lp += math.log(0.5)
    lp += log_varpi_density(varpi, k)
    lp += log_xi_density(spec, xi, k)
    if lp == -math.inf:
        return -math.inf
    locs, scales, _ = standard_arrays_from_angular(
        mu, sigma, weights, phi_sq, phi_sign, varpi, xi
    )
    return lp + loglik_gaussian_arrays(data.values, weights, locs, scales)


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
