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
from functools import cache, cached_property

import numpy as np

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
from .transforms import (  # noqa: F401
    _eta, _gamma, _k2_angles, _over_sqrt_p, _radius, _rates, _unit_vector, _weight_pair,
    standard_arrays_from_angular,
)

__all__ = [
    "Dataset",
    "loglik_gaussian",
    "loglik_poisson",
    "loglik_exponential",
    "log_posterior",
]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_HALF = math.log(0.5)  # the density of the sign of a two-component radius


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
        # collapse repeated values once; Poisson/exponential likelihoods are
        # then linear in the distinct values
        uniq, counts = np.unique(self.values, return_counts=True)
        return uniq, counts.astype(float)

    @cached_property
    def _x_row(self) -> np.ndarray:
        """The observations as a (1, n) row, for the Gaussian log-terms."""
        return self.values[None, :]

    @cached_property
    def _log_factorials(self) -> np.ndarray:
        """``log(x!)`` of each distinct value, for the Poisson likelihood only."""
        from scipy.special import gammaln  # slow to import; exponential and Gaussian fits skip it

        return gammaln(self._count_summary[0] + 1.0)


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


def _sort_head(log_terms: np.ndarray) -> np.ndarray:
    """Sort every column of ``log_terms`` (k, n) ascending as :func:`_sort_rows`
    does, leaving the k - 1 smaller values in place; returns the last row.

    For k = 2 and k = 3 the comparators of :func:`_merge_network` run as direct
    minimum and maximum selections, in its order and with its argument order,
    each written into a row whose value is already taken, so NaNs, infinities
    and signed zeros come out as the network's.  For k = 2 the last row comes
    back as a new array and row 1 is left as it was.
    """
    k = len(log_terms)
    if k == 2:
        lo, hi = log_terms
        shift = np.maximum(lo, hi)
        np.minimum(lo, hi, out=lo)
        return shift
    if k == 3:
        lo, mid, hi = log_terms
        high = np.maximum(lo, mid)  # comparator (0, 1)
        np.minimum(lo, mid, out=lo)
        np.maximum(lo, hi, out=mid)  # comparator (0, 2); its high value goes to ``mid``
        np.minimum(lo, hi, out=lo)
        np.maximum(high, mid, out=hi)  # comparator (1, 2)
        np.minimum(high, mid, out=mid)
        return hi
    _sort_rows(log_terms)
    return log_terms[-1]


def _mixture_loglik(log_terms: np.ndarray, counts: np.ndarray | None = None) -> float:
    """Aggregate component log-term rows of shape (k, n), k >= 2, in place.

    Putting every observation's terms in canonical (ascending) order fixes
    the summation order, so the result is bit-for-bit invariant under
    relabelling; the max-shift is then the last row.
    """
    shift = _sort_head(log_terms)
    if not np.isfinite(shift).all():
        return -math.inf
    head = log_terms[:-1]
    np.subtract(head, shift, out=head)
    total = _sum_terms(np.exp(head, out=head))
    # every step writes into an array it already has: at large n a fresh one per
    # step costs more in page faults than the arithmetic
    per_obs = np.add(shift, np.log1p(total, out=total), out=shift)
    if counts is None:
        return float(per_obs.sum())
    return float(counts @ per_obs)


def _gaussian_loglik(x_row, locs, scales, log_norms) -> float:
    """Gaussian mixture log-likelihood from the observations as a (1, n) row and
    (k, 1) columns of component locations, scales and ``log p - log scale -
    log(2 pi) / 2``; the caller has checked that every scale is positive."""
    z = np.subtract(x_row, locs)
    z /= scales
    terms = np.multiply(z, 0.5)
    terms *= z
    return _mixture_loglik(np.subtract(log_norms, terms, out=terms))


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
    log_norms = (log_weights - np.log(scales) - 0.5 * _LOG_2PI)[:, None]
    return _gaussian_loglik(x[None, :], locs[:, None], scales[:, None], log_norms)


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
    uniq, counts = data._count_summary
    lgam = data._log_factorials
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
    uniq, counts = data._count_summary
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    log_terms = (log_w - np.log(means))[:, None] - uniq[None, :] / means[:, None]
    return _mixture_loglik(log_terms, counts)


def loglik_exponential(data: Dataset, r: PoissonReparam) -> float:
    """Exponential mixture log-likelihood (mean-parameterised components)."""
    data.check_family("exponential")
    return loglik_exponential_arrays(data, r.weights, r.rates)


def _interior(v: np.ndarray) -> bool:
    return bool((v >= MIN_WEIGHT).all())


def _on_simplex(weights: np.ndarray) -> bool:
    return abs(float(weights.sum()) - 1.0) <= 1e-9


def _any_nonpositive(x: np.ndarray) -> bool:
    """``(x <= 0).any()`` (a NaN is not ``<= 0``), on Python floats: cheaper for a
    handful of entries."""
    return any(map((0.0).__ge__, x.tolist()))


# The cached targets below keep their derived values in ``cache``, one entry per
# state field: a tuple whose first item is the field's value the rest came
# from.  An entry is current while that item ``is`` the state's field (a
# state's values are never written to; each move puts a new object in the
# field it changes), and the entries downstream of a recomputed one are
# recomputed in the same call.  A call that returns ``-inf`` from the prior
# stores nothing, so every stored entry comes from the fields of one call that
# reached the likelihood.  A sampler passes each proposal a copy of the cache
# of the state it was built from, so only what the move changed is recomputed;
# without a cache everything is.  The prior terms are summed in one fixed
# order, so the value is the same to the bit either way.


def _rate_logpost(
    data: Dataset,
    spec: PriorSpec,
    family: str,
    lam: float,
    gamma: np.ndarray,
    weights: np.ndarray,
    cache: dict | None = None,
) -> float:
    """Log-posterior of a rate-family state.

    ``cache`` holds the Dirichlet density of ``gamma`` and of ``weights``
    (``-inf`` off the interior), and under ``lam`` the component ``rates``.
    """
    c = {} if cache is None else cache
    if not lam > 0:
        return -math.inf
    g = c.get("gamma")
    new_g = g is None or g[0] is not gamma
    if new_g:
        g = (gamma, _log_dirichlet(gamma, spec.gamma_dirichlet_alpha)
             if _interior(gamma) else -math.inf)
    w = c.get("weights")
    new_w = w is None or w[0] is not weights
    if new_w:
        w = (weights, _log_dirichlet(weights, spec.alpha0) if _interior(weights) else -math.inf)
    lp = -math.log(lam)
    lp += g[1]
    lp += w[1]
    if lp == -math.inf:
        return -math.inf
    c["gamma"], c["weights"] = g, w
    r = c.get("lam")
    if new_g or new_w or r is None or r[0] is not lam:
        r = c["lam"] = (lam, _rates(lam, gamma, weights))
    if family == "poisson":
        return lp + loglik_poisson_arrays(data, weights, r[1])
    return lp + loglik_exponential_arrays(data, weights, r[1])


def _scale_entry(sigma: float, gamma: np.ndarray, eta: np.ndarray, sqrt_p: np.ndarray,
                 log_p: np.ndarray) -> tuple:
    """``(sigma, location offsets, scales, scale column, log-normaliser column)``;
    the last is ``None`` when a scale is not positive, outside the support."""
    offsets = _over_sqrt_p(sigma, gamma, sqrt_p)
    scales = _over_sqrt_p(sigma, eta, sqrt_p)
    if _any_nonpositive(scales):
        return sigma, offsets, scales, None, None
    log_norms = (log_p - np.log(scales) - 0.5 * _LOG_2PI)[:, None]
    return sigma, offsets, scales, scales[:, None], log_norms


def _gaussian_tail(data: Dataset, c: dict, mu: float, scale_entry: tuple, moved: bool) -> float:
    """Log-likelihood of a Gaussian state from its scale entry, with the location
    entry under ``mu`` (recomputed if ``moved`` or ``mu`` changed)."""
    m = c.get("mu")
    if moved or m is None or m[0] is not mu:
        locs = mu + scale_entry[1]
        m = c["mu"] = (mu, locs, locs[:, None])
    if scale_entry[4] is None:
        return -math.inf
    return _gaussian_loglik(data._x_row, m[2], scale_entry[3], scale_entry[4])


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

    ``cache`` keeps, by the field each comes from: under ``weights`` the
    log-Dirichlet density, ``sqrt(p)``, the hyperplane basis and ``log p``;
    under ``phi_sq`` (with ``phi_sign``) the log-Beta density and the radius;
    under ``varpi`` its density, direction and ``gamma``; under ``xi`` its
    density, direction and ``eta``; under ``sigma`` the location offsets,
    the scales, their support check and the (k, 1) columns of scales and of
    ``log p - log scales - log(2 pi) / 2``; under ``mu`` the locations.
    """
    c = {} if cache is None else cache
    k = len(weights)
    # the prior densities below return -inf outside their own supports; only
    # the log of sigma and the simplex sum are left to check here
    if not sigma > 0:
        return -math.inf
    w = c.get("weights")
    new_w = w is None or w[0] is not weights
    if new_w:
        if not _on_simplex(weights):
            return -math.inf
        w = (weights, _log_dirichlet(weights, spec.alpha0))
    phi = c.get("phi_sq")
    new_phi = phi is None or phi[0] is not phi_sq or phi[1] is not phi_sign
    if new_phi:
        phi = (phi_sq, phi_sign, _log_beta(phi_sq, *spec.phi_beta))
    loc = c.get("varpi")
    new_loc = loc is None or loc[0] is not varpi
    if new_loc:
        loc = (varpi, log_varpi_density(varpi, k))
    sc = c.get("xi")
    new_sc = sc is None or sc[0] is not xi
    if new_sc:
        sc = (xi, log_xi_density(spec, xi, k))
    lp = -math.log(sigma)
    lp += w[1]
    lp += phi[2]
    if k == 2:
        lp += _LOG_HALF
    lp += loc[1]
    lp += sc[1]
    if lp == -math.inf:
        return -math.inf
    if new_w:
        w = c["weights"] = (weights, w[1], np.sqrt(weights), transforms.basis_rows(weights),
                            np.log(weights))
    if new_phi:
        phi = c["phi_sq"] = (*phi, _radius(phi_sq, phi_sign, k))
    if new_loc or new_w or new_phi:
        direction = _unit_vector(varpi) if new_loc else loc[2]
        loc = c["varpi"] = (varpi, loc[1], direction, _gamma(phi[3], direction, w[3]))
    if new_sc or new_phi:
        direction = _unit_vector(xi) if new_sc else sc[2]
        sc = c["xi"] = (xi, sc[1], direction, _eta(phi_sq, direction))
    s = c.get("sigma")
    moved = new_w or new_phi or new_loc or new_sc or s is None or s[0] is not sigma
    if moved:
        s = c["sigma"] = _scale_entry(sigma, loc[3], sc[3], w[2], w[4])
    return lp + _gaussian_tail(data, c, mu, s, moved)


_NO_VARPI = np.empty(0)  # the location angles of a two-component state: none
_NO_VARPI.flags.writeable = False


def _k2_logpost(data: Dataset, spec: PriorSpec, mu: float, sigma: float, p1: float,
                v: np.ndarray, sign: int) -> float:
    """Log-posterior of a two-component state ``(mu, sigma, p1, v, sign)``.

    This is :func:`_gaussian_logpost` at ``weights = (p1, 1 - p1)``, the scale
    angle ``xi`` of ``v`` and no location angle, measured through ``eta1_sq``
    instead of ``xi``: less the log-Jacobian of ``xi -> eta1_sq``.  It is the
    uncached reference of :func:`_k2_cached_logpost`.
    """
    # the Jacobian is log 0 on the boundary of the simplex
    if not (0.0 < p1 < 1.0 and min(v) > 0.0 and v[0] < 1.0):
        return -math.inf
    weights = _weight_pair(p1)
    phi_sq, xi, log_jacobian = _k2_angles(v)
    lp = _gaussian_logpost(data, spec, mu, sigma, weights, phi_sq, sign, _NO_VARPI, xi)
    return lp - log_jacobian


def _k2_cached_logpost(data: Dataset, spec: PriorSpec, mu: float, sigma: float, p1: float,
                       v: np.ndarray, sign: int, cache: dict | None = None) -> float:
    """:func:`_k2_logpost`, with its derived values kept in ``cache`` by field.

    Under ``p1``: the weight pair, its log-Dirichlet density, ``sqrt(p)``, the
    basis vector and ``log p``; under ``v``: ``phi_sq``, ``xi``, the
    log-Jacobian, the log-Beta and ``xi`` densities and ``eta``; under
    ``sign``: ``gamma``, the basis vector times the signed radius (the
    general target's product with the one-entry location direction, which
    is the basis vector itself); then ``sigma`` and ``mu`` as in
    :func:`_gaussian_logpost`.  The operations are :func:`_k2_logpost`'s, in
    its order, so the value is its value to the bit.
    """
    if not 0.0 < p1 < 1.0:
        return -math.inf
    c = {} if cache is None else cache
    sc = c.get("v")
    new_v = sc is None or sc[0] is not v
    if new_v:
        # the Jacobian is log 0 on the boundary of the simplex
        if not (min(v.tolist()) > 0.0 and v[0] < 1.0):
            return -math.inf
        phi_sq, xi, log_jacobian = _k2_angles(v)
        sc = (v, phi_sq, xi, log_jacobian, _log_beta(phi_sq, *spec.phi_beta),
              log_xi_density(spec, xi, 2))
    if not sigma > 0:
        return -math.inf
    w = c.get("p1")
    new_w = w is None or w[0] is not p1
    if new_w:
        # p1 + (1 - p1) is within an ulp of 1, so the pair is always on the simplex
        weights = _weight_pair(p1)
        w = (p1, weights, _log_dirichlet(weights, spec.alpha0))
    lp = -math.log(sigma)
    lp += w[2]
    lp += sc[4]
    lp += _LOG_HALF
    lp += 0.0  # the density of the location angles, of which there are none
    lp += sc[5]
    if lp == -math.inf:
        return -math.inf
    if new_w:
        weights = w[1]
        w = c["p1"] = (*w, np.sqrt(weights), transforms.basis_rows(weights)[0], np.log(weights))
    if new_v:
        sc = c["v"] = (*sc, _eta(sc[1], _unit_vector(sc[2])))
    g = c.get("sign")
    moved = new_w or new_v or g is None or g[0] is not sign
    if moved:
        g = c["sign"] = (sign, _radius(sc[1], sign, 2) * w[4])
    s = c.get("sigma")
    moved = moved or s is None or s[0] is not sigma
    if moved:
        s = c["sigma"] = _scale_entry(sigma, g[1], sc[6], w[3], w[5])
    return (lp + _gaussian_tail(data, c, mu, s, moved)) - sc[3]


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
