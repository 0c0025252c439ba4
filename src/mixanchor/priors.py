"""Weakly informative priors over the compact coordinate block.

Two variants are provided.  Both draw the weights from a symmetric
Dirichlet and the squared radius ``phi_sq`` from a Beta law, and both put
uniform angles on the location direction.  They differ on the scale block:

* ``single_uniform`` distributes the squared scale coordinates
  ``(eta_1^2, ..., eta_k^2) / (1 - phi_sq)`` uniformly over the unit
  simplex;
* ``double_uniform`` draws the scale angles ``xi`` uniformly over
  ``[0, pi/2]^(k-1)``.

The global parameters never enter these proper laws: the scale-invariant
``1/sigma`` (or ``1/lam``) factor appears only inside
:func:`log_prior`, which is the quantity MCMC acceptance ratios consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (
    AngularCoords,
    GaussianState,
    MIN_WEIGHT,
    RateState,
)
from .transforms import _angles_from_unit_rows, standard_arrays_from_angular

__all__ = [
    "PriorSpec",
    "AngularPriorDraws",
    "RatePriorDraws",
    "sample_prior",
    "log_prior",
    "mixture_normal_quantiles",
    "prior_quantile_study",
    "standard_arrays_from_draws",
]

PRIOR_KINDS = ("single_uniform", "double_uniform")
MAX_HYPERPARAMETER = 1e280  # see PriorSpec


def _hyperparameter(name: str, value):
    if not ((type(value) is int or isinstance(value, float)) and 0 < value <= MAX_HYPERPARAMETER):
        raise ValueError(f"prior option {name!r} must be a number in (0, 1e280], got {value!r}")
    return value


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of the weakly informative prior.

    ``alpha0`` is the common Dirichlet hyperparameter on the weights,
    ``phi_beta`` the Beta pair on the squared radius, and
    ``gamma_dirichlet_alpha`` the common Dirichlet hyperparameter on the
    rate-family simplex.  Defaults make every proper factor uniform.  Each
    is a real number, not a bool, in (0, 1e280] (``MAX_HYPERPARAMETER``): for
    any k < 2**63 every log-gamma argument stays below 1e299 and every
    log-gamma term below 1e302.  ``phi_beta`` is kept as a tuple, so
    ``asdict`` -> JSON -> ``PriorSpec`` round-trips.
    """

    kind: str = "double_uniform"
    alpha0: float = 1.0
    phi_beta: tuple[float, float] = (1.0, 1.0)
    gamma_dirichlet_alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        pair = self.phi_beta
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ValueError(f"prior option 'phi_beta' must be a pair, got {pair!r}")
        object.__setattr__(self, "phi_beta", tuple(_hyperparameter("phi_beta", v) for v in pair))
        for name in ("alpha0", "gamma_dirichlet_alpha"):
            object.__setattr__(self, name, float(_hyperparameter(name, getattr(self, name))))


@dataclass(frozen=True)
class AngularPriorDraws:
    """Vectorised prior draws for a location-scale mixture."""

    weights: np.ndarray   # (n, k)
    phi_sq: np.ndarray    # (n,)
    phi_sign: np.ndarray  # (n,) in {-1, +1}; +1 unless k == 2
    varpi: np.ndarray     # (n, k-2)
    xi: np.ndarray        # (n, k-1)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    def coords(self, i: int) -> AngularCoords:
        return AngularCoords(
            phi_sq=float(self.phi_sq[i]),
            varpi=self.varpi[i],
            xi=self.xi[i],
            phi_sign=int(self.phi_sign[i]),
        )

    def state(self, i: int, mu: float = 0.0, sigma: float = 1.0) -> GaussianState:
        return GaussianState(mu=mu, sigma=sigma, weights=self.weights[i], coords=self.coords(i))


@dataclass(frozen=True)
class RatePriorDraws:
    """Vectorised prior draws for a Poisson or exponential mixture."""

    weights: np.ndarray  # (n, k)
    gamma: np.ndarray    # (n, k)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def k(self) -> int:
        return self.weights.shape[1]


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_varpi(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """Uniform location angles: first k-3 on [0, pi], the last on [0, 2*pi]."""
    varpi = np.empty((n, max(k - 2, 0)))
    if k >= 3:
        if k > 3:
            varpi[:, :-1] = rng.uniform(0.0, math.pi, size=(n, k - 3))
        varpi[:, -1] = rng.uniform(0.0, 2 * math.pi, size=n)
    return varpi


def sample_prior(spec: PriorSpec, k: int, family: str, n_draws: int, seed=0):
    """Draw the compact block of parameters from the prior.

    Location-scale families return :class:`AngularPriorDraws`; rate families
    return :class:`RatePriorDraws`.  Every angular draw satisfies the sphere
    and simplex constraints exactly because the constraints are built into
    the parameterisation.
    """
    if k < 2:
        raise ValueError("need at least two components")
    rng = _rng(seed)
    if family in ("poisson", "exponential"):
        weights = rng.dirichlet(np.full(k, spec.alpha0), size=n_draws)
        gamma = rng.dirichlet(np.full(k, spec.gamma_dirichlet_alpha), size=n_draws)
        return RatePriorDraws(weights=weights, gamma=gamma)
    if family != "gaussian":
        raise ValueError(f"unknown family {family!r}")

    weights = rng.dirichlet(np.full(k, spec.alpha0), size=n_draws)
    a1, a2 = spec.phi_beta
    phi_sq = rng.beta(a1, a2, size=n_draws)
    sign = np.ones(n_draws, dtype=int)
    if k == 2:
        sign = rng.choice([-1, 1], size=n_draws)
    varpi = sample_varpi(rng, k, n_draws)
    if spec.kind == "double_uniform":
        xi = rng.uniform(0.0, math.pi / 2, size=(n_draws, k - 1))
    else:
        # squared scale coordinates uniform on the simplex, then re-expressed
        # through their angles so both prior kinds share one representation
        u = rng.dirichlet(np.ones(k), size=n_draws)
        xi = _angles_from_unit_rows(np.sqrt(u), full_circle=False)
    return AngularPriorDraws(
        weights=weights, phi_sq=phi_sq, phi_sign=sign, varpi=varpi, xi=xi
    )


def _betaln(a: float, b: float) -> float:
    """``log B(a, b)`` from ``math.lgamma``."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _log_dirichlet(x: np.ndarray, alpha: float) -> float:
    k = len(x)
    if any(map(MIN_WEIGHT.__gt__, x.tolist())):
        return -math.inf
    norm = math.lgamma(k * alpha) - k * math.lgamma(alpha)
    return float(norm + (alpha - 1.0) * np.log(x).sum())


def _log_beta(x: float, a: float, b: float) -> float:
    if not 0.0 < x < 1.0:
        # the density itself may be finite at the endpoints for unit shapes,
        # but the transforms degenerate there, so treat them as unsupported
        return -math.inf
    return float((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - _betaln(a, b))


def log_xi_density(spec: PriorSpec, xi: np.ndarray, k: int) -> float:
    """Normalised log-density of the scale angles given the prior kind.

    The single-uniform law on the squared scale simplex pulls back to
    ``(k-1)! * prod_i 2 sin(xi_i)^(2(k-1-i)+1) cos(xi_i)`` over
    ``[0, pi/2]^(k-1)``; the double-uniform law is flat there.
    """
    if any(angle < 0 or angle > math.pi / 2 for angle in xi.tolist()):
        return -math.inf
    m = k - 1
    if spec.kind == "double_uniform":
        return m * math.log(2.0 / math.pi)
    s, c = np.sin(xi), np.cos(xi)
    if (s == 0).any() or (c == 0).any():
        return -math.inf
    exponents = 2.0 * (m - 1 - np.arange(m)) + 1.0
    return float(
        math.lgamma(k) + m * math.log(2.0) + np.sum(exponents * np.log(s)) + np.sum(np.log(c))
    )


def log_varpi_density(varpi: np.ndarray, k: int) -> float:
    """Uniform log-density of the location angles on their product range."""
    if k == 2:
        return 0.0
    if not 0.0 <= varpi[-1] <= 2 * math.pi:
        return -math.inf
    if k > 3 and ((varpi[:-1] < 0).any() or (varpi[:-1] > math.pi).any()):
        return -math.inf
    return -(k - 3) * math.log(math.pi) - math.log(2 * math.pi)


def log_prior(spec: PriorSpec, state: GaussianState | RateState) -> float:
    """Log prior density, up to the additive constant of the improper factor.

    Gaussian states are measured in the ``(mu, sigma, p, phi_sq, sign, xi,
    varpi)`` coordinates: the value is ``-log sigma`` plus the normalised
    log-densities of the proper factors (and ``log 1/2`` for the k = 2 sign).
    Rate states analogously use ``-log lam``.  States outside the support
    return ``-inf``.
    """
    if isinstance(state, RateState):
        if not state.lam > 0:
            return -math.inf
        lp = -math.log(state.lam)
        lp += _log_dirichlet(state.gamma, spec.gamma_dirichlet_alpha)
        lp += _log_dirichlet(state.weights, spec.alpha0)
        return lp

    if not state.sigma > 0:
        return -math.inf
    coords = state.coords
    k = state.k
    lp = -math.log(state.sigma)
    lp += _log_dirichlet(state.weights, spec.alpha0)
    lp += _log_beta(coords.phi_sq, *spec.phi_beta)
    if k == 2:
        lp += math.log(0.5)
    lp += log_varpi_density(coords.varpi, k)
    lp += log_xi_density(spec, coords.xi, k)
    return lp


def standard_arrays_from_draws(
    draws: AngularPriorDraws, mu: float = 0.0, sigma: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Component means and scales implied by each draw, as (n, k) arrays."""
    n, k = draws.n, draws.k
    locs = np.empty((n, k))
    scales = np.empty((n, k))
    for i in range(n):
        locs[i], scales[i], _ = standard_arrays_from_angular(
            mu,
            sigma,
            draws.weights[i],
            float(draws.phi_sq[i]),
            int(draws.phi_sign[i]),
            draws.varpi[i],
            draws.xi[i],
        )
    return locs, scales


QUANTILE_TOL = 1e-8  # width of the abscissa bracket at which a quantile bisection stops


def mixture_normal_quantiles(
    weights: np.ndarray,
    locs: np.ndarray,
    scales: np.ndarray,
    quantile_levels,
) -> np.ndarray:
    """Quantiles of Gaussian mixtures by bisection on the mixture CDF.

    ``weights``, ``locs`` and ``scales`` are (n, k) arrays describing n
    mixtures; the bisection runs on all of them simultaneously until the
    abscissa bracket is below ``QUANTILE_TOL``.  The bracket relies on every
    mixture having mean 0 and variance 1, for which a Chebyshev bound applies.
    """
    from scipy.special import ndtr  # slow to import; only the quantile study needs it

    levels = np.atleast_1d(np.asarray(quantile_levels, dtype=float))
    if np.any(levels <= 0) or np.any(levels >= 1):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    n = weights.shape[0]
    out = np.empty((n, len(levels)))
    safe_scales = np.where(scales > 0, scales, 1e-300)
    for j, q in enumerate(levels):
        bound = 1.0 / math.sqrt(min(q, 1.0 - q)) + 1.0
        lo = np.full(n, -bound)
        hi = np.full(n, bound)
        while np.max(hi - lo, initial=0.0) > QUANTILE_TOL:
            mid = 0.5 * (lo + hi)
            z = (mid[:, None] - locs) / safe_scales
            cdf = np.sum(weights * ndtr(z), axis=1)
            below = cdf < q
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out[:, j] = 0.5 * (lo + hi)
    return out


def prior_quantile_study(
    spec: PriorSpec,
    k: int,
    n_draws: int,
    quantile_levels,
    seed=0,
) -> np.ndarray:
    """Quantiles of the mixtures implied by prior draws, anchored at (0, 1).

    For each draw the requested quantiles of the corresponding mixture with
    global mean 0 and variance 1 are found by bisection on the mixture CDF
    (to ``QUANTILE_TOL`` on the abscissa).  Returns an array of shape
    ``(n_draws, len(quantile_levels))``.
    """
    draws = sample_prior(spec, k, "gaussian", n_draws, seed)
    locs, scales = standard_arrays_from_draws(draws)
    return mixture_normal_quantiles(draws.weights, locs, scales, quantile_levels)
