"""Numerical verification of posterior propriety under the 1/scale priors.

Three independent routes confirm that the scale-invariant improper priors
produce proper posteriors at the minimal sample sizes:

* for Gaussian mixtures and two observations, each of the k^2 cross terms
  of the marginal likelihood reduces in closed form to
  ``p_i p_j / |x1 - x2| * Phi(-(a_i - a_j)/(x1 - x2) * |x1 - x2| / s)``
  with ``s = sqrt(t_i^2 + t_j^2)``; a two-dimensional quadrature of the raw
  double integral must agree,
* for rate mixtures and one observation, integrating the global mean out
  analytically leaves ``sum_i p_i / x1``, whose prior expectation is exactly
  ``1 / x1``; a Monte Carlo average over the proper prior confirms it,
* for a single Gaussian observation the scale integral diverges
  logarithmically, which the truncation probe makes explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .priors import PriorSpec

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "MarginalEstimate",
    "gaussian_pair_closed",
    "gaussian_pair_quad",
    "marginal_one_obs_mc",
    "n1_divergence_probe",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Rectangle and node counts for the two-observation quadrature.

    The integration runs over ``z = 1/sigma`` on ``(z_lo, z_hi]`` and over a
    standardised location coordinate on ``[-loc_halfwidth, loc_halfwidth]``
    (the location integrand is a unit-width Gaussian ridge after recentring,
    so ten standard deviations cover it).  Leaving ``z_lo``/``z_hi`` unset
    picks a window from the integrand's own Gaussian decay in z.
    """

    n_z: int = 160
    n_loc: int = 160
    loc_halfwidth: float = 10.0
    z_lo: float | None = None
    z_hi: float | None = None
    rel_tol: float = 1e-6

    def __post_init__(self):
        if min(self.n_z, self.n_loc) < 64:
            raise ValueError("node counts must be at least 64")
        if self.loc_halfwidth <= 0 or not math.isfinite(self.loc_halfwidth):
            raise ValueError("loc_halfwidth must be finite and positive")
        for edge in (self.z_lo, self.z_hi):
            if edge is not None and not math.isfinite(edge):
                raise ValueError("z window must be finite")
        if self.z_lo is not None and self.z_hi is not None and self.z_lo >= self.z_hi:
            raise ValueError("need z_lo < z_hi")


class QuadResult(NamedTuple):
    value: float
    error_estimate: float


def _check_pair_args(ti: float, tj: float, x1: float, x2: float) -> None:
    if x1 == x2:
        raise ValueError("the two observations must differ")
    if ti <= 0 or tj <= 0:
        raise ValueError("scale ratios must be strictly positive")


def gaussian_pair_closed(
    pi: float, pj: float, ai: float, aj: float, ti: float, tj: float,
    x1: float, x2: float,
) -> float:
    """Closed form of one cross term of the two-observation marginal.

    Integrating the location out turns the cross term into a Gaussian in
    ``z = 1/sigma`` centred at ``(a_i - a_j)/(x1 - x2)`` with spread
    ``s/|x1 - x2|``; its mass over ``z > 0`` is the Phi factor below.  The
    value is bounded by ``p_i p_j / |x1 - x2|``, which is what makes the
    full marginal finite once the priors on the compact block are proper.
    """
    from scipy.special import ndtr  # slow to import; kept off the CLI's start-up

    _check_pair_args(ti, tj, x1, x2)
    dx = x1 - x2
    s = math.hypot(ti, tj)
    arg = (ai - aj) / dx * abs(dx) / s
    return pi * pj / abs(dx) * float(ndtr(arg))


def _z_window(ai, aj, ti, tj, x1, x2):
    dx = x1 - x2
    s = math.hypot(ti, tj)
    centre = (ai - aj) / dx
    spread = s / abs(dx)
    lo = max(0.0, centre - 12.0 * spread)
    hi = centre + 12.0 * spread
    if hi <= 0.0:
        # all mass beyond the origin: keep a token boundary window
        return 0.0, spread
    return lo, hi


def _logsumexp(values: np.ndarray) -> float:
    shift = values.max()
    if not math.isfinite(shift):
        return -math.inf
    return float(shift + math.log(np.sum(np.exp(values - shift))))


def _log_quad(pi, pj, ai, aj, ti, tj, x1, x2, n_z, n_loc, half, z_lo, z_hi):
    """Log of the tensor quadrature plus log z-marginals at the window edges."""
    nodes_z, weights_z = np.polynomial.legendre.leggauss(n_z)
    nodes_v, weights_v = np.polynomial.legendre.leggauss(n_loc)
    z = 0.5 * (z_hi - z_lo) * nodes_z + 0.5 * (z_hi + z_lo)
    z = np.concatenate([[z_lo], z, [z_hi]])  # edge rows carry no weight
    log_wz = np.log(weights_z * 0.5 * (z_hi - z_lo))
    v = half * nodes_v
    log_wv = np.log(weights_v * half)

    # recentre the location integral: for each z the integrand is a Gaussian
    # of unit width in v around the precision-weighted centre
    wi, wj = 1.0 / ti**2, 1.0 / tj**2
    width = 1.0 / math.sqrt(wi + wj)
    centre = ((z * x1 - ai) * wi + (z * x2 - aj) * wj) / (wi + wj)
    u = centre[:, None] + width * v[None, :]
    e1 = (z[:, None] * x1 - u - ai) / ti
    e2 = (z[:, None] * x2 - u - aj) / tj
    log_f = (
        math.log(pi * pj * width / (2.0 * math.pi * ti * tj))
        - 0.5 * (e1 * e1 + e2 * e2)
        + log_wv[None, :]
    )
    log_value = _logsumexp((log_f[1:-1] + log_wz[:, None]).ravel())
    log_edge_lo = _logsumexp(log_f[0])
    log_edge_hi = _logsumexp(log_f[-1])
    return log_value, log_edge_lo, log_edge_hi


def gaussian_pair_quad(
    pi: float, pj: float, ai: float, aj: float, ti: float, tj: float,
    x1: float, x2: float, spec: QuadratureSpec | None = None,
) -> QuadResult:
    """Tensor Gauss-Legendre evaluation of the raw (location, z) integral.

    The integrand is the two-observation cross term before any analytic
    reduction, written in the ``z = 1/sigma`` variable; comparison against
    :func:`gaussian_pair_closed` is the propriety check.  The error estimate
    is the change under halving both node counts; it must stay below
    ``spec.rel_tol`` relative to the value.
    """
    _check_pair_args(ti, tj, x1, x2)
    spec = spec or QuadratureSpec()
    z_lo, z_hi = _z_window(ai, aj, ti, tj, x1, x2)
    if spec.z_lo is not None:
        z_lo = spec.z_lo
    if spec.z_hi is not None:
        z_hi = spec.z_hi
    log_full, log_lo, log_hi = _log_quad(
        pi, pj, ai, aj, ti, tj, x1, x2, spec.n_z, spec.n_loc,
        spec.loc_halfwidth, z_lo, z_hi,
    )
    log_half, _, _ = _log_quad(
        pi, pj, ai, aj, ti, tj, x1, x2, spec.n_z // 2, spec.n_loc // 2,
        spec.loc_halfwidth, z_lo, z_hi,
    )
    value = math.exp(log_full)
    # node-resolution error plus clipped-window mass; z = 0 is the true end
    # of the domain, so only a positive lower edge counts as truncation
    error = abs(value - math.exp(log_half))
    scale = 0.5 * (z_hi - z_lo)
    error += math.exp(log_hi) * scale
    if z_lo > 0.0:
        error += math.exp(log_lo) * scale
    if error > spec.rel_tol * max(value, 1e-300):
        raise ArithmeticError(
            f"quadrature did not settle: value {value!r}, estimated error {error!r}"
        )
    return QuadResult(value=value, error_estimate=error)


class MarginalEstimate(NamedTuple):
    estimate: float
    std_error: float


def marginal_one_obs_mc(
    family: str,
    k: int,
    x1: float,
    prior_spec: PriorSpec | None = None,
    n_mc: int = 10**6,
    seed: int = 0,
) -> MarginalEstimate:
    """Monte Carlo check of the one-observation marginal likelihood.

    The global mean is integrated out analytically (a Gamma integral for
    Poisson components, ``int lam^-2 exp(-b/lam) dlam = 1/b`` for
    exponential ones); only the proper prior on ``(gamma, p)`` is sampled.
    The component sum is importance-sampled with a uniform index so the
    estimator keeps genuine Monte Carlo spread: once the algebra cancels,
    the fully summed integrand is the constant ``1 / x1``.
    """
    if family not in ("poisson", "exponential"):
        raise ValueError("the one-observation identity covers rate families only")
    if family == "poisson":
        if x1 < 1 or x1 != int(x1):
            raise ValueError("poisson checks need a strictly positive integer count")
    elif x1 <= 0:
        raise ValueError("exponential checks need a strictly positive observation")
    if n_mc < 2:
        raise ValueError(f"the Monte Carlo standard error needs n_mc >= 2 draws, got {n_mc}")
    from scipy.special import gammaln  # slow to import; kept off the CLI's start-up

    spec = prior_spec or PriorSpec()
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(k, spec.alpha0), size=n_mc)
    gamma = rng.dirichlet(np.full(k, spec.gamma_dirichlet_alpha), size=n_mc)
    idx = rng.integers(0, k, size=n_mc)
    rows = np.arange(n_mc)
    p_i = weights[rows, idx]
    g_i = gamma[rows, idx]
    ratio = g_i / p_i
    if family == "poisson":
        # density term (lam*ratio)^x1 e^{-lam*ratio} / x1!, integrated against
        # d(lam)/lam: Gamma(x1) / ratio^x1
        log_gamma_integral = gammaln(x1) - x1 * np.log(ratio)
        log_vals = (
            math.log(k)
            + np.log(p_i)
            + x1 * np.log(ratio)
            - gammaln(x1 + 1.0)
            + log_gamma_integral
        )
        vals = np.exp(log_vals)
    else:
        b = x1 / ratio
        lam_integral = 1.0 / b
        vals = k * p_i * lam_integral / ratio
    estimate = float(np.mean(vals))
    std_error = float(np.std(vals, ddof=1) / math.sqrt(n_mc))
    return MarginalEstimate(estimate=estimate, std_error=std_error)


def n1_divergence_probe(L: float) -> float:
    """Mass of the 1/sigma prior between 1/L and L: exactly ``2 log L``.

    Growing without bound in L, this is the single-observation divergence
    that forces the two-observation minimum sample size.
    """
    if L <= 1.0:
        raise ValueError("need L > 1")
    return 2.0 * math.log(L)
