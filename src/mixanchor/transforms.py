"""Exact, invertible transforms between standard and anchored coordinates.

The chain of bijections (conditional on the weights ``p``) is

    (mu_i, sigma_i)  <->  (alpha_i, tau_i)  <->  (gamma_i, eta_i)
                     <->  (phi_sq, varpi angles, xi angles)

together with the global moments ``(mu, sigma)``.  All maps here are pure
functions; round-trips reproduce their inputs to within 1e-10 and the
constraint identities hold to within 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

from .params import (
    CONSTRAINT_TOL,
    MIN_WEIGHT,
    AlphaTau,
    AngularCoords,
    GammaEta,
    GlobalMoments,
    OrthonormalBasis,
    StandardParams,
)

__all__ = [
    "mixture_moments",
    "to_alpha_tau",
    "from_alpha_tau",
    "to_gamma_eta",
    "build_basis",
    "gamma_from_angles",
    "angles_from_gamma",
    "eta_from_angles",
    "angles_from_eta",
    "standard_from_angular",
    "angular_from_standard",
    "check_alpha_tau",
]

#: residual beyond which a vector is rejected as lying off the hyperplane
HYPERPLANE_TOL = 1e-8
#: constraint residual beyond which global moments do not match a mixture's own
MOMENT_TOL = 1e-8


def mixture_moments(params: StandardParams) -> tuple[float, float | None]:
    """Global mean and variance of a mixture.

    The mean is ``sum_i p_i mu_i``.  For Gaussian mixtures the variance is
    ``sum_i p_i sigma_i^2 + sum_i p_i (mu_i^2 - mean^2)``; rate families
    return ``None`` in the variance slot since only the mean anchors them.
    """
    p, locs = params.weights, params.locs
    mean = float(p @ locs)
    if params.family != "gaussian":
        return mean, None
    var = float(p @ params.scales**2 + p @ locs**2 - mean**2)
    return mean, var


def check_alpha_tau(at: AlphaTau, p: np.ndarray, tol: float = CONSTRAINT_TOL) -> None:
    """Verify ``sum p_i alpha_i = 0`` and ``sum p_i (tau_i^2 + alpha_i^2) = 1``."""
    s1 = float(p @ at.alpha)
    s2 = float(p @ (at.tau**2 + at.alpha**2))
    if abs(s1) > tol or abs(s2 - 1.0) > tol:
        raise ValueError(
            f"offset/scale constraints violated: sum p*alpha = {s1!r}, "
            f"sum p*(tau^2 + alpha^2) = {s2!r}"
        )


def to_alpha_tau(params: StandardParams, g: GlobalMoments) -> AlphaTau:
    """Standardise component parameters against the global moments.

    ``alpha_i = (mu_i - mu) / sigma`` and ``tau_i = sigma_i / sigma``.  Raises
    if ``g`` is inconsistent with the mixture's own moments (constraint
    residual beyond ``MOMENT_TOL``).
    """
    if params.family != "gaussian":
        raise ValueError("alpha/tau coordinates apply to location-scale mixtures")
    alpha = (params.locs - g.mu) / g.sigma
    tau = params.scales / g.sigma
    at = AlphaTau(alpha=alpha, tau=tau)
    check_alpha_tau(at, params.weights, tol=MOMENT_TOL)
    return at


def from_alpha_tau(at: AlphaTau, p: np.ndarray, g: GlobalMoments) -> StandardParams:
    """Rebuild component parameters: ``mu_i = mu + sigma alpha_i``, ``sigma_i = sigma tau_i``."""
    p = np.asarray(p, dtype=float)
    check_alpha_tau(at, p)
    locs = g.mu + g.sigma * at.alpha
    scales = g.sigma * at.tau
    return StandardParams(family="gaussian", weights=p, locs=locs, scales=scales)


def to_gamma_eta(at: AlphaTau, p: np.ndarray) -> GammaEta:
    """Map to sphere coordinates ``gamma_i = sqrt(p_i) alpha_i``, ``eta_i = sqrt(p_i) tau_i``."""
    p = np.asarray(p, dtype=float)
    check_alpha_tau(at, p)
    sq = np.sqrt(p)
    return GammaEta(gamma=sq * at.alpha, eta=sq * at.tau)


def basis_rows(p: np.ndarray) -> np.ndarray:
    """Rows of the hyperplane basis, without the container's re-validation."""
    k = len(p)
    if k < 2:
        raise ValueError("need at least two components")
    weights = p.tolist()  # the scalar sums run on Python floats, to the same bits
    if any(map(MIN_WEIGHT.__gt__, weights)):
        raise ValueError("degenerate simplex: all weights must exceed 1e-12")
    sq = np.sqrt(p)
    vectors = np.zeros((k - 1, k))
    vectors[0, 0] = -sq[1]
    vectors[0, 1] = sq[0]
    vectors[0] /= math.sqrt(weights[0] + weights[1])
    partial = weights[0]
    for s in range(1, k - 1):
        partial += weights[s]
        # raw vector: head entries -sqrt(p_j * p_{s+1}) / sqrt(partial), pivot sqrt(partial)
        head = -sq[: s + 1] * sq[s + 1] / math.sqrt(partial)
        vectors[s, : s + 1] = head
        vectors[s, s + 1] = math.sqrt(partial)
        vectors[s] /= math.sqrt(partial + weights[s + 1])
    return vectors


def build_basis(p: np.ndarray) -> OrthonormalBasis:
    """Orthonormal basis of the hyperplane orthogonal to ``sqrt(p)``.

    The s-th raw vector has entries ``-sqrt(p_j p_{s+1}) / sqrt(P_s)`` for
    ``j <= s``, ``sqrt(P_s)`` at position ``s+1`` and zeros beyond, where
    ``P_s`` is the partial sum of the first s weights (the first vector is
    ``(-sqrt(p_2), sqrt(p_1), 0, ...)``).  Raw vectors are normalised by
    ``sqrt(P_{s+1})``.
    """
    return OrthonormalBasis(vectors=basis_rows(np.asarray(p, dtype=float)))


def _unit_vector(angles: np.ndarray) -> np.ndarray:
    """Unit vector with nested spherical angles, one entry more than there are angles."""
    d = np.empty(len(angles) + 1)
    running = 1.0
    for j, angle in enumerate(angles):
        d[j] = running * math.cos(angle)
        running *= math.sin(angle)
    d[-1] = running
    return d


def _angles_from_unit_rows(rows: np.ndarray, full_circle: bool) -> np.ndarray:
    """Invert :func:`_unit_vector` on each row of ``rows`` (n, dim); ties at poles
    resolve to 0.  With ``full_circle`` a negative last angle moves up by ``2 pi``
    (a ``-0.0`` stays)."""
    n, dim = rows.shape
    angles = np.empty((n, dim - 1))
    tail_sq = np.cumsum(rows[:, ::-1] ** 2, axis=1)[:, ::-1]
    for j in range(dim - 2):
        angles[:, j] = np.arctan2(np.sqrt(tail_sq[:, j + 1]), rows[:, j])
    if dim >= 2:
        last = np.arctan2(rows[:, dim - 1], rows[:, dim - 2])
        if full_circle:
            last[last < 0] += 2 * math.pi
        angles[:, dim - 2] = last
    return angles


# The pieces of :func:`standard_arrays_from_angular` (and of the rate map); the
# cached targets of ``likelihood`` call them one by one, so their values match to the bit.


def _radius(phi_sq: float, phi_sign: int, k: int) -> float:
    # k = 2 has a signed radius
    return phi_sign * math.sqrt(phi_sq) if k == 2 else math.sqrt(phi_sq)


def _gamma(radius: float, varpi_direction: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return radius * (varpi_direction @ basis)


def _eta(phi_sq: float, xi_direction: np.ndarray) -> np.ndarray:
    return math.sqrt(1.0 - phi_sq) * xi_direction


def _over_sqrt_p(scale: float, v: np.ndarray, sqrt_p: np.ndarray) -> np.ndarray:
    return scale * v / sqrt_p


def _rates(lam: float, gamma: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return lam * gamma / weights


def _weight_pair(p1: float) -> np.ndarray:
    return np.array([p1, 1.0 - p1])


def _k2_angles(v: np.ndarray) -> tuple:
    """``(phi_sq, xi, log|d eta1_sq / d xi|)`` of a two-component scale simplex
    ``v = (phi_sq, eta1_sq, eta2_sq)``, where ``eta1_sq = (1 - phi_sq) cos^2 xi``."""
    phi_sq = float(v[0])
    xi = math.atan2(math.sqrt(v[2]), math.sqrt(v[1]))
    log_jacobian = math.log(2.0 * (1.0 - phi_sq) * math.cos(xi) * math.sin(xi))
    return phi_sq, np.array([xi]), log_jacobian


def _k2_simplex(phi_sq: float, xi: float) -> np.ndarray:
    """Inverse of :func:`_k2_angles`: the scale simplex ``v`` at ``phi_sq`` and ``xi``."""
    one_minus = 1.0 - phi_sq
    return np.array([phi_sq, one_minus * math.cos(xi) ** 2, one_minus * math.sin(xi) ** 2])


def gamma_from_angles(phi: float, varpi: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Location coordinates from radius and angles.

    ``gamma = phi * (cos(varpi_1) F_1 + sin(varpi_1)cos(varpi_2) F_2 + ...)``
    over the hyperplane basis ``F_s``.  For k = 2 there is no angle and
    ``gamma = phi * F_1`` with ``phi`` signed.  The output satisfies
    ``sum sqrt(p_i) gamma_i = 0`` and ``sum gamma_i^2 = phi^2``.
    """
    p = np.asarray(p, dtype=float)
    varpi = np.asarray(varpi, dtype=float)
    k = len(p)
    if len(varpi) != k - 2:
        raise ValueError(f"expected {k - 2} angles, got {len(varpi)}")
    if abs(phi) > 1 + CONSTRAINT_TOL:
        raise ValueError("|phi| must not exceed 1")
    return _gamma(phi, _unit_vector(varpi), basis_rows(p))


def angles_from_gamma(gamma: np.ndarray, p: np.ndarray) -> tuple[float, np.ndarray]:
    """Radius and angles of a location vector lying in the hyperplane.

    Returns ``(phi, varpi)`` with ``phi`` signed for k = 2 and nonnegative
    for k >= 3; angles come back in their canonical ranges.  Raises if the
    residual off the hyperplane exceeds 1e-8.
    """
    gamma = np.asarray(gamma, dtype=float)
    p = np.asarray(p, dtype=float)
    k = len(p)
    basis = basis_rows(p)
    coef = basis @ gamma
    residual = gamma - coef @ basis
    if math.sqrt(float(residual @ residual)) > HYPERPLANE_TOL:
        raise ValueError("gamma has a component off the hyperplane orthogonal to sqrt(p)")
    if k == 2:
        return float(coef[0]), np.empty(0)
    phi = float(np.linalg.norm(coef))
    if phi == 0.0:
        return 0.0, np.zeros(k - 2)
    return phi, _angles_from_unit_rows((coef / phi)[None, :], full_circle=True)[0]


def eta_from_angles(phi_sq: float, xi: np.ndarray) -> np.ndarray:
    """Nonnegative scale coordinates from the xi angles.

    ``eta_1 = r cos(xi_1)``, ``eta_i = r prod_{j<i} sin(xi_j) cos(xi_i)``,
    ``eta_k = r prod_{j<k} sin(xi_j)`` with ``r = sqrt(1 - phi_sq)``; the
    squared entries sum to ``1 - phi_sq``.
    """
    xi = np.asarray(xi, dtype=float)
    if not 0.0 <= phi_sq <= 1.0:
        raise ValueError("phi_sq must lie in [0, 1]")
    if np.any(xi < 0) or np.any(xi > math.pi / 2):
        raise ValueError("xi angles must lie in [0, pi/2]")
    return _eta(phi_sq, _unit_vector(xi))


def angles_from_eta(eta: np.ndarray, phi_sq: float) -> np.ndarray:
    """Invert :func:`eta_from_angles`; entries must be nonnegative.

    A zero radius (``phi_sq = 1``) and exact pole points return zero angles.
    """
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0):
        raise ValueError("eta entries must be nonnegative")
    r = math.sqrt(max(1.0 - phi_sq, 0.0))
    if r == 0.0 or not np.any(eta > 0):
        return np.zeros(len(eta) - 1)
    return _angles_from_unit_rows((eta / r)[None, :], full_circle=False)[0]


def standard_from_angular(g: GlobalMoments, p: np.ndarray, a: AngularCoords) -> StandardParams:
    """Full chain from anchored coordinates back to component parameters.

    The output's mixture moments reproduce ``(g.mu, g.sigma**2)`` to within
    1e-10 by construction.
    """
    locs, scales, weights = standard_arrays_from_angular(
        g.mu, g.sigma, np.asarray(p, dtype=float), a.phi_sq, a.phi_sign, a.varpi, a.xi
    )
    return StandardParams(family="gaussian", weights=weights, locs=locs, scales=scales)


def standard_arrays_from_angular(
    mu: float,
    sigma: float,
    p: np.ndarray,
    phi_sq: float,
    phi_sign: int,
    varpi: np.ndarray,
    xi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array version of :func:`standard_from_angular`.

    Returns ``(locs, scales, weights)`` without constructing parameter
    objects.  It checks what :func:`gamma_from_angles` and
    :func:`eta_from_angles` check, raising ``ValueError``: ``k - 2`` angles
    in ``varpi``, ``phi_sq`` in [0, 1] and every ``xi`` in [0, pi/2].  The
    weights, ``sigma`` and the number of ``xi`` angles are not checked, and
    boundary states (a zero eta entry) come through as zero scales for the
    caller to handle.
    """
    gamma = gamma_from_angles(_radius(phi_sq, phi_sign, len(p)), varpi, p)
    eta = eta_from_angles(phi_sq, xi)
    sqrt_p = np.sqrt(p)
    return mu + _over_sqrt_p(sigma, gamma, sqrt_p), _over_sqrt_p(sigma, eta, sqrt_p), p


def angular_from_standard(
    params: StandardParams,
) -> tuple[GlobalMoments, np.ndarray, AngularCoords]:
    """Invert :func:`standard_from_angular` starting from component parameters,
    anchored on the mixture's own moments."""
    mean, var = mixture_moments(params)
    g = GlobalMoments(mu=mean, sigma=math.sqrt(var))
    at = to_alpha_tau(params, g)
    ge = to_gamma_eta(at, params.weights)
    phi, varpi = angles_from_gamma(ge.gamma, params.weights)
    phi_sq = phi * phi
    sign = 1 if params.k >= 3 or phi >= 0 else -1
    xi = angles_from_eta(ge.eta, phi_sq)
    coords = AngularCoords(phi_sq=min(phi_sq, 1.0), varpi=varpi, xi=xi, phi_sign=sign)
    return g, params.weights, coords
