"""Parameter containers for moment-anchored mixture models.

A univariate mixture ``sum_i p_i f_i(x | theta_i)`` is re-expressed around
its global mean ``mu`` and global standard deviation ``sigma`` (location-scale
families) or around its global mean ``lam`` (rate families).  Once the global
moments are fixed, every remaining parameter lives in a compact set:

* standardised offsets   ``alpha_i = (mu_i - mu) / sigma``
* scale ratios           ``tau_i   = sigma_i / sigma``
* sphere coordinates     ``gamma_i = sqrt(p_i) * alpha_i``,
                         ``eta_i   = sqrt(p_i) * tau_i``

subject to ``sum_i p_i alpha_i = 0`` and ``sum_i p_i (tau_i^2 + alpha_i^2) = 1``,
equivalently ``sum_i sqrt(p_i) gamma_i = 0`` and
``sum_i (gamma_i^2 + eta_i^2) = 1``.  The squared radius ``phi_sq`` splits the
unit norm between the location block (``sum gamma_i^2 = phi_sq``) and the
scale block (``sum eta_i^2 = 1 - phi_sq``).  The offsets, ratios and sphere
coordinates are intermediate arrays of :mod:`mixanchor.transforms`; the
containers here hold the two ends of the map and the sampler states.

All containers are frozen; arrays are copied in and marked read-only, so
instances are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("gaussian", "poisson", "exponential")

#: tolerance for simplex-sum and basis-orthogonality identities
ALGEBRA_TOL = 1e-12
#: tolerance for constraint identities accumulated through transforms
CONSTRAINT_TOL = 1e-10
#: weights below this are treated as a degenerate simplex by the transforms
MIN_WEIGHT = 1e-12


def _frozen_vector(x, name: str) -> np.ndarray:
    try:
        arr = np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name} must be a 1-d sequence of numbers, got {x!r}") from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d sequence, got shape {arr.shape}")
    if any(isinstance(value, (bool, np.bool_)) for value in np.asarray(x, dtype=object)):
        raise ValueError(f"{name} must hold numbers, not booleans, got {x!r}")
    arr.flags.writeable = False
    return arr


def check_simplex(weights: np.ndarray, name: str = "weights", tol: float = ALGEBRA_TOL) -> None:
    """Raise unless ``weights`` is nonnegative and sums to one within ``tol``."""
    if not np.all(weights >= 0):
        raise ValueError(f"{name} must be nonnegative")
    total = float(np.sum(weights))
    if abs(total - 1.0) > tol:
        raise ValueError(f"{name} must sum to 1 within {tol:g}, got {total!r}")


@dataclass(frozen=True)
class StandardParams:
    """A mixture in its familiar component-wise parameterisation.

    ``locs`` holds component means (Gaussian) or component mean rates
    (Poisson / exponential).  ``scales`` holds component *standard
    deviations* and is required for the Gaussian family only.  Note the
    convention: a component written as ``N(-8, 2)`` has standard deviation
    2, not variance 2.
    """

    family: str
    weights: np.ndarray
    locs: np.ndarray
    scales: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "weights", _frozen_vector(self.weights, "weights"))
        object.__setattr__(self, "locs", _frozen_vector(self.locs, "locs"))
        check_simplex(self.weights)
        if self.k < 2:
            raise ValueError("a mixture needs at least two components")
        if len(self.locs) != self.k:
            raise ValueError("locs length must match weights length")
        if self.family == "gaussian":
            if self.scales is None:
                raise ValueError("gaussian mixtures require component scales")
            object.__setattr__(self, "scales", _frozen_vector(self.scales, "scales"))
            if len(self.scales) != self.k:
                raise ValueError("scales length must match weights length")
            if not np.all(self.scales > 0):
                raise ValueError("component scales must be strictly positive")
            if not np.all(np.isfinite(self.scales)):
                raise ValueError(f"scales must be finite, got {self.scales.tolist()}")
        else:
            if self.scales is not None:
                raise ValueError(f"{self.family} mixtures carry no scales")
            if not np.all(self.locs > 0):
                raise ValueError("component rates must be strictly positive")
        if not np.all(np.isfinite(self.locs)):
            raise ValueError(f"locs must be finite, got {self.locs.tolist()}")

    @property
    def k(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class GlobalMoments:
    """Global mean / scale of the whole mixture, the only unbounded parameters.

    Location-scale families use ``(mu, sigma)`` with ``sigma`` the mixture
    standard deviation; rate families use ``lam``, the mixture mean.
    """

    mu: float | None = None
    sigma: float | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("sigma must be strictly positive")
        if self.lam is not None and not self.lam > 0:
            raise ValueError("lam must be strictly positive")
        if self.sigma is None and self.lam is None:
            raise ValueError("provide either (mu, sigma) or lam")
        if self.sigma is not None and self.mu is None:
            raise ValueError("mu is required alongside sigma")


@dataclass(frozen=True)
class AngularCoords:
    """Compact coordinates of the component block.

    ``phi_sq`` is the squared radius in [0, 1].  ``varpi`` are the k-2
    angles steering the location direction inside the hyperplane orthogonal
    to ``sqrt(p)`` (first k-3 in [0, pi], last in [0, 2*pi]; for k = 3 the
    single angle spans [0, 2*pi]).  ``xi`` are the k-1 angles of the
    nonnegative scale block, each in [0, pi/2].

    For k = 2 there is no varpi angle and the location direction only has a
    sign left; ``phi_sign`` carries it, so the signed radius is
    ``phi_sign * sqrt(phi_sq)``.  For k >= 3 ``phi_sign`` is fixed at +1.
    """

    phi_sq: float
    varpi: np.ndarray
    xi: np.ndarray
    phi_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "varpi", _frozen_vector(self.varpi, "varpi"))
        object.__setattr__(self, "xi", _frozen_vector(self.xi, "xi"))
        object.__setattr__(self, "phi_sq", float(self.phi_sq))
        object.__setattr__(self, "phi_sign", int(self.phi_sign))
        if not 0.0 <= self.phi_sq <= 1.0:
            raise ValueError("phi_sq must lie in [0, 1]")
        if self.phi_sign not in (-1, 1):
            raise ValueError("phi_sign must be -1 or +1")
        k = self.k
        if k < 2:
            raise ValueError("need at least two components")
        if len(self.varpi) != k - 2:
            raise ValueError(f"expected {k - 2} varpi angles, got {len(self.varpi)}")
        if k >= 3 and self.phi_sign != 1:
            raise ValueError("phi_sign is only meaningful for k = 2")
        if np.any(self.xi < 0) or np.any(self.xi > math.pi / 2):
            raise ValueError("xi angles must lie in [0, pi/2]")
        if k > 3:
            if np.any(self.varpi[:-1] < 0) or np.any(self.varpi[:-1] > math.pi):
                raise ValueError("leading varpi angles must lie in [0, pi]")
        if k >= 3:
            if not 0 <= self.varpi[-1] <= 2 * math.pi:
                raise ValueError("last varpi angle must lie in [0, 2*pi]")

    @property
    def k(self) -> int:
        return len(self.xi) + 1

    @property
    def radius(self) -> float:
        """Signed radius: ``phi_sign * sqrt(phi_sq)`` (sign only for k = 2)."""
        return self.phi_sign * math.sqrt(self.phi_sq)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal basis of the hyperplane orthogonal to ``sqrt(p)``.

    ``vectors`` has shape (k-1, k); rows are pairwise orthonormal and each is
    orthogonal to ``(sqrt(p_1), ..., sqrt(p_k))``.
    """

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.array(self.vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] - 1:
            raise ValueError("basis must have shape (k-1, k)")
        gram = arr @ arr.T
        if np.max(np.abs(gram - np.eye(arr.shape[0]))) > ALGEBRA_TOL:
            raise ValueError("basis rows are not orthonormal")
        arr.flags.writeable = False
        object.__setattr__(self, "vectors", arr)

    @property
    def k(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class PoissonReparam:
    """Rate-family coordinates: global mean ``lam`` plus simplex ``gamma``.

    Component mean rates are ``lam * gamma_i / p_i``; they average back to
    ``lam`` under the weights.  Used for both Poisson and exponential
    mixtures (the exponential components are mean-parameterised).
    """

    lam: float
    gamma: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "gamma", _frozen_vector(self.gamma, "gamma"))
        object.__setattr__(self, "weights", _frozen_vector(self.weights, "weights"))
        if not self.lam > 0:
            raise ValueError("lam must be strictly positive")
        if len(self.gamma) != len(self.weights):
            raise ValueError("gamma and weights must have equal length")
        check_simplex(self.gamma, "gamma")
        check_simplex(self.weights)
        if np.any(self.weights < MIN_WEIGHT):
            raise ValueError("weights too close to the simplex boundary")
        if np.any(self.rates <= 0):
            raise ValueError("implied component rates must be strictly positive")

    @property
    def k(self) -> int:
        return len(self.gamma)

    @property
    def rates(self) -> np.ndarray:
        return self.lam * self.gamma / self.weights


@dataclass(frozen=True)
class GaussianState:
    """One point of the Gaussian posterior in anchored coordinates."""

    mu: float
    sigma: float
    weights: np.ndarray
    coords: AngularCoords

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_vector(self.weights, "weights"))
        if not self.sigma > 0:
            raise ValueError("sigma must be strictly positive")
        check_simplex(self.weights, tol=1e-9)
        if len(self.weights) != self.coords.k:
            raise ValueError("weights length must match the angular coordinates")

    @property
    def k(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class RateState:
    """One point of a Poisson or exponential posterior."""

    family: str
    lam: float
    gamma: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.family not in ("poisson", "exponential"):
            raise ValueError(f"unsupported rate family {self.family!r}")
        object.__setattr__(self, "gamma", _frozen_vector(self.gamma, "gamma"))
        object.__setattr__(self, "weights", _frozen_vector(self.weights, "weights"))

    @property
    def k(self) -> int:
        return len(self.weights)
