"""Moment-anchored reparameterisation of finite mixtures.

The package anchors a univariate mixture on its global mean and variance
(or mean rate), confines every other parameter to a compact set of simplex
and sphere coordinates, equips that set with weakly informative uniform
priors, and samples the resulting posteriors with adaptive
Metropolis-within-Gibbs kernels.  Numerical oracles verify that the
scale-invariant improper priors still yield proper posteriors at the
minimal sample sizes.
"""

from .params import (
    AlphaTau,
    AngularCoords,
    GammaEta,
    GaussianState,
    GlobalMoments,
    OrthonormalBasis,
    PoissonReparam,
    RateState,
    StandardParams,
)
from .transforms import (
    angles_from_eta,
    angles_from_gamma,
    angular_from_standard,
    build_basis,
    eta_from_angles,
    from_alpha_tau,
    gamma_from_angles,
    mixture_moments,
    standard_from_angular,
    to_alpha_tau,
    to_gamma_eta,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaTau",
    "AngularCoords",
    "GammaEta",
    "GaussianState",
    "GlobalMoments",
    "OrthonormalBasis",
    "PoissonReparam",
    "RateState",
    "StandardParams",
    "angles_from_eta",
    "angles_from_gamma",
    "angular_from_standard",
    "build_basis",
    "eta_from_angles",
    "from_alpha_tau",
    "gamma_from_angles",
    "mixture_moments",
    "standard_from_angular",
    "to_alpha_tau",
    "to_gamma_eta",
    "__version__",
]
