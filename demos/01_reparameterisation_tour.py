"""Tour of the moment-anchored coordinates on a two-component mixture.

Walks one mixture through every layer of the parameterisation: global
moments, standardised offsets, sphere coordinates, angles, and back.  The
offsets and sphere coordinates are computed here from the paper's formulas;
``angular_from_standard`` goes from the mixture to the angles in one call.
"""

import numpy as np

from mixanchor import (
    GlobalMoments,
    StandardParams,
    angular_from_standard,
    build_basis,
    mixture_moments,
    standard_from_angular,
)

params = StandardParams(
    family="gaussian",
    weights=[0.65, 0.35],
    locs=[-8.0, -0.5],
    scales=[2.0, 1.0],  # standard deviations, not variances
)
print("mixture: 0.65 N(-8, sd 2) + 0.35 N(-0.5, sd 1)")

mean, var = mixture_moments(params)
print(f"\nglobal moments: mean = {mean:.4f}, variance = {var:.6f}")

g = GlobalMoments(mu=mean, sigma=np.sqrt(var))
alpha = (params.locs - g.mu) / g.sigma
tau = params.scales / g.sigma
print(f"\nstandardised offsets alpha = {np.round(alpha, 5)}")
print(f"scale ratios         tau   = {np.round(tau, 5)}")
print(f"constraint sum p*alpha           = {params.weights @ alpha:+.2e}")
print(f"constraint sum p*(tau^2+alpha^2) = {params.weights @ (tau**2 + alpha**2):.15f}")

gamma = np.sqrt(params.weights) * alpha
eta = np.sqrt(params.weights) * tau
print(f"\nsphere coordinates gamma = {np.round(gamma, 5)}, eta = {np.round(eta, 5)}")
print(f"radius split: phi^2 = {np.sum(gamma**2):.5f} (location share of the unit norm)")
print(f"unit norm check: {np.sum(gamma**2) + np.sum(eta**2):.15f}")

basis = build_basis(params.weights)
print(f"\nhyperplane basis rows:\n{np.round(basis.vectors, 5)}")
print(f"orthogonal to sqrt(p): {basis.vectors @ np.sqrt(params.weights)}")

g2, p2, coords = angular_from_standard(params)
print(f"\nangular coordinates: phi_sq = {coords.phi_sq:.5f}, sign = {coords.phi_sign}, "
      f"xi = {np.round(coords.xi, 5)}")

back = standard_from_angular(g2, p2, coords)
print(f"\nround trip: locs {np.round(back.locs, 10)}, scales {np.round(back.scales, 10)}")
print(f"max abs error: {max(np.abs(back.locs - params.locs).max(), np.abs(back.scales - params.scales).max()):.2e}")
