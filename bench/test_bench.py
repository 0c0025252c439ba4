"""Tests of the benchmark's own estimators and checks.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from ess import bulk_ess, ess_geyer, rank_normalise  # noqa: E402


def ar1(rho: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) * math.sqrt(1.0 - rho * rho)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_ess_matches_ar1_closed_form(rho):
    n = 100_000
    expected = n * (1.0 - rho) / (1.0 + rho)
    estimate = ess_geyer(ar1(rho, n, seed=int(rho * 10)))
    assert abs(estimate / expected - 1.0) < 0.1


def test_bulk_ess_sums_chains_and_ignores_monotone_maps():
    chains = [ar1(0.7, 20_000, seed=s) for s in range(4)]
    expected = 4 * 20_000 * 0.3 / 1.7
    total = bulk_ess(chains)
    assert abs(total / expected - 1.0) < 0.1
    assert bulk_ess([np.exp(c) for c in chains]) == pytest.approx(total, rel=1e-12)


def test_rank_normalise_shares_tied_ranks():
    z = rank_normalise(np.array([3.0, 1.0, 3.0, 2.0]))
    assert z[0] == z[2]
    assert z[1] < z[3] < z[0]


# --------------------------------------------------------------------------
# log-posterior recomputation against states built by hand

X = np.array([0.3, -1.2, 2.5])


def normal_pdf(x, m, s):
    return math.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))


def test_k2_kernel_logpost_by_hand():
    mu, sigma, p1, phi_sq, eta1_sq, sign = 0.4, 1.7, 0.3, 0.36, 0.5, -1
    p = np.array([p1, 1.0 - p1])
    eta_sq = np.array([eta1_sq, 1.0 - phi_sq - eta1_sq])
    phi = sign * math.sqrt(phi_sq)
    gamma = np.array([-phi * math.sqrt(p[1]), phi * math.sqrt(p[0])])
    locs = mu + sigma * gamma / np.sqrt(p)
    scales = sigma * np.sqrt(eta_sq) / np.sqrt(p)
    loglik = sum(math.log(p[0] * normal_pdf(x, locs[0], scales[0])
                          + p[1] * normal_pdf(x, locs[1], scales[1])) for x in X)
    # Dirichlet(1, 1) and Beta(1, 1) densities are 1; the sign is a fair coin
    by_hand = (loglik - math.log(sigma) + math.log(0.5) - math.log(math.pi)
               - 0.5 * math.log(eta_sq[0]) - 0.5 * math.log(eta_sq[1]))
    got = checks.gaussian_k2_logpost(X, p, locs, scales, sigma, phi_sq)
    assert got == pytest.approx(by_hand, rel=1e-12)


def test_general_kernel_logpost_by_hand():
    p = np.array([0.2, 0.5, 0.3])
    locs = np.array([-2.0, 0.5, 3.0])
    scales = np.array([0.7, 1.1, 0.4])
    mu = float(p @ locs)
    sigma = math.sqrt(float(p @ (scales**2 + locs**2)) - mu * mu)
    phi_sq = float(p @ ((locs - mu) / sigma) ** 2)
    loglik = sum(math.log(sum(p[i] * normal_pdf(x, locs[i], scales[i]) for i in range(3)))
                 for x in X)
    # Dirichlet(1, 1, 1) density is 2! = 2; one angle on [0, 2 pi); two on [0, pi/2]
    by_hand = (loglik - math.log(sigma) + math.log(2.0) - math.log(2.0 * math.pi)
               + 2.0 * math.log(2.0 / math.pi))
    got = checks.gaussian_logpost(X, p, locs, scales, sigma, phi_sq)
    assert got == pytest.approx(by_hand, rel=1e-12)


def test_exponential_kernel_logpost_by_hand():
    x = np.abs(X) + 0.1
    lam, gamma, p = 2.2, np.array([0.25, 0.75]), np.array([0.6, 0.4])
    means = lam * gamma / p
    loglik = sum(math.log(sum(p[i] * math.exp(-v / means[i]) / means[i] for i in range(2)))
                 for v in x)
    by_hand = loglik - math.log(lam)  # both Dirichlet(1, 1) densities are 1
    assert checks.exponential_logpost(x, p, means, lam, gamma) == pytest.approx(by_hand, rel=1e-12)


def test_recomputation_agrees_with_the_program_targets():
    """The checks and the program compute one density; both are tested above."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    likelihood = pytest.importorskip("mixanchor.likelihood")
    sampler = pytest.importorskip("mixanchor.sampler")
    from mixanchor.priors import PriorSpec
    from mixanchor.transforms import standard_arrays_from_angular

    data = likelihood.Dataset(X)
    spec = PriorSpec()
    mu, sigma, p, phi_sq = 0.2, 1.3, np.array([0.2, 0.5, 0.3]), 0.4
    varpi, xi = np.array([1.1]), np.array([0.4, 1.2])
    locs, scales, _ = standard_arrays_from_angular(mu, sigma, p, phi_sq, 1, varpi, xi)
    program = likelihood._gaussian_logpost(data, spec, mu, sigma, p, phi_sq, 1, varpi, xi)
    ours = checks.gaussian_logpost(X, p, locs, scales, sigma, phi_sq)
    assert ours == pytest.approx(program, rel=1e-12)

    v = np.array([0.36, 0.5, 0.14])
    program = sampler._k2_logpost(data, spec, mu, sigma, 0.3, v, -1)
    p2 = np.array([0.3, 0.7])
    phi = -math.sqrt(v[0])
    locs = mu + sigma * np.array([-phi * math.sqrt(0.7), phi * math.sqrt(0.3)]) / np.sqrt(p2)
    scales = sigma * np.sqrt(v[1:]) / np.sqrt(p2)
    ours = checks.gaussian_k2_logpost(X, p2, locs, scales, sigma, v[0])
    assert ours == pytest.approx(program, rel=1e-12)
