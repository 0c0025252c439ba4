"""Propriety-oracle tests: closed forms, quadrature, Monte Carlo marginals."""

import math

import numpy as np
import pytest

from mixanchor import oracles
from mixanchor.oracles import (
    gaussian_pair_closed,
    gaussian_pair_quad,
    marginal_one_obs_mc,
    n1_divergence_probe,
)
from mixanchor.priors import PriorSpec


def random_pair_case(rng):
    ti, tj = rng.uniform(0.1, 2.0, 2)
    ai, aj = rng.uniform(-3.0, 3.0, 2)
    dx = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
    x1 = rng.uniform(-5.0, 5.0)
    pi_, pj_ = rng.dirichlet([1.0, 1.0])
    return pi_, pj_, ai, aj, ti, tj, x1, x1 - dx


class TestClosedForm:
    def test_equal_offsets_halve_the_bound(self):
        value = gaussian_pair_closed(0.5, 0.5, 0.7, 0.7, 1.0, 1.0, 0.0, 1.0)
        assert value == pytest.approx(0.125, abs=1e-12)

    def test_bounded_by_weight_product_over_gap(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pi_, pj_, ai, aj, ti, tj, x1, x2 = random_pair_case(rng)
            value = gaussian_pair_closed(pi_, pj_, ai, aj, ti, tj, x1, x2)
            assert 0.0 <= value <= pi_ * pj_ / abs(x1 - x2) + 1e-15

    def test_aligned_offsets_saturate_the_bound(self):
        # component offsets matching the observation gap leave the scale
        # integral essentially untruncated
        value = gaussian_pair_closed(0.4, 0.6, 3.0, -3.0, 0.1, 0.1, 1.0, 0.0)
        assert value == pytest.approx(0.24 / 1.0, rel=1e-12)

    def test_equal_observations_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            gaussian_pair_closed(0.5, 0.5, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0)


class TestQuadrature:
    def test_symmetric_case(self):
        result = gaussian_pair_quad(0.5, 0.5, 0.3, 0.3, 1.0, 0.7, 0.0, 1.0)
        assert result.value == pytest.approx(0.125, abs=1e-6)

    def test_scaling_divides_by_gap_factor(self):
        base = gaussian_pair_quad(0.4, 0.6, 0.5, -0.2, 0.8, 1.1, 1.0, 3.0)
        scaled = gaussian_pair_quad(0.4, 0.6, 0.5, -0.2, 0.8, 1.1, 2.0, 6.0)
        assert base.value / scaled.value == pytest.approx(2.0, rel=1e-9)

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            case = random_pair_case(rng)
            closed = gaussian_pair_closed(*case)
            quad = gaussian_pair_quad(*case)
            assert abs(quad.value - closed) < 1e-5 * closed

    def test_reports_truncation_failure(self, monkeypatch):
        # a z-window cut through the mass cannot settle
        monkeypatch.setattr(oracles, "_z_window", lambda *args: (0.0, 0.3))
        with pytest.raises(ArithmeticError, match="settle"):
            gaussian_pair_quad(0.5, 0.5, 2.0, -2.0, 0.4, 0.4, 1.0, 0.0)


class TestMarginalMonteCarlo:
    def test_poisson_matches_reciprocal_observation(self):
        est = marginal_one_obs_mc("poisson", 3, 3.0, n_mc=200_000, seed=7)
        assert abs(est.estimate - 1.0 / 3.0) < 3 * est.std_error
        assert est.std_error > 0

    def test_exponential_matches_reciprocal_observation(self):
        est = marginal_one_obs_mc("exponential", 2, 2.0, n_mc=200_000, seed=8)
        assert abs(est.estimate - 0.5) < 3 * est.std_error

    def test_estimate_does_not_depend_on_k(self):
        a = marginal_one_obs_mc("poisson", 2, 3.0, n_mc=200_000, seed=9)
        b = marginal_one_obs_mc("poisson", 5, 3.0, n_mc=200_000, seed=10)
        combined = math.hypot(a.std_error, b.std_error)
        assert abs(a.estimate - b.estimate) < 3 * combined

    def test_prior_choice_does_not_move_the_marginal(self):
        skewed = PriorSpec(alpha0=3.0, gamma_dirichlet_alpha=0.7)
        est = marginal_one_obs_mc("exponential", 4, 0.5, skewed, n_mc=200_000, seed=11)
        assert abs(est.estimate - 2.0) < 3 * est.std_error

    def test_bad_observations_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            marginal_one_obs_mc("poisson", 2, 0.5)
        with pytest.raises(ValueError, match="positive"):
            marginal_one_obs_mc("exponential", 2, -1.0)


class TestDivergenceProbe:
    def test_exact_values(self):
        assert n1_divergence_probe(math.e) == pytest.approx(2.0, abs=1e-15)
        assert n1_divergence_probe(math.e**2) == pytest.approx(4.0, abs=1e-14)

    def test_doubles_under_squaring(self):
        for L in (2.0, 7.0, 50.0):
            assert n1_divergence_probe(L * L) / n1_divergence_probe(L) == 2.0

    def test_unbounded_growth(self):
        values = [n1_divergence_probe(10.0**j) for j in range(1, 7)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_requires_expanding_interval(self):
        with pytest.raises(ValueError, match="L > 1"):
            n1_divergence_probe(0.5)
