"""Prior sampling, density, and prior-predictive quantile tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln

from mixanchor import GaussianState, GlobalMoments, mixture_moments, standard_from_angular
from mixanchor.params import MIN_WEIGHT
from mixanchor.priors import (
    PriorSpec,
    _log_beta,
    _log_dirichlet,
    log_prior,
    log_varpi_density,
    log_xi_density,
    mixture_normal_quantiles,
    prior_quantile_study,
    sample_prior,
    standard_arrays_from_draws,
)

SINGLE = PriorSpec(kind="single_uniform")
DOUBLE = PriorSpec(kind="double_uniform")


class TestSamplePrior:
    @pytest.mark.parametrize("spec", [SINGLE, DOUBLE])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_draws_anchor_moments_exactly(self, spec, k):
        draws = sample_prior(spec, k, "gaussian", 200, seed=42)
        for i in range(draws.n):
            params = standard_from_angular(
                GlobalMoments(mu=0.0, sigma=1.0), draws.weights[i], draws.coords(i)
            )
            mean, var = mixture_moments(params)
            assert abs(mean) < 1e-10
            assert abs(var - 1.0) < 1e-10

    def test_weight_symmetry(self):
        draws = sample_prior(DOUBLE, 2, "gaussian", 10**5, seed=0)
        p1 = draws.weights[:, 0]
        se = p1.std() / math.sqrt(len(p1))
        assert abs(p1.mean() - 0.5) < 3 * se

    def test_single_uniform_is_exchangeable_double_is_ordered(self):
        n = 20000
        stats_by_kind = {}
        for spec in (SINGLE, DOUBLE):
            draws = sample_prior(spec, 3, "gaussian", n, seed=7)
            locs, scales = standard_arrays_from_draws(draws)
            # per-component standardised offsets and scale ratios
            log_abs_alpha = np.log(np.abs(locs) + 1e-300)
            log_tau = np.log(scales + 1e-300)
            stats_by_kind[spec.kind] = (log_abs_alpha, log_tau)
        for stat_idx in (0, 1):
            single_stat = stats_by_kind["single_uniform"][stat_idx]
            ks = max(
                stats.ks_2samp(single_stat[:, i], single_stat[:, j]).statistic
                for i in range(3)
                for j in range(i + 1, 3)
            )
            assert ks < 0.025, f"single uniform should be exchangeable, KS={ks}"
        double_tau = stats_by_kind["double_uniform"][1]
        ks_double = max(
            stats.ks_2samp(double_tau[:, i], double_tau[:, j]).statistic
            for i in range(3)
            for j in range(i + 1, 3)
        )
        assert ks_double > 0.1, f"double uniform scale block should be ordered, KS={ks_double}"

    def test_single_uniform_moment_exchangeability(self):
        draws = sample_prior(SINGLE, 3, "gaussian", 20000, seed=3)
        locs, scales = standard_arrays_from_draws(draws)
        gamma = np.sqrt(draws.weights) * locs
        eta = np.sqrt(draws.weights) * scales
        for block in (gamma, eta, draws.weights):
            for moment in (block, block**2):
                means = moment.mean(axis=0)
                ses = moment.std(axis=0) / math.sqrt(moment.shape[0])
                for i in range(3):
                    for j in range(i + 1, 3):
                        se = math.hypot(ses[i], ses[j])
                        assert abs(means[i] - means[j]) < 4 * se

    @pytest.mark.parametrize("kind, k, scale_classes, loc_classes", [
        ("double_uniform", 3, "abb", "aaa"),
        ("double_uniform", 4, "abcc", "aabb"),
        ("single_uniform", 3, "aaa", "aaa"),
        ("single_uniform", 4, "aaaa", "aabb"),
    ])
    def test_label_asymmetry_of_the_prior(self, kind, k, scale_classes, loc_classes):
        # E[p s^2] and E[p loc^2] per component at (0, 1): components of one class
        # agree within 4 MCSE, components of different classes differ by over 10
        draws = sample_prior(PriorSpec(kind=kind), k, "gaussian", 20000, seed=11)
        locs, scales = standard_arrays_from_draws(draws)
        for values, classes in ((draws.weights * scales**2, scale_classes),
                                (draws.weights * locs**2, loc_classes)):
            for i, j in itertools.combinations(range(k), 2):
                diff = values[:, i] - values[:, j]
                z = abs(diff.mean()) / (diff.std(ddof=1) / math.sqrt(len(diff)))
                if classes[i] == classes[j]:
                    assert z < 4, (i, j, z)
                else:
                    assert z > 10, (i, j, z)

    def test_rate_family_draws(self):
        draws = sample_prior(DOUBLE, 4, "poisson", 500, seed=1)
        assert draws.gamma.shape == (500, 4)
        np.testing.assert_allclose(draws.gamma.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(draws.weights.sum(axis=1), 1.0, atol=1e-12)


def close_to_scipy(value, reference, *log_gamma_terms):
    """Within 1e-13 relative to the largest of |reference|, its log-gamma terms and 1."""
    scale = max(1.0, abs(reference), *(abs(t) for t in log_gamma_terms))
    return abs(value - reference) <= 1e-13 * scale


class TestLgammaFactors:
    """The prior factors, built on math.lgamma, against scipy."""

    @given(x=st.floats(1e-9, 1.0 - 1e-9), a=st.floats(1e-3, 1e4), b=st.floats(1e-3, 1e4))
    def test_beta(self, x, a, b):
        reference = float(stats.beta.logpdf(x, a, b))
        assert close_to_scipy(_log_beta(x, a, b), reference, gammaln(a + b),
                              (a - 1.0) * math.log(x), (b - 1.0) * math.log1p(-x))

    @given(k=st.integers(2, 9), alpha=st.floats(1e-2, 1e2), seed=st.integers(0, 2**32 - 1))
    def test_dirichlet(self, k, alpha, seed):
        x = np.random.default_rng(seed).dirichlet(np.ones(k))
        x = np.maximum(x, 2 * MIN_WEIGHT) / np.maximum(x, 2 * MIN_WEIGHT).sum()
        reference = float(gammaln(k * alpha) - k * gammaln(alpha)
                          + (alpha - 1.0) * np.sum(np.log(x)))
        assert close_to_scipy(_log_dirichlet(x, alpha), reference, gammaln(k * alpha))

    @given(k=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_single_uniform_xi(self, k, seed):
        xi = np.random.default_rng(seed).uniform(1e-3, math.pi / 2 - 1e-3, k - 1)
        m = k - 1
        exponents = 2.0 * (m - 1 - np.arange(m)) + 1.0
        reference = float(gammaln(k) + m * math.log(2.0) + np.sum(exponents * np.log(np.sin(xi)))
                          + np.sum(np.log(np.cos(xi))))
        assert close_to_scipy(log_xi_density(SINGLE, xi, k), reference)


class TestLogPrior:
    def _state(self, rng, k=2, sigma=1.0):
        draws = sample_prior(DOUBLE, k, "gaussian", 1, seed=rng)
        return draws.state(0, mu=0.0, sigma=sigma)

    def test_flat_hyperparameters_leave_only_scale_term(self):
        values = []
        for seed in range(20):
            state = self._state(seed, k=3, sigma=1.0)
            values.append(log_prior(DOUBLE, state))
        # every proper factor is uniform, so the density is constant
        assert np.ptp(values) < 1e-12

    def test_doubling_sigma_subtracts_log_two(self):
        state = self._state(0, k=2, sigma=1.0)
        doubled = GaussianState(
            mu=state.mu, sigma=2.0, weights=state.weights, coords=state.coords
        )
        assert log_prior(DOUBLE, state) - log_prior(DOUBLE, doubled) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_out_of_support_angle_has_zero_density(self):
        assert log_xi_density(DOUBLE, np.array([math.pi]), k=2) == -math.inf
        assert log_xi_density(SINGLE, np.array([-0.1, 0.2]), k=3) == -math.inf
        assert log_varpi_density(np.array([7.0]), k=3) == -math.inf

    @pytest.mark.parametrize("kind", ["single_uniform", "double_uniform"])
    def test_compact_block_density_is_normalised(self, kind):
        # Monte Carlo integral of the proper factors over the k = 2 block
        spec = PriorSpec(kind=kind, alpha0=2.0, phi_beta=(2.0, 3.0))
        rng = np.random.default_rng(11)
        n = 60_000
        p1 = rng.uniform(size=n)
        phi_sq = rng.uniform(size=n)
        xi = rng.uniform(0, math.pi / 2, size=n)
        log_g = math.log(2.0 / math.pi) + math.log(0.5)  # proposal density incl. sign
        total = 0.0
        total_sq = 0.0
        for i in range(n):
            state = GaussianState(
                mu=0.0,
                sigma=1.0,
                weights=np.array([p1[i], 1 - p1[i]]),
                coords=__import__("mixanchor").AngularCoords(
                    phi_sq=phi_sq[i], varpi=[], xi=[xi[i]], phi_sign=int(rng.choice([-1, 1]))
                ),
            )
            ratio = math.exp(log_prior(spec, state) - log_g)  # sigma term is zero at 1.0
            total += ratio
            total_sq += ratio * ratio
        est = total / n
        se = math.sqrt(max(total_sq / n - est**2, 0.0) / n)
        assert abs(est - 1.0) < max(0.05, 3 * se)

    def test_degenerate_weights_rejected(self):
        state = self._state(0, k=2)
        squeezed = GaussianState(
            mu=0.0,
            sigma=1.0,
            weights=np.array([1.0 - 1e-13, 1e-13]),
            coords=state.coords,
        )
        assert log_prior(DOUBLE, squeezed) == -math.inf

    @pytest.mark.parametrize("k", [3, 5])
    def test_single_uniform_density_matches_its_sampler(self, k):
        # importance identity: flat-angle draws reweighted by the
        # single-uniform density must integrate to one and reproduce the
        # single-uniform sampler's angle moments
        rng = np.random.default_rng(13)
        n = 60000
        xi_flat = rng.uniform(0, math.pi / 2, size=(n, k - 1))
        log_flat = (k - 1) * math.log(2.0 / math.pi)
        w = np.array(
            [math.exp(log_xi_density(SINGLE, row, k) - log_flat) for row in xi_flat]
        )
        assert w.mean() == pytest.approx(1.0, abs=4 * w.std() / math.sqrt(n))
        draws = sample_prior(SINGLE, k, "gaussian", n, seed=14)
        for j in range(k - 1):
            direct = draws.xi[:, j].mean()
            weighted = float(np.mean(w * xi_flat[:, j]))
            se = math.hypot(
                draws.xi[:, j].std() / math.sqrt(n),
                np.std(w * xi_flat[:, j]) / math.sqrt(n),
            )
            assert abs(direct - weighted) < 4 * se


class TestQuantileStudy:
    def test_collapsed_mixture_has_zero_median(self):
        # all components equal to N(0, 1)
        weights = np.array([[0.3, 0.7]])
        locs = np.zeros((1, 2))
        scales = np.ones((1, 2))
        q = mixture_normal_quantiles(weights, locs, scales, [0.5])
        assert abs(q[0, 0]) < 1e-7

    def test_standard_normal_quantiles_recovered(self):
        weights = np.array([[0.5, 0.5]])
        locs = np.zeros((1, 2))
        scales = np.ones((1, 2))
        q = mixture_normal_quantiles(weights, locs, scales, [0.025, 0.5, 0.99])
        expected = stats.norm.ppf([0.025, 0.5, 0.99])
        np.testing.assert_allclose(q[0], expected, atol=1e-7)

    @pytest.mark.parametrize("spec", [SINGLE, DOUBLE])
    def test_median_of_medians_is_central(self, spec):
        table = prior_quantile_study(spec, 3, 2000, [0.5], seed=5)
        med = float(np.median(table[:, 0]))
        assert np.isfinite(med)
        assert -1.0 < med < 1.0

    def test_bad_levels_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            prior_quantile_study(DOUBLE, 3, 10, [0.0, 0.5])
