"""Log-likelihood and log-posterior tests against naive-density oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from mixanchor import (
    GaussianState,
    GlobalMoments,
    PoissonReparam,
    RateState,
    StandardParams,
    angular_from_standard,
)
from mixanchor.likelihood import (
    Dataset,
    _gaussian_logpost,
    _mixture_loglik,
    _rate_logpost,
    _sort_rows,
    _sum_terms,
    log_posterior,
    loglik_exponential,
    loglik_exponential_arrays,
    loglik_gaussian,
    loglik_gaussian_arrays,
    loglik_poisson,
    loglik_poisson_arrays,
)
from mixanchor.params import check_simplex
from mixanchor.priors import PriorSpec, log_prior, sample_prior


def naive_gaussian_loglik(x, params):
    # deliberately unstabilised: plain density sums, valid at moderate scales
    total = 0.0
    for xi in x:
        dens = 0.0
        for p, m, s in zip(params.weights, params.locs, params.scales):
            dens += p * math.exp(-0.5 * ((xi - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        total += math.log(dens)
    return total


def naive_poisson_loglik(x, r):
    rates = r.rates
    total = 0.0
    for xi in x:
        dens = 0.0
        for p, lam in zip(r.weights, rates):
            dens += p * lam**xi * math.exp(-lam) / math.factorial(int(xi))
        total += math.log(dens)
    return total


def naive_exponential_loglik(x, r):
    means = r.rates
    total = 0.0
    for xi in x:
        dens = sum(p / m * math.exp(-xi / m) for p, m in zip(r.weights, means))
        total += math.log(dens)
    return total


class TestGaussian:
    def test_degenerate_weight_reduces_to_single_normal(self):
        params = StandardParams("gaussian", [1.0, 0.0], [2.0, 50.0], [1.5, 3.0])
        x = np.array([1.0, 2.5, -0.5])
        expected = float(np.sum(stats.norm.logpdf(x, 2.0, 1.5)))
        assert loglik_gaussian(Dataset(x), params) == pytest.approx(expected, abs=1e-12)

    def test_collapsed_components_at_origin(self):
        params = StandardParams("gaussian", [0.5, 0.5], [0.0, 0.0], [1.0, 1.0])
        value = loglik_gaussian(Dataset([0.0]), params)
        assert value == pytest.approx(-0.9189385332046727, abs=1e-10)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = 3
            p = rng.dirichlet(np.ones(k))
            params = StandardParams(
                "gaussian", p, rng.normal(0, 2, k), np.exp(rng.normal(0, 0.3, k))
            )
            x = rng.normal(0, 2, size=5)
            ours = loglik_gaussian(Dataset(x), params)
            oracle = naive_gaussian_loglik(x, params)
            assert ours == pytest.approx(oracle, abs=1e-12)

    def test_component_permutation_is_bit_exact(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(4))
        params = StandardParams(
            "gaussian", p, rng.normal(0, 3, 4), np.exp(rng.normal(0, 0.4, 4))
        )
        x = rng.normal(0, 3, size=20)
        perm = np.array([2, 0, 3, 1])
        permuted = StandardParams(
            "gaussian", p[perm], params.locs[perm], params.scales[perm]
        )
        assert loglik_gaussian(Dataset(x), params) == loglik_gaussian(
            Dataset(x), permuted
        )

    def test_block_additivity(self):
        rng = np.random.default_rng(4)
        params = StandardParams("gaussian", [0.4, 0.6], [-1.0, 2.0], [1.0, 0.5])
        x = rng.normal(0, 1, size=40)
        whole = loglik_gaussian(Dataset(x), params)
        split = loglik_gaussian(Dataset(x[:17]), params) + loglik_gaussian(
            Dataset(x[17:]), params
        )
        assert whole == pytest.approx(split, abs=1e-12)

    def test_extreme_observation_stays_finite(self):
        params = StandardParams("gaussian", [0.5, 0.5], [0.0, 5.0], [1.0, 1.0])
        value = loglik_gaussian(Dataset([1e8]), params)
        assert np.isfinite(value)
        assert value < -1e10


class TestPoisson:
    def test_equal_rates_reduce_to_single_poisson(self):
        r = PoissonReparam(lam=3.2, gamma=[0.3, 0.7], weights=[0.3, 0.7])
        x = np.array([0.0, 2.0, 5.0, 1.0])
        expected = float(np.sum(stats.poisson.logpmf(x, 3.2)))
        assert loglik_poisson(Dataset(x), r) == pytest.approx(expected, abs=1e-12)

    def test_two_rate_mixture_at_zero(self):
        # rates work out to (1, 5) under weights (0.6, 0.4)
        r = PoissonReparam(lam=2.6, gamma=[0.2308, 0.7692], weights=[0.6, 0.4])
        value = loglik_poisson(Dataset([0.0]), r)
        oracle = naive_poisson_loglik([0.0], r)
        assert oracle == pytest.approx(-1.4988184553864272, abs=1e-9)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            p = rng.dirichlet(np.full(k, 5.0))
            g = rng.dirichlet(np.full(k, 5.0))
            r = PoissonReparam(lam=float(rng.uniform(0.5, 6.0)), gamma=g, weights=p)
            x = rng.poisson(2.0, size=6).astype(float)
            assert loglik_poisson(Dataset(x), r) == pytest.approx(
                naive_poisson_loglik(x, r), abs=1e-12
            )

    def test_noninteger_data_rejected(self):
        r = PoissonReparam(lam=1.0, gamma=[0.5, 0.5], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="integer"):
            loglik_poisson(Dataset([1.5]), r)


class TestExponential:
    def test_equal_means_reduce_to_single_exponential(self):
        r = PoissonReparam(lam=2.0, gamma=[0.4, 0.6], weights=[0.4, 0.6])
        x = np.array([0.3, 1.2, 4.0])
        expected = float(np.sum(stats.expon.logpdf(x, scale=2.0)))
        assert loglik_exponential(Dataset(x), r) == pytest.approx(expected, abs=1e-12)

    def test_unit_mean_collapse(self):
        r = PoissonReparam(lam=1.0, gamma=[0.5, 0.5], weights=[0.5, 0.5])
        assert loglik_exponential(Dataset([1.0]), r) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = rng.dirichlet([4.0, 4.0])
            g = rng.dirichlet([4.0, 4.0])
            r = PoissonReparam(lam=float(rng.uniform(0.5, 4.0)), gamma=g, weights=p)
            x = rng.exponential(1.5, size=6)
            assert loglik_exponential(Dataset(x), r) == pytest.approx(
                naive_exponential_loglik(x, r), abs=1e-12
            )

    def test_nonpositive_data_rejected(self):
        r = PoissonReparam(lam=1.0, gamma=[0.5, 0.5], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="positive"):
            loglik_exponential(Dataset([0.0, 1.0]), r)

    def test_log_factorials_only_on_the_poisson_path(self):
        # exponential data never use log(x!); only a Poisson likelihood computes them
        r = PoissonReparam(lam=2.0, gamma=[0.4, 0.6], weights=[0.4, 0.6])
        data = Dataset([1.0, 3.0, 3.0, 7.0])
        loglik_exponential(data, r)
        assert "_log_factorials" not in vars(data)
        loglik_poisson(data, r)
        assert vars(data)["_log_factorials"] == pytest.approx([0.0, math.log(6.0), math.log(5040.0)],
                                                             rel=1e-15, abs=1e-15)


class TestLogPosterior:
    SPEC = PriorSpec()

    def _example_data(self):
        rng = np.random.default_rng(99)
        comp = rng.choice(2, size=50, p=[0.65, 0.35])
        x = rng.normal(np.array([-8.0, -0.5])[comp], np.array([2.0, 1.0])[comp])
        return Dataset(x)

    def test_out_of_support_state(self):
        data = Dataset([1.0, 2.0])
        state = RateState(family="poisson", lam=-1.0, gamma=np.array([0.5, 0.5]),
                          weights=np.array([0.5, 0.5]))
        assert log_posterior(data, self.SPEC, state) == -math.inf

    def test_finite_for_prior_draws(self):
        data = self._example_data()
        draws = sample_prior(self.SPEC, 2, "gaussian", 200, seed=12)
        mu = float(data.values.mean())
        sigma = float(data.values.std())
        for i in range(draws.n):
            value = log_posterior(data, self.SPEC, draws.state(i, mu=mu, sigma=sigma))
            assert np.isfinite(value)

    def test_loglik_symmetry_under_component_relabelling(self):
        data = self._example_data()
        params = StandardParams("gaussian", [0.65, 0.35], [-8.0, -0.5], [2.0, 1.0])
        swapped = StandardParams("gaussian", [0.35, 0.65], [-0.5, -8.0], [1.0, 2.0])
        assert loglik_gaussian(data, params) == loglik_gaussian(data, swapped)

    def test_angular_state_consistency(self):
        # the angular-coordinate posterior equals prior + likelihood of the
        # recovered standard parameters
        data = self._example_data()
        params = StandardParams("gaussian", [0.65, 0.35], [-8.0, -0.5], [2.0, 1.0])
        g, p, coords = angular_from_standard(params)
        state = GaussianState(mu=g.mu, sigma=g.sigma, weights=p, coords=coords)
        value = log_posterior(data, self.SPEC, state)
        from mixanchor.priors import log_prior

        expected = log_prior(self.SPEC, state) + loglik_gaussian(data, params)
        assert value == pytest.approx(expected, abs=1e-9)


def sorted_reference_loglik(log_terms, counts=None):
    """Sort-based aggregation over an (n, k) array, the reference for the network."""
    ordered = np.sort(log_terms, axis=1)
    shift = ordered[:, -1]
    if not np.all(np.isfinite(shift)):
        return -math.inf
    per_obs = shift + np.log1p(np.sum(np.exp(ordered[:, :-1] - shift[:, None]), axis=1))
    if counts is None:
        return float(np.sum(per_obs))
    return float(counts @ per_obs)


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (
        math.isnan(a) and math.isnan(b)
    )


def aggregate_both(terms, counts):
    """Reference on the (n, k) array and the network on its (k, n) rows."""
    with np.errstate(all="ignore"):
        ref = sorted_reference_loglik(terms, counts)
        ours = _mixture_loglik(np.ascontiguousarray(terms.T), counts)
    return ref, ours


@st.composite
def term_matrices(draw):
    """(n, k) log-term arrays with ties, zero weights, NaNs and extreme scales."""
    k = draw(st.integers(2, 12))
    n = draw(st.integers(1, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([-300, -5, 0, 2, 300]))
    terms = rng.normal(0.0, 1.0, (n, k)) * scale
    if draw(st.booleans()):  # tied components
        terms[:, rng.integers(k)] = terms[:, rng.integers(k)]
    if draw(st.booleans()):  # tied values inside rows
        terms = np.round(terms / scale) * scale
    if draw(st.booleans()):  # zero weights
        terms[:, rng.integers(k)] = -math.inf
    special = draw(st.sampled_from([None, -math.inf, math.nan, math.inf]))
    if special is not None:
        terms[rng.random((n, k)) < 0.01] = special
    counts = rng.integers(1, 6, n).astype(float) if draw(st.booleans()) else None
    return terms, counts


class TestAggregation:
    @settings(max_examples=300, deadline=None)
    @given(term_matrices())
    def test_network_matches_sorted_reference(self, case):
        terms, counts = case
        ref, ours = aggregate_both(terms, counts)
        assert same_float(ours, ref)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda k: arrays(
                np.float64,
                st.tuples(st.integers(1, 6), st.just(k)),
                elements=st.floats(allow_nan=True, allow_infinity=True),
            )
        ),
        st.booleans(),
    )
    def test_arbitrary_floats_match_sorted_reference(self, terms, with_counts):
        counts = np.arange(1.0, len(terms) + 1.0) if with_counts else None
        ref, ours = aggregate_both(terms, counts)
        assert same_float(ours, ref)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_network_sorts_every_permutation(self, k):
        columns = np.array(list(itertools.permutations(range(k))), dtype=float).T
        expected = np.sort(columns, axis=0)
        _sort_rows(columns)
        assert np.array_equal(columns, expected)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_network_matches_np_sort_bits_with_ties_and_infinities(self, k):
        rng = np.random.default_rng(k)
        columns = rng.choice([-math.inf, -2.5, -1.0, 0.5, 0.5, 3.0, 1e300, math.inf],
                             size=(k, 4000))
        columns[:, :2000] = rng.normal(0.0, 1.0, (k, 2000))
        expected = np.sort(columns, axis=0)
        _sort_rows(columns)
        assert columns.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", range(2, 10))
    def test_network_moves_a_nan_to_the_last_row(self, k):
        # one NaN per column, at every row, among tied and distinct values
        rng = np.random.default_rng(k)
        columns = np.round(rng.normal(0.0, 1.0, (k, 6 * k)))
        has_nan = np.zeros(6 * k, dtype=bool)
        for row in range(k):
            columns[row, 6 * row : 6 * row + 3] = math.nan
            has_nan[6 * row : 6 * row + 3] = True
        expected = np.sort(columns, axis=0)
        _sort_rows(columns)
        assert np.array_equal(np.isnan(columns[-1]), has_nan)
        assert np.array_equal(np.isnan(expected[-1]), has_nan)
        assert np.array_equal(columns[:, ~has_nan], expected[:, ~has_nan])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_row_sum_matches_numpy_pairwise_sum(self, m, n, seed):
        # the parent layout: observations by rows, the summed terms contiguous
        terms = np.exp(np.random.default_rng(seed).normal(0.0, 3.0, (n, m)))
        expected = np.sum(terms, axis=1)
        assert np.array_equal(_sum_terms(np.ascontiguousarray(terms.T)), expected)


@st.composite
def permuted_mixtures(draw):
    k = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.dirichlet(np.full(k, 2.0))
    if draw(st.booleans()):
        weights[rng.integers(k)] = 0.0
        weights /= weights.sum()
    return k, rng, weights, rng.permutation(k)


class TestPermutationInvariance:
    @settings(max_examples=60, deadline=None)
    @given(permuted_mixtures())
    def test_gaussian(self, case):
        k, rng, w, perm = case
        locs, scales = rng.normal(0.0, 3.0, k), np.exp(rng.normal(0.0, 0.5, k))
        x = rng.normal(0.0, 4.0, int(rng.integers(1, 300)))
        assert loglik_gaussian_arrays(x, w, locs, scales) == loglik_gaussian_arrays(
            x, w[perm], locs[perm], scales[perm]
        )

    @settings(max_examples=60, deadline=None)
    @given(permuted_mixtures())
    def test_poisson(self, case):
        k, rng, w, perm = case
        rates = np.exp(rng.normal(1.0, 1.0, k))
        data = Dataset(rng.poisson(3.0, int(rng.integers(1, 300))).astype(float))
        assert loglik_poisson_arrays(data, w, rates) == loglik_poisson_arrays(
            data, w[perm], rates[perm]
        )

    @settings(max_examples=60, deadline=None)
    @given(permuted_mixtures())
    def test_exponential(self, case):
        k, rng, w, perm = case
        means = np.exp(rng.normal(0.0, 1.0, k))
        data = Dataset(rng.exponential(2.0, int(rng.integers(1, 300))))
        assert loglik_exponential_arrays(data, w, means) == loglik_exponential_arrays(
            data, w[perm], means[perm]
        )


def test_overflowing_residual_is_minus_inf_without_warning():
    params = StandardParams("gaussian", [0.5, 0.5], [0.0, 1.0], [1e-10, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert loglik_gaussian(Dataset([0.0, 1e300]), params) == -math.inf


class TestNaNRejected:
    SPEC = PriorSpec()

    def _gaussian_state(self):
        params = StandardParams("gaussian", [0.65, 0.35], [-8.0, -0.5], [2.0, 1.0])
        g, p, coords = angular_from_standard(params)
        return GaussianState(mu=g.mu, sigma=g.sigma, weights=p, coords=coords)

    def test_gaussian_state_refuses_nan_sigma(self):
        coords = self._gaussian_state().coords
        with pytest.raises(ValueError, match="sigma"):
            GaussianState(mu=0.0, sigma=math.nan, weights=[0.8, 0.2], coords=coords)

    def test_poisson_reparam_refuses_nan_lam(self):
        with pytest.raises(ValueError, match="lam"):
            PoissonReparam(lam=math.nan, gamma=[0.5, 0.5], weights=[0.5, 0.5])

    def test_check_simplex_refuses_nan_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            check_simplex(np.array([math.nan, 1.0]))

    def test_log_prior_is_minus_inf_for_nan_globals(self):
        # GaussianState refuses a NaN sigma, so the field is overwritten afterwards
        gaussian = self._gaussian_state()
        object.__setattr__(gaussian, "sigma", math.nan)
        rate = RateState(family="poisson", lam=math.nan, gamma=[0.5, 0.5], weights=[0.5, 0.5])
        assert log_prior(self.SPEC, gaussian) == -math.inf
        assert log_prior(self.SPEC, rate) == -math.inf
        assert log_posterior(Dataset([1.0, 2.0]), self.SPEC, rate) == -math.inf

    def test_rate_logpost_is_minus_inf_for_nan(self):
        data = Dataset([1.0, 2.0, 4.0])
        half = np.array([0.5, 0.5])
        nan_pair = np.array([math.nan, 0.5])
        for lam, gamma, weights in [(math.nan, half, half), (1.0, nan_pair, half),
                                    (1.0, half, nan_pair)]:
            value = _rate_logpost(data, self.SPEC, "poisson", lam, gamma, weights)
            assert value == -math.inf

    def test_gaussian_logpost_is_minus_inf_for_nan(self):
        state = self._gaussian_state()
        c = state.coords
        data = Dataset([-8.0, -1.0, 0.5])
        for sigma, weights in [(math.nan, state.weights),
                               (state.sigma, np.array([math.nan, 1.0]))]:
            value = _gaussian_logpost(data, self.SPEC, state.mu, sigma, weights,
                                      c.phi_sq, c.phi_sign, c.varpi, c.xi)
            assert value == -math.inf
