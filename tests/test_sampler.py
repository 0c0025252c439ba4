"""Sampler mechanics: adaptation, proposal corrections, posteriors, diagnostics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mixanchor import AngularCoords, GaussianState, RateState, StandardParams, mixture_moments
from mixanchor.likelihood import Dataset, log_posterior
from mixanchor.postprocess import mcse_mean
from mixanchor.priors import PriorSpec
from mixanchor.sampler import (
    BATCH_SIZE,
    SCALAR_RATE,
    VECTOR_RATE,
    RunConfig,
    adapt_scales,
    gelman_rubin,
    mwg_exponential,
    mwg_gaussian,
    mwg_gaussian_k2,
    mwg_poisson,
    _Block,
    _beta_proposal,
    _dirichlet_proposal,
    _invgamma_proposal,
    _invgamma_sigma_proposal,
    _log_walk,
    _logit_walk,
    _mh_step,
    _simplex_log_ratio_walk,
)

from conftest import simulate_gaussian, simulate_poisson_model1, TWO_COMP_TRUTH


def reference_adapt_scales(scales, kinds, targets, batch_index, batch_rates):
    """One batch of the former bank update, ``adapt_scales``'s reference:
    returns the new ``(scales, batch_index)``."""
    b = batch_index + 1
    delta = min(0.01, b ** -0.5)
    scales = dict(scales)
    for name, rate in batch_rates.items():
        kind = kinds.get(name, "fixed")
        if kind == "fixed" or name not in scales:
            continue
        target = targets[name]
        if rate > target:
            move = delta if kind == "width" else -delta
        elif rate < target:
            move = -delta if kind == "width" else delta
        else:
            move = 0.0
        scales[name] = scales[name] * math.exp(move)
    return scales, b


# 12 of a batch's 50 flags meet the p target exactly; no count meets 0.234
BLOCKS = (
    _Block("mu", None, "width", 1.0, 0.44),
    _Block("p", None, "concentration", 100.0, 0.24),
    _Block("sigma", None),
)


def _accepts(t, **rates):
    """Flags for ``t`` sweeps; every batch accepts ``rates[name]`` (default 1/2) of a block's moves."""
    accepts = {}
    for block in BLOCKS:
        hits = round(rates.get(block.name, 0.5) * BATCH_SIZE)
        batch = np.array([1] * hits + [0] * (BATCH_SIZE - hits), dtype=np.uint8)
        accepts[block.name] = np.tile(batch, t // BATCH_SIZE)
    return accepts


def _scales():
    return {b.name: b.scale for b in BLOCKS if b.kind != "fixed"}


def _bits(scales):
    return {name: float(value).hex() for name, value in scales.items()}


class TestAdaptScales:
    def test_saturated_rate_widens_walk(self):
        scales = _scales()
        adapt_scales(scales, BLOCKS, _accepts(BATCH_SIZE, mu=1.0), BATCH_SIZE)
        assert scales["mu"] > 1.0
        assert scales["mu"] == math.exp(0.01)  # the first batch's step

    def test_rate_at_target_keeps_scale(self):
        scales = _scales()
        adapt_scales(scales, BLOCKS, _accepts(BATCH_SIZE, mu=0.44, p=0.24), BATCH_SIZE)
        assert scales["mu"] == 1.0
        assert scales["p"] == 100.0

    def test_concentration_moves_opposite_to_width(self):
        # too many acceptances: loosen the concentration (smaller value)
        scales = _scales()
        adapt_scales(scales, BLOCKS, _accepts(BATCH_SIZE, p=0.9), BATCH_SIZE)
        assert scales["p"] < 100.0
        scales = _scales()
        adapt_scales(scales, BLOCKS, _accepts(BATCH_SIZE, p=0.06), BATCH_SIZE)
        assert scales["p"] > 100.0

    def test_step_size_schedule(self):
        scales, accepts = _scales(), _accepts(3 * BATCH_SIZE, mu=1.0)
        for b in range(1, 4):
            adapt_scales(scales, BLOCKS, accepts, b * BATCH_SIZE)
        assert scales["mu"] == pytest.approx(math.exp(3 * 0.01), abs=1e-12)

    def test_fixed_blocks_untouched(self):
        scales = _scales()
        adapt_scales(scales, BLOCKS, _accepts(BATCH_SIZE, sigma=0.99), BATCH_SIZE)
        assert "sigma" not in scales

    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.sampled_from(["width", "concentration", "fixed"]),
                st.one_of(st.sampled_from([SCALAR_RATE, VECTOR_RATE, 0.24, 0.5]), st.floats(0, 1)),
                st.floats(1e-3, 1e3),
                st.sampled_from([0.0, 0.24, 0.44, 0.5, 1.0]),
            ),
            min_size=1,
            max_size=4,
        ),
        batches=st.integers(1, 12),
        horizon=st.integers(0, 12 * BATCH_SIZE),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_update_matches_reference_bits(self, specs, batches, horizon, seed):
        rng = np.random.default_rng(seed)
        blocks = [
            _Block(f"b{i}", None, kind, None if kind == "fixed" else scale, rate)
            for i, (kind, rate, scale, _) in enumerate(specs)
        ]
        T = batches * BATCH_SIZE
        accepts = {
            b.name: (rng.random(T) < accept).astype(np.uint8)
            for b, (*_, accept) in zip(blocks, specs)
        }
        scales = {b.name: b.scale for b in blocks if b.kind != "fixed"}
        kinds, targets = {b.name: b.kind for b in blocks}, {b.name: b.rate for b in blocks}
        reference, batch_index = dict(scales), 0
        for t in range(T):
            if (t + 1) % BATCH_SIZE == 0 and t < horizon:
                adapt_scales(scales, blocks, accepts, t + 1)
                recent = slice(t + 1 - BATCH_SIZE, t + 1)
                reference, batch_index = reference_adapt_scales(
                    reference, kinds, targets, batch_index,
                    {name: float(flags[recent].mean()) for name, flags in accepts.items()},
                )
                assert _bits(scales) == _bits(reference)

    def test_step_shrinks_past_batch_10000(self):
        # at batch b = 40 000 the step is b^-1/2 = 0.005 < 0.01
        b = 40_000
        scales = _scales()
        adapt_scales(scales, BLOCKS, _accepts(b * BATCH_SIZE, mu=1.0, p=0.9), b * BATCH_SIZE)
        reference, _ = reference_adapt_scales(
            _scales(), {x.name: x.kind for x in BLOCKS}, {x.name: x.rate for x in BLOCKS},
            b - 1, {"mu": 1.0, "p": 0.9, "sigma": 0.5},
        )
        assert _bits(scales) == _bits(reference)
        assert scales["mu"] == math.exp(0.005)


class TestProposalCorrectness:
    """Two-bin detailed-balance checks on toy one-parameter targets.

    The asymmetric proposals must include q(cur|prop)/q(prop|cur); a missing
    correction shifts the stationary law detectably.
    """

    def _frequency_check(self, draws, analytic, label):
        draws = np.asarray(draws, dtype=float)
        indicator = draws
        se = mcse_mean(indicator)
        freq = indicator.mean()
        assert abs(freq - analytic) < 3 * se + 0.005, (
            f"{label}: frequency {freq:.4f} vs analytic {analytic:.4f} (se {se:.4f})"
        )

    def test_beta_proposal_targets_beta_law(self):
        rng = np.random.default_rng(0)
        target = lambda x: 2.0 * math.log(x) + math.log1p(-x) if 0 < x < 1 else -math.inf
        x, lp = 0.5, target(0.5)
        below = np.empty(40000)
        for t in range(len(below)):
            x, lp, _ = _mh_step(rng, x, lp, _beta_proposal(rng, x, 4.0), target)
            below[t] = x < 0.5
        self._frequency_check(below[2000:], stats.beta.cdf(0.5, 3, 2), "beta step")

    def test_offset_free_beta_proposal(self):
        rng = np.random.default_rng(1)
        target = lambda x: 1.5 * math.log(x) - 0.2 * x if 0 < x < 1 else -math.inf
        norm = stats.beta.cdf(0.5, 2.5, 1) * math.nan  # analytic bin mass by quadrature
        from scipy.integrate import quad

        z, _ = quad(lambda u: u**1.5 * math.exp(-0.2 * u), 0, 1)
        mass, _ = quad(lambda u: u**1.5 * math.exp(-0.2 * u) / z, 0, 0.5)
        x, lp = 0.5, target(0.5)
        below = np.empty(40000)
        for t in range(len(below)):
            x, lp, _ = _mh_step(rng, x, lp, _beta_proposal(rng, x, 6.0, offset=0.0), target)
            below[t] = x < 0.5
        self._frequency_check(below[2000:], mass, "offset-free beta step")

    def test_dirichlet_proposal_targets_dirichlet_law(self):
        rng = np.random.default_rng(2)
        alpha = np.array([2.0, 3.0, 4.0])

        def target(v):
            if np.any(v <= 0):
                return -math.inf
            return float((alpha - 1.0) @ np.log(v))

        v = np.array([1 / 3, 1 / 3, 1 / 3])
        lp = target(v)
        below = np.empty(40000)
        for t in range(len(below)):
            v, lp, _ = _mh_step(rng, v, lp, _dirichlet_proposal(rng, v, 8.0), target)
            below[t] = v[0] < 0.25
        # first coordinate of a Dirichlet marginalises to Beta(2, 7)
        self._frequency_check(below[2000:], stats.beta.cdf(0.25, 2, 7), "dirichlet step")

    def test_invgamma_independence_targets_invgamma_law(self):
        rng = np.random.default_rng(3)
        shape_t, scale_t = 5.0, 4.0
        target = lambda x: (
            -(shape_t + 1.0) * math.log(x) - scale_t / x if x > 0 else -math.inf
        )
        x, lp = 1.0, target(1.0)
        below = np.empty(40000)
        for t in range(len(below)):
            x, lp, _ = _mh_step(rng, x, lp, _invgamma_proposal(rng, x, 3.0, 2.0), target)
            below[t] = x < 1.0
        self._frequency_check(
            below[2000:], stats.invgamma.cdf(1.0, shape_t, scale=scale_t), "invgamma step"
        )

    def test_logit_walk_targets_beta_law(self):
        rng = np.random.default_rng(4)
        target = lambda x: 2.0 * math.log(x) + math.log1p(-x) if 0 < x < 1 else -math.inf
        x, lp = 0.5, target(0.5)
        below = np.empty(40000)
        for t in range(len(below)):
            x, lp, _ = _mh_step(rng, x, lp, _logit_walk(rng, x, 1.5), target)
            below[t] = x < 0.5
        self._frequency_check(below[2000:], stats.beta.cdf(0.5, 3, 2), "logit walk")

    def test_simplex_log_ratio_walk_targets_dirichlet_law(self):
        rng = np.random.default_rng(5)
        alpha = np.array([2.0, 3.0, 4.0])

        def target(v):
            if np.any(v <= 0):
                return -math.inf
            return float((alpha - 1.0) @ np.log(v))

        v = np.array([1 / 3, 1 / 3, 1 / 3])
        lp = target(v)
        below = np.empty(40000)
        for t in range(len(below)):
            v, lp, _ = _mh_step(rng, v, lp, _simplex_log_ratio_walk(rng, v, 0.8), target)
            below[t] = v[0] < 0.25
        self._frequency_check(below[2000:], stats.beta.cdf(0.25, 2, 7), "log-ratio walk")

    def test_invgamma_sigma_move_targets_invgamma_law_of_sigma_squared(self):
        # sigma^2 ~ InvGamma(5, 4) written as a density over sigma:
        # -(2 * 5 + 1) log sigma - 4 / sigma^2, up to a constant
        rng = np.random.default_rng(6)
        target = lambda s: -11.0 * math.log(s) - 4.0 / (s * s) if s > 0 else -math.inf
        sigma, lp = 1.0, target(1.0)
        below = np.empty(40000)
        for t in range(len(below)):
            proposal = _invgamma_sigma_proposal(rng, sigma, 3.0, 2.0)
            sigma, lp, _ = _mh_step(rng, sigma, lp, proposal, target)
            below[t] = sigma < 1.0
        self._frequency_check(
            below[2000:], stats.invgamma.cdf(1.0, 5.0, scale=4.0), "inverse-gamma sigma move"
        )


@pytest.mark.parametrize("walk, start, upper", [(_log_walk, 1.0, math.inf), (_logit_walk, 0.5, 1.0)])
def test_walk_past_the_float_range_leaves_the_support(walk, start, upper):
    # at scale 1000 a step's exp overflowed (11 and 8 of these 50 draws raised)
    rng = np.random.default_rng(0)
    outside = 0
    for _ in range(50):
        prop, log_q = walk(rng, start, 1000.0)
        if prop is None:
            outside += 1
            assert log_q == 0.0
        else:
            assert 0.0 < prop < upper and math.isfinite(log_q)
    assert outside > 0


def test_overflowing_residuals_warn_nowhere_in_a_run():
    # a loose v concentration draws component scales so small that (x - loc) / scale
    # overflows; its -inf likelihood term is right, and the run stays silent
    rng = np.random.default_rng(3)
    data = Dataset(np.concatenate([rng.normal(-8.0, 2.0, 30), rng.normal(-0.5, 1.0, 20)]))
    config = RunConfig(iterations=300, burn_in=0, seed=1, proposal=1, init_scales={"v": 1e-2})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chain = mwg_gaussian_k2(data, PriorSpec(), config).chains[0]
    assert np.isfinite(chain.log_posterior).all()


def _draw(chain, t):
    """The state and standard parameters of sweep ``t``, built from the chain's columns."""
    if chain.family == "gaussian":
        coords = AngularCoords(chain.phi_sq[t], chain.varpi[t], chain.xi[t], chain.phi_sign[t])
        state = GaussianState(float(chain.mu[t]), float(chain.sigma[t]), chain.weights[t], coords)
        return state, StandardParams("gaussian", chain.weights[t], chain.locs[t], chain.scales[t])
    state = RateState(chain.family, float(chain.lam[t]), chain.gamma[t], chain.weights[t])
    return state, StandardParams(chain.family, chain.weights[t], chain.locs[t])


class TestChainMechanics:
    def test_rejected_iterations_repeat_state_bitwise(self, example1_k2_run):
        chain = example1_k2_run.chains[0]
        flags = np.stack([chain.accepts[b] for b in chain.accepts], axis=1)
        all_rejected = np.where(~flags.any(axis=1))[0]
        all_rejected = all_rejected[all_rejected > 0]
        assert len(all_rejected) > 0
        for t in all_rejected[:50]:
            assert chain.mu[t] == chain.mu[t - 1]
            assert chain.sigma[t] == chain.sigma[t - 1]
            assert np.all(chain.weights[t] == chain.weights[t - 1])
            assert np.all(chain.locs[t] == chain.locs[t - 1])
            assert chain.log_posterior[t] == chain.log_posterior[t - 1]

    def test_same_seed_reproduces_chain_bitwise(self, example1_data):
        config = RunConfig(iterations=600, burn_in=100, seed=42, adapt_horizon=0)
        r1 = mwg_gaussian(example1_data, 2, PriorSpec(), config)
        r2 = mwg_gaussian(example1_data, 2, PriorSpec(), config)
        for name in ("mu", "sigma", "phi_sq", "log_posterior"):
            assert np.array_equal(r1.chains[0].column(name), r2.chains[0].column(name))
        assert np.array_equal(r1.chains[0].weights, r2.chains[0].weights)

    def test_every_emitted_record_satisfies_moment_identity(self, example1_k2_run):
        chain = example1_k2_run.chains[0]
        rng = np.random.default_rng(0)
        for t in rng.integers(0, len(chain), size=40):
            state, params = _draw(chain, int(t))
            mean, var = mixture_moments(params)
            assert abs(mean - state.mu) < 1e-10
            assert abs(var - state.sigma**2) < 1e-10 * max(1.0, state.sigma**2)
        assert np.all(np.isfinite(chain.log_posterior))

    def test_collapsing_proposal_scale_accepts_everything(self, example1_data):
        config = RunConfig(
            iterations=800,
            burn_in=100,
            seed=9,
            adapt_horizon=0,
            init_scales={"p": 1e12},
        )
        result = mwg_gaussian_k2(example1_data, PriorSpec(), config)
        assert result.chains[0].acceptance_rate("p") > 0.99

    def test_too_small_sample_refused(self):
        with pytest.raises(ValueError, match="at least two observations"):
            mwg_gaussian(Dataset([1.0]), 2, PriorSpec(), RunConfig(iterations=10, burn_in=0))

    def test_all_zero_poisson_refused(self):
        with pytest.raises(ValueError, match="strictly positive"):
            mwg_poisson(
                Dataset([0.0, 0.0, 0.0]), 2, PriorSpec(), RunConfig(iterations=10, burn_in=0)
            )


@pytest.mark.parametrize(
    "family, k, kind",
    [
        ("gaussian", 2, "double_uniform"),
        ("gaussian", 3, "single_uniform"),
        ("poisson", 2, "double_uniform"),
        ("exponential", 2, "double_uniform"),
    ],
)
def test_recorded_log_posterior_matches_public_reference(family, k, kind):
    # a driver that records a stale value after an accepted move fails here
    rng = np.random.default_rng(8)
    if family == "gaussian":
        values = np.concatenate([rng.normal(-3.0, 1.0, 20), rng.normal(4.0, 1.5, 30)])
    elif family == "poisson":
        values = rng.poisson(rng.choice([1.0, 6.0], size=60)).astype(float)
    else:
        values = rng.exponential(rng.choice([1.0, 5.0], size=60))
    data, spec = Dataset(values), PriorSpec(kind=kind)
    sampler = {"gaussian": mwg_gaussian, "poisson": mwg_poisson, "exponential": mwg_exponential}
    config = RunConfig(iterations=300, burn_in=50, seed=2)
    chain = sampler[family](data, k, spec, config).chains[0]
    for t in range(0, len(chain), 7):
        assert chain.log_posterior[t] == log_posterior(data, spec, _draw(chain, t)[0])


class TestGaussianPosteriors:
    def test_example1_intervals_cover_truth(self, example1_data):
        result = mwg_gaussian(
            example1_data, 2, PriorSpec(), RunConfig(iterations=15000, burn_in=1500, seed=5)
        )
        chain = result.chains[0]
        for name, series, truth in [
            ("mu", chain.post_burn("mu"), TWO_COMP_TRUTH["mean"]),
            ("sigma2", chain.post_burn("sigma") ** 2, TWO_COMP_TRUTH["var"]),
            ("phi_sq", chain.post_burn("phi_sq"), TWO_COMP_TRUTH["phi_sq"]),
        ]:
            lo, hi = np.percentile(series, [5, 95])
            assert lo <= truth <= hi, f"{name}: ({lo}, {hi}) misses {truth}"
        # tuned blocks settle inside the usual acceptance bracket
        rates = result.acceptance_rates()[0]
        for block in ("mu", "sigma", "phi", "p", "xi_rw"):
            assert 0.15 <= rates[block] <= 0.6, f"{block}: {rates[block]}"

    def test_single_component_dominant_matches_normal_posterior(self):
        rng = np.random.default_rng(31)
        x = rng.normal(5.0, 2.0, size=100)
        result = mwg_gaussian(
            Dataset(x), 2, PriorSpec(), RunConfig(iterations=8000, burn_in=1000, seed=7)
        )
        mu = result.chains[0].post_burn("mu")
        assert abs(mu.mean() - x.mean()) < 2 * mu.std()

    def test_general_and_specialised_kernels_agree(self, example1_data):
        # the general sampler works in (phi_sq, xi) coordinates, the k = 2
        # sampler in (phi_sq, eta^2); matching posteriors require the
        # Jacobian terms of both parameterisations to be right
        ra = mwg_gaussian(
            example1_data, 2, PriorSpec(), RunConfig(iterations=30000, burn_in=2000, seed=15)
        )
        rb = mwg_gaussian_k2(
            example1_data, PriorSpec(), RunConfig(iterations=30000, burn_in=2000, seed=16, proposal=1)
        )
        for param in ("mu", "sigma", "phi_sq"):
            a = ra.chains[0].post_burn(param)
            b = rb.chains[0].post_burn(param)
            se = math.hypot(mcse_mean(a), mcse_mean(b))
            assert abs(a.mean() - b.mean()) < 3 * se, param

    def test_proposal_variants_agree(self, example1_data):
        r1 = mwg_gaussian_k2(
            example1_data, PriorSpec(), RunConfig(iterations=30000, burn_in=2000, seed=12, proposal=1)
        )
        r2 = mwg_gaussian_k2(
            example1_data, PriorSpec(), RunConfig(iterations=30000, burn_in=2000, seed=11, proposal=2)
        )
        m1 = r1.chains[0].post_burn("mu")
        m2 = r2.chains[0].post_burn("mu")
        se = math.hypot(mcse_mean(m1), mcse_mean(m2))
        assert abs(m1.mean() - m2.mean()) < 3 * se

    def test_pooled_weight_posterior_is_bimodal_symmetric(self, example1_data):
        result = mwg_gaussian_k2(
            example1_data,
            PriorSpec(),
            RunConfig(iterations=12000, burn_in=1500, n_chains=10, seed=3),
        )
        p1 = np.concatenate([c.post_burn("p1") for c in result.chains])
        upper = np.mean(p1 > 0.5)
        assert 0.2 < upper < 0.8
        assert abs(p1.mean() - 0.5) < 0.1

    def test_three_component_weights_exchangeable_before_relabelling(self, example3_run):
        chain = example3_run.chains[0]
        means = np.array([chain.post_burn(f"p{i + 1}").mean() for i in range(3)])
        assert np.abs(means[:, None] - means[None, :]).max() < 0.05


class TestRatePosteriors:
    def test_poisson_single_rate_matches_conjugate_oracle(self):
        rng = np.random.default_rng(47)
        x = rng.poisson(3.0, size=800).astype(float)
        result = mwg_poisson(
            Dataset(x), 2, PriorSpec(), RunConfig(iterations=20000, burn_in=2000, seed=8)
        )
        lam = result.chains[0].post_burn("lam")
        conjugate_mean = x.sum() / len(x)  # Gamma(sum x, n) under the 1/lam prior
        # the mixture marginal differs from the single-rate posterior at
        # O(1/n); allow a tenth of the posterior spread on top of MC error
        tol = 3 * mcse_mean(lam) + 0.1 * lam.std()
        assert abs(lam.mean() - conjugate_mean) < tol

    def test_poisson_model1_large_sample(self, model1_poisson_run):
        lam = model1_poisson_run.chains[0].post_burn("lam")
        assert abs(lam.mean() - 2.6) < 0.05

    def test_poisson_small_sample_label_switching_balance(self):
        # modes communicate at small n, where the posterior valley is shallow
        data = simulate_poisson_model1(30, seed=3)
        result = mwg_poisson(
            data, 2, PriorSpec(), RunConfig(iterations=60000, burn_in=2000, seed=9)
        )
        chain = result.chains[0]
        p1 = chain.post_burn("p1")
        p2 = chain.post_burn("p2")
        assert abs(p1.mean() - p2.mean()) < 0.05
        flips = np.sum(
            np.diff((chain.post_burn("loc1") > chain.post_burn("loc2")).astype(int)) != 0
        )
        assert flips > 10

    def test_exponential_single_mean_matches_conjugate_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.exponential(2.0, size=800)
        result = mwg_exponential(
            Dataset(x), 2, PriorSpec(), RunConfig(iterations=20000, burn_in=2000, seed=4)
        )
        lam = result.chains[0].post_burn("lam")
        conjugate_mean = x.sum() / (len(x) - 1)  # inverse-gamma(n, sum x) mean
        tol = 3 * mcse_mean(lam) + 0.1 * lam.std()
        assert abs(lam.mean() - conjugate_mean) < tol

    def test_exponential_small_sample_label_switching_balance(self):
        rng = np.random.default_rng(3)
        comp = rng.choice(2, size=30, p=[0.5, 0.5])
        x = rng.exponential(np.array([1.0, 8.0])[comp])
        result = mwg_exponential(
            Dataset(x), 2, PriorSpec(), RunConfig(iterations=60000, burn_in=2000, seed=13)
        )
        chain = result.chains[0]
        assert abs(chain.post_burn("p1").mean() - chain.post_burn("p2").mean()) < 0.05

    def test_exponential_two_components_recovered(self):
        rng = np.random.default_rng(23)
        comp = rng.choice(2, size=200, p=[0.5, 0.5])
        x = rng.exponential(np.array([1.0, 8.0])[comp])
        result = mwg_exponential(
            Dataset(x), 2, PriorSpec(), RunConfig(iterations=20000, burn_in=2000, seed=6)
        )
        chain = result.chains[0]
        lam = chain.post_burn("lam")
        assert abs(lam.mean() - x.mean()) < 3 * mcse_mean(lam) + 0.1 * lam.std()
        rates = np.sort(
            [chain.post_burn("loc1").mean(), chain.post_burn("loc2").mean()]
        )
        assert abs(rates[0] - 1.0) < 0.6
        assert abs(rates[1] - 8.0) < 2.5


class _ArrayChain:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def post_burn(self, name):
        return self.values


class TestGelmanRubin:
    def test_identical_chains_give_exactly_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        assert gelman_rubin([_ArrayChain(x), _ArrayChain(x.copy())], "mu") == 1.0

    def test_separated_chains_explode(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, size=1000)
        b = rng.normal(10.0, 1.0, size=1000)
        psrf = gelman_rubin([_ArrayChain(a), _ArrayChain(b)], "mu")
        # brute-force evaluation of the same formula
        n = 1000
        w = (a.var(ddof=1) + b.var(ddof=1)) / 2
        bvar = n * np.var([a.mean(), b.mean()], ddof=1)
        expected = math.sqrt(((n - 1) / n * w + bvar / n) / w)
        assert psrf == pytest.approx(expected, rel=1e-12)
        assert psrf > 5

    def test_zero_within_variance_is_an_error(self):
        flat = _ArrayChain(np.ones(100))
        with pytest.raises(ValueError, match="within-chain"):
            gelman_rubin([flat, flat], "mu")

    def test_example1_chains_converge(self, example1_k2_run):
        assert gelman_rubin(example1_k2_run.chains, "mu") < 1.1
