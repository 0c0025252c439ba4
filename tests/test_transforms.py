"""Transform-layer tests: frozen examples, constraint identities, round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixanchor import (
    AlphaTau,
    AngularCoords,
    GlobalMoments,
    StandardParams,
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
from mixanchor.transforms import _angles_from_unit_rows, _unit_vector

# Two well-separated components used throughout: weights (0.65, 0.35),
# means (-8, -0.5), standard deviations (2, 1).
TWO_COMP = StandardParams("gaussian", [0.65, 0.35], [-8.0, -0.5], [2.0, 1.0])


def random_simplex(rng, k, floor=1e-3):
    while True:
        p = rng.dirichlet(np.ones(k))
        if p.min() >= floor:
            return p


def random_gaussian_params(rng, k):
    p = random_simplex(rng, k)
    locs = rng.normal(0.0, 4.0, size=k)
    scales = np.exp(rng.normal(0.0, 0.5, size=k))
    return StandardParams("gaussian", p, locs, scales)


class TestMixtureMoments:
    def test_two_component_reference_values(self):
        mean, var = mixture_moments(TWO_COMP)
        assert mean == pytest.approx(-5.375, abs=1e-12)
        assert var == pytest.approx(15.746875, abs=1e-12)

    def test_single_effective_component(self):
        params = StandardParams("gaussian", [1.0, 0.0], [3.0, 9.0], [2.0, 5.0])
        mean, var = mixture_moments(params)
        assert mean == pytest.approx(3.0, abs=1e-12)
        assert var == pytest.approx(4.0, abs=1e-12)

    def test_three_component_values(self):
        params = StandardParams(
            "gaussian", [0.27, 0.4, 0.33], [-4.5, 10.0, 3.0], [1.0, 1.0, 1.0]
        )
        mean, var = mixture_moments(params)
        assert mean == pytest.approx(3.775, abs=1e-12)
        assert var == pytest.approx(35.186875, abs=1e-12)

    def test_rate_family_returns_mean_only(self):
        params = StandardParams("poisson", [0.6, 0.4], [1.0, 5.0])
        mean, var = mixture_moments(params)
        assert mean == pytest.approx(2.6, abs=1e-12)
        assert var is None

    def test_monte_carlo_agreement(self):
        # independent route: simulate the mixture and compare sample moments
        rng = np.random.default_rng(1234)
        n = 10**6
        for _ in range(20):
            params = random_gaussian_params(rng, int(rng.integers(2, 6)))
            mean, var = mixture_moments(params)
            comp = rng.choice(params.k, size=n, p=params.weights)
            x = rng.normal(params.locs[comp], params.scales[comp])
            se_mean = math.sqrt(var / n)
            assert abs(x.mean() - mean) < 4 * se_mean
            m4 = np.mean((x - mean) ** 4)
            se_var = math.sqrt(max(m4 - var**2, 0.0) / n)
            assert abs(x.var() - var) < 4 * se_var


class TestAlphaTau:
    def test_two_component_frozen_values(self):
        g = GlobalMoments(mu=-5.375, sigma=math.sqrt(15.746875))
        at = to_alpha_tau(TWO_COMP, g)
        np.testing.assert_allclose(
            at.alpha, [-0.6615034563645892, 1.2285064189628085], atol=1e-12
        )
        np.testing.assert_allclose(
            at.tau, [0.5040026334206394, 0.2520013167103197], atol=1e-12
        )
        p = TWO_COMP.weights
        assert abs(p @ at.alpha) < 1e-12
        assert abs(p @ (at.tau**2 + at.alpha**2) - 1) < 1e-12

    def test_identical_components_standardise_trivially(self):
        params = StandardParams("gaussian", [0.3, 0.7], [2.0, 2.0], [1.5, 1.5])
        mean, var = mixture_moments(params)
        at = to_alpha_tau(params, GlobalMoments(mu=mean, sigma=math.sqrt(var)))
        np.testing.assert_allclose(at.alpha, 0.0, atol=1e-12)
        np.testing.assert_allclose(at.tau, 1.0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = random_gaussian_params(rng, int(rng.integers(2, 7)))
            mean, var = mixture_moments(params)
            g = GlobalMoments(mu=mean, sigma=math.sqrt(var))
            back = from_alpha_tau(to_alpha_tau(params, g), params.weights, g)
            np.testing.assert_allclose(back.locs, params.locs, atol=1e-12)
            np.testing.assert_allclose(back.scales, params.scales, atol=1e-12)
            m2, v2 = mixture_moments(back)
            assert abs(m2 - mean) < 1e-10 and abs(v2 - var) < 1e-10

    def test_inconsistent_global_moments_rejected(self):
        with pytest.raises(ValueError, match="constraints"):
            to_alpha_tau(TWO_COMP, GlobalMoments(mu=0.0, sigma=1.0))

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            AlphaTau(alpha=[0.0, 0.0], tau=[1.0, -0.5])


class TestGammaEta:
    def test_two_component_frozen_values(self):
        g = GlobalMoments(mu=-5.375, sigma=math.sqrt(15.746875))
        ge = to_gamma_eta(to_alpha_tau(TWO_COMP, g), TWO_COMP.weights)
        np.testing.assert_allclose(
            ge.gamma, [-0.5333211366601681, 0.7267941988633978], atol=1e-12
        )
        np.testing.assert_allclose(
            ge.eta, [0.40633991364584243, 0.14908598951044058], atol=1e-12
        )
        assert ge.phi_sq == pytest.approx(0.8126612423099819, abs=1e-12)
        # published truth lists the eta pair in the swapped component order;
        # compare as unordered sets
        assert sorted(np.round(ge.eta, 3)) == [0.149, 0.406]

    def test_zero_offsets(self):
        p = np.array([0.2, 0.5, 0.3])
        at = AlphaTau(alpha=np.zeros(3), tau=np.ones(3))
        ge = to_gamma_eta(at, p)
        np.testing.assert_allclose(ge.gamma, 0.0, atol=1e-15)
        np.testing.assert_allclose(ge.eta, np.sqrt(p), atol=1e-15)
        assert ge.phi_sq == 0.0

    def test_sphere_identities_hold(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = random_gaussian_params(rng, int(rng.integers(2, 8)))
            mean, var = mixture_moments(params)
            g = GlobalMoments(mu=mean, sigma=math.sqrt(var))
            ge = to_gamma_eta(to_alpha_tau(params, g), params.weights)
            sq = np.sqrt(params.weights)
            assert abs(sq @ ge.gamma) < 1e-12
            assert abs(np.sum(ge.gamma**2) + np.sum(ge.eta**2) - 1) < 1e-12


class TestBasis:
    def test_symmetric_three_weights(self):
        basis = build_basis([1 / 3, 1 / 3, 1 / 3]).vectors
        s2, s6 = math.sqrt(2), math.sqrt(6)
        np.testing.assert_allclose(basis[0], [-1 / s2, 1 / s2, 0.0], atol=1e-15)
        np.testing.assert_allclose(basis[1], [-1 / s6, -1 / s6, 2 / s6], atol=1e-15)

    def test_two_components(self):
        basis = build_basis([0.5, 0.5]).vectors
        np.testing.assert_allclose(
            basis, [[-1 / math.sqrt(2), 1 / math.sqrt(2)]], atol=1e-15
        )

    def test_gram_identity_and_hyperplane_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(2, 11))
            p = random_simplex(rng, k)
            basis = build_basis(p).vectors
            gram = basis @ basis.T
            assert np.max(np.abs(gram - np.eye(k - 1))) < 1e-12
            assert np.max(np.abs(basis @ np.sqrt(p))) < 1e-12

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_basis([1.0 - 1e-13, 1e-13])


class TestGammaAngles:
    def test_two_component_radius(self):
        gamma = gamma_from_angles(0.6, [], [0.5, 0.5])
        c = 0.6 / math.sqrt(2)
        np.testing.assert_allclose(gamma, [-c, c], atol=1e-15)

    def test_zero_radius(self):
        gamma = gamma_from_angles(0.0, [1.0], [0.2, 0.5, 0.3])
        np.testing.assert_allclose(gamma, 0.0, atol=1e-15)

    def test_first_basis_vector_recovered(self):
        # angle 0 collapses the expansion onto the first basis vector
        gamma = gamma_from_angles(1.0, [0.0], [1 / 3, 1 / 3, 1 / 3])
        s2 = math.sqrt(2)
        np.testing.assert_allclose(gamma, [-1 / s2, 1 / s2, 0.0], atol=1e-15)
        assert np.sum(gamma**2) == pytest.approx(1.0, abs=1e-12)

    def test_constraints_for_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            p = random_simplex(rng, k)
            phi = rng.uniform(-1, 1) if k == 2 else rng.uniform(0, 1)
            varpi = _random_varpi(rng, k)
            gamma = gamma_from_angles(phi, varpi, p)
            assert abs(np.sqrt(p) @ gamma) < 1e-12
            assert abs(np.sum(gamma**2) - phi**2) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            p = random_simplex(rng, k)
            phi = rng.uniform(-1, 1) if k == 2 else rng.uniform(1e-3, 1)
            varpi = _random_varpi(rng, k)
            gamma = gamma_from_angles(phi, varpi, p)
            phi2, varpi2 = angles_from_gamma(gamma, p)
            gamma2 = gamma_from_angles(phi2, varpi2, p)
            np.testing.assert_allclose(gamma2, gamma, atol=1e-10)
            assert abs(phi2 - abs(phi)) < 1e-10 or k == 2
            if k == 2:
                assert phi2 == pytest.approx(phi, abs=1e-12)

    def test_wrong_angle_count_rejected(self):
        with pytest.raises(ValueError, match="angles"):
            gamma_from_angles(0.5, [0.1, 0.2], [0.5, 0.25, 0.25])

    def test_off_hyperplane_rejected(self):
        with pytest.raises(ValueError, match="hyperplane"):
            angles_from_gamma([0.5, 0.5], [0.5, 0.5])


class TestEtaAngles:
    def test_all_cosines(self):
        eta = eta_from_angles(0.19, np.zeros(3))
        np.testing.assert_allclose(eta, [0.9, 0.0, 0.0, 0.0], atol=1e-15)

    def test_empty_scale_budget(self):
        eta = eta_from_angles(1.0, [0.3, 0.7])
        np.testing.assert_allclose(eta, 0.0, atol=1e-15)

    def test_three_component_values(self):
        eta = eta_from_angles(0.0, [math.pi / 4, math.pi / 3])
        expected = [math.sqrt(2) / 2, math.sqrt(2) / 4, math.sqrt(6) / 4]
        np.testing.assert_allclose(eta, expected, atol=1e-15)
        assert np.sum(eta**2) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            phi_sq = rng.uniform(0.0, 0.99)
            xi = rng.uniform(0, math.pi / 2, size=k - 1)
            eta = eta_from_angles(phi_sq, xi)
            xi2 = angles_from_eta(eta, phi_sq)
            np.testing.assert_allclose(xi2, xi, atol=1e-10)
            assert np.all(xi2 >= 0) and np.all(xi2 <= math.pi / 2)

    def test_out_of_range_angle_rejected(self):
        with pytest.raises(ValueError, match="pi/2"):
            eta_from_angles(0.2, [math.pi])

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            angles_from_eta([-0.1, 0.9], 0.0)

    def test_pole_angles_resolve_to_zero(self):
        assert np.all(angles_from_eta([0.0, 0.0, 0.0], 1.0) == 0.0)


class TestFullChain:
    def test_identity_chain_on_two_component_mixture(self):
        g, p, coords = angular_from_standard(TWO_COMP)
        back = standard_from_angular(g, p, coords)
        np.testing.assert_allclose(back.locs, TWO_COMP.locs, atol=1e-9)
        np.testing.assert_allclose(back.scales, TWO_COMP.scales, atol=1e-9)

    def test_zero_location_spread(self):
        g = GlobalMoments(mu=1.5, sigma=2.0)
        coords = AngularCoords(phi_sq=0.0, varpi=[], xi=[math.pi / 4])
        params = standard_from_angular(g, [0.5, 0.5], coords)
        np.testing.assert_allclose(params.locs, [1.5, 1.5], atol=1e-12)
        mean, var = mixture_moments(params)
        assert mean == pytest.approx(1.5, abs=1e-10)
        assert var == pytest.approx(4.0, abs=1e-10)

    def test_moment_identity_for_random_angular_draws(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            p = random_simplex(rng, k)
            phi_sq = rng.uniform(0, 0.98)
            sign = int(rng.choice([-1, 1])) if k == 2 else 1
            coords = AngularCoords(
                phi_sq=phi_sq,
                varpi=_random_varpi(rng, k),
                xi=rng.uniform(1e-3, math.pi / 2 - 1e-3, size=k - 1),
                phi_sign=sign,
            )
            mu = float(rng.normal(0, 5))
            sigma = float(np.exp(rng.normal(0, 1)))
            params = standard_from_angular(GlobalMoments(mu=mu, sigma=sigma), p, coords)
            mean, var = mixture_moments(params)
            assert abs(mean - mu) < 1e-10
            assert abs(var - sigma**2) < 1e-10 * max(1.0, sigma**2)

    def test_signed_radius_round_trip_for_k2(self):
        # swapping the component order flips the sign of the radius
        swapped = StandardParams("gaussian", [0.35, 0.65], [-0.5, -8.0], [1.0, 2.0])
        _, _, coords = angular_from_standard(swapped)
        assert coords.phi_sign == -1
        _, _, coords_orig = angular_from_standard(TWO_COMP)
        assert coords_orig.phi_sign == 1
        assert coords.phi_sq == pytest.approx(coords_orig.phi_sq, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_round_trip_property(k, seed):
    rng = np.random.default_rng(seed)
    params = random_gaussian_params(rng, k)
    g, p, coords = angular_from_standard(params)
    back = standard_from_angular(g, p, coords)
    np.testing.assert_allclose(back.locs, params.locs, atol=1e-10, rtol=1e-10)
    np.testing.assert_allclose(back.scales, params.scales, atol=1e-10, rtol=1e-10)


def _random_varpi(rng, k):
    if k == 2:
        return np.empty(0)
    varpi = rng.uniform(0, math.pi, size=k - 2)
    varpi[-1] = rng.uniform(0, 2 * math.pi)
    return varpi


def frozen_angles_from_direction(d, last_full_circle):
    """The scalar inverse angle map as it stood before the row-wise one replaced
    it, kept as a reference: ``math.atan2`` entry by entry."""
    dim = len(d)
    angles = np.empty(dim - 1)
    tail_sq = np.cumsum(d[::-1] ** 2)[::-1]
    for j in range(dim - 2):
        angles[j] = math.atan2(math.sqrt(tail_sq[j + 1]), d[j])
    if dim >= 2:
        last = math.atan2(d[dim - 1], d[dim - 2])
        if last_full_circle:
            if last < 0:
                last += 2 * math.pi
        angles[dim - 2] = last
    return angles


class TestInverseAngleMap:
    @pytest.mark.parametrize("full_circle", [True, False])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_rows_match_the_scalar_reference_within_two_ulp(self, dim, full_circle):
        rng = np.random.default_rng(31 + dim)
        rows = rng.standard_normal((2000, dim))
        if not full_circle:
            rows = np.abs(rows)
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        got = _angles_from_unit_rows(rows, full_circle)
        want = np.array([frozen_angles_from_direction(row, full_circle) for row in rows])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        np.testing.assert_allclose(
            np.array([_unit_vector(a) for a in got]), rows, rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("full_circle", [True, False])
    def test_poles_and_signed_zeros_match_exactly(self, full_circle):
        rows = [np.eye(4)[j] for j in range(4)] + [-np.eye(4)[j] for j in range(4)]
        rows += [np.array(r) for r in ([1.0, -0.0], [-1.0, -0.0], [-1.0, 0.0], [0.0, -1.0],
                                       [0.0, 0.0, 1.0, -0.0], [0.6, 0.8, -0.0])]
        for row in rows:
            got = _angles_from_unit_rows(row[None, :], full_circle)[0]
            want = frozen_angles_from_direction(row, full_circle)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestParamsRefuseNaN:
    def test_standard_params_refuses_nan_scale(self):
        with pytest.raises(ValueError, match="scales"):
            StandardParams("gaussian", [0.5, 0.5], [0.0, 1.0], [math.nan, 1.0])

    def test_standard_params_refuses_nan_rate(self):
        with pytest.raises(ValueError, match="rates"):
            StandardParams("poisson", [0.5, 0.5], [math.nan, 1.0])

    def test_global_moments_refuses_nan_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            GlobalMoments(mu=0.0, sigma=math.nan)

    def test_global_moments_refuses_nan_lam(self):
        with pytest.raises(ValueError, match="lam"):
            GlobalMoments(lam=math.nan)

    def test_alpha_tau_refuses_nan_tau(self):
        with pytest.raises(ValueError, match="tau"):
            AlphaTau(alpha=[0.5, -0.5], tau=[math.nan, 0.5])
