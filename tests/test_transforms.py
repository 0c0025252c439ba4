"""Transform-layer tests: frozen examples, constraint identities, round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixanchor import (
    AngularCoords,
    GlobalMoments,
    StandardParams,
    angles_from_eta,
    angles_from_gamma,
    angular_from_standard,
    build_basis,
    eta_from_angles,
    gamma_from_angles,
    mixture_moments,
    standard_from_angular,
)
from mixanchor.transforms import (
    _angles_from_unit_rows,
    _unit_vector,
    angular_arrays_from_standard,
    standard_arrays_from_angular,
)

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


def sphere_coords(params):
    """``(gamma, eta)`` encoded by the angles ``angular_from_standard`` returns,
    rebuilt through the forward maps."""
    _, p, coords = angular_from_standard(params)
    return gamma_from_angles(coords.radius, coords.varpi, p), eta_from_angles(coords.phi_sq, coords.xi)


class TestAlphaTau:
    """The offsets ``alpha = gamma / sqrt(p)`` and ratios ``tau = eta / sqrt(p)``
    behind the inverse's angles."""

    def test_two_component_frozen_values(self):
        gamma, eta = sphere_coords(TWO_COMP)
        p = TWO_COMP.weights
        alpha, tau = gamma / np.sqrt(p), eta / np.sqrt(p)
        np.testing.assert_allclose(
            alpha, [-0.6615034563645892, 1.2285064189628085], atol=1e-12
        )
        np.testing.assert_allclose(
            tau, [0.5040026334206394, 0.2520013167103197], atol=1e-12
        )
        assert abs(p @ alpha) < 1e-12
        assert abs(p @ (tau**2 + alpha**2) - 1) < 1e-12

    def test_identical_components_standardise_trivially(self):
        params = StandardParams("gaussian", [0.3, 0.7], [2.0, 2.0], [1.5, 1.5])
        gamma, eta = sphere_coords(params)
        np.testing.assert_allclose(gamma / np.sqrt(params.weights), 0.0, atol=1e-12)
        np.testing.assert_allclose(eta / np.sqrt(params.weights), 1.0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = random_gaussian_params(rng, int(rng.integers(2, 7)))
            mean, var = mixture_moments(params)
            back = standard_from_angular(*angular_from_standard(params))
            np.testing.assert_allclose(back.locs, params.locs, atol=1e-12)
            np.testing.assert_allclose(back.scales, params.scales, atol=1e-12)
            m2, v2 = mixture_moments(back)
            assert abs(m2 - mean) < 1e-10 and abs(v2 - var) < 1e-10

    def test_inconsistent_global_moments_rejected(self):
        # the mean dwarfs the spread, so the variance is lost to cancellation
        # and the computed moments no longer anchor the components
        params = StandardParams("gaussian", [0.3, 0.7], [2e7, 2e7 + 1.0], [0.5, 0.25])
        with pytest.raises(ValueError, match="identities"):
            angular_from_standard(params)

    def test_nonpositive_tau_rejected(self):
        # sigma_2 / sigma underflows to 0 though every scale is positive
        params = StandardParams("gaussian", [0.5, 0.5], [0.0, 1e16], [5e-324, 1.0])
        with pytest.raises(ValueError, match="tau"):
            angular_from_standard(params)

    @pytest.mark.filterwarnings("error")
    def test_zero_variance_refused_before_dividing(self):
        # the squared scales underflow to 0, so the variance of equal components is 0
        params = StandardParams("gaussian", [0.5, 0.5], [1.0, 1.0], [5e-324, 5e-324])
        with pytest.raises(ValueError, match="standard deviation"):
            angular_from_standard(params)


class TestGammaEta:
    """The sphere coordinates behind the inverse's angles."""

    def test_two_component_frozen_values(self):
        gamma, eta = sphere_coords(TWO_COMP)
        np.testing.assert_allclose(
            gamma, [-0.5333211366601681, 0.7267941988633978], atol=1e-12
        )
        np.testing.assert_allclose(
            eta, [0.40633991364584243, 0.14908598951044058], atol=1e-12
        )
        _, _, coords = angular_from_standard(TWO_COMP)
        assert coords.phi_sq == pytest.approx(0.8126612423099819, abs=1e-12)
        # published truth lists the eta pair in the swapped component order;
        # compare as unordered sets
        assert sorted(np.round(eta, 3)) == [0.149, 0.406]

    def test_zero_offsets(self):
        params = StandardParams("gaussian", [0.2, 0.5, 0.3], np.zeros(3), np.ones(3))
        gamma, eta = sphere_coords(params)
        np.testing.assert_allclose(gamma, 0.0, atol=1e-15)
        np.testing.assert_allclose(eta, np.sqrt(params.weights), atol=1e-15)
        assert angular_from_standard(params)[2].phi_sq == 0.0

    def test_sphere_identities_hold(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = random_gaussian_params(rng, int(rng.integers(2, 8)))
            gamma, eta = sphere_coords(params)
            sq = np.sqrt(params.weights)
            assert abs(sq @ gamma) < 1e-12
            assert abs(np.sum(gamma**2) + np.sum(eta**2) - 1) < 1e-12


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


def frozen_angular_from_standard(params):
    """The object chain ``angular_from_standard`` ran before its array core
    replaced it, kept as a reference: ``GlobalMoments``, the offsets and ratios
    with the checks of the former ``AlphaTau`` container and ``check_alpha_tau``
    (at 1e-8, then again at 1e-10), the sphere coordinates with the checks of
    the former ``GammaEta`` container, then the angles and ``AngularCoords``."""
    p, locs, scales = params.weights, params.locs, params.scales
    mean = float(p @ locs)
    var = float(p @ scales**2 + p @ locs**2 - mean**2)
    g = GlobalMoments(mu=mean, sigma=math.sqrt(var))
    alpha = (locs - g.mu) / g.sigma
    tau = scales / g.sigma
    if not np.all(tau > 0):
        raise ValueError("tau entries must be strictly positive")
    for tol in (1e-8, 1e-10):
        s1, s2 = float(p @ alpha), float(p @ (tau**2 + alpha**2))
        if abs(s1) > tol or abs(s2 - 1.0) > tol:
            raise ValueError("offset/scale constraints violated")
    sq = np.sqrt(p)
    gamma, eta = sq * alpha, sq * tau
    if np.any(np.abs(gamma) > 1 + 1e-10):
        raise ValueError("gamma entries must lie in [-1, 1]")
    if np.any(eta < -1e-10) or np.any(eta > 1 + 1e-10):
        raise ValueError("eta entries must lie in [0, 1]")
    if abs(float(np.sum(gamma**2) + np.sum(eta**2)) - 1.0) > 1e-10:
        raise ValueError("(gamma, eta) must have unit norm")
    phi, varpi = angles_from_gamma(gamma, p)
    phi_sq = phi * phi
    sign = 1 if params.k >= 3 or phi >= 0 else -1
    xi = angles_from_eta(eta, phi_sq)
    return g, p, AngularCoords(phi_sq=min(phi_sq, 1.0), varpi=varpi, xi=xi, phi_sign=sign)


def _inverse_outcome(inverse, params):
    """The bytes of every returned number, or the type of the exception raised."""
    try:
        g, p, coords = inverse(params)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    numbers = np.concatenate([[g.mu, g.sigma, coords.phi_sq, coords.phi_sign], p,
                              coords.varpi, coords.xi])
    return numbers.tobytes()


def _hard_mixtures(rng, n):
    """``n`` seeded Gaussian mixtures, k = 2-8, with locations spread up to
    1e160 around centres up to 1e160 (or a few spreads away, where the variance
    is lost to cancellation) and scales down to 1e-323."""
    found = [StandardParams("gaussian", [0.5, 0.5], [0.0, 1e16], [5e-324, 1.0])]
    while len(found) < n:
        k = int(rng.integers(2, 9))
        weights = rng.dirichlet(np.full(k, rng.choice([0.3, 1.0, 5.0])))
        spread = 10.0 ** rng.uniform(-20, 160)
        if rng.random() < 0.5:
            centre = 10.0 ** rng.uniform(-5, 160) * rng.choice([-1, 0, 1])
        else:
            centre = spread * 10.0 ** rng.uniform(2, 5) * rng.choice([-1, 1])
        locs = centre + spread * rng.standard_normal(k)
        if rng.random() < 0.5:
            scales = 10.0 ** rng.uniform(-323, 160, size=k)
        else:
            scales = spread * np.exp(rng.standard_normal(k))
        try:
            found.append(StandardParams("gaussian", weights, locs, scales))
        except ValueError:
            continue  # a weight sum off by more than 1e-12, or an overflowed location
    return found


class TestInverseMatchesFrozenChain:
    def test_bits_and_refusals_match_on_20000_mixtures(self):
        outcomes = {}
        with np.errstate(all="ignore"):
            for params in _hard_mixtures(np.random.default_rng(29), 20_000):
                want = _inverse_outcome(frozen_angular_from_standard, params)
                assert _inverse_outcome(angular_from_standard, params) == want, params
                kind = "accepted" if isinstance(want, bytes) else want.__name__
                outcomes[kind] = outcomes.get(kind, 0) + 1
        # every branch is exercised: accepted, refused by a check, overflowed mean
        assert min(outcomes.get(kind, 0) for kind in
                   ("accepted", "ValueError", "OverflowError")) > 500, outcomes

    def test_rate_family_refused_by_name(self):
        with pytest.raises(ValueError, match="poisson"):
            angular_from_standard(StandardParams("poisson", [0.5, 0.5], [1.0, 3.0]))

    def test_array_core_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            params = random_gaussian_params(rng, int(rng.integers(2, 9)))
            mu, sigma, p, phi_sq, sign, varpi, xi = angular_arrays_from_standard(
                params.weights, params.locs, params.scales
            )
            locs, scales, weights = standard_arrays_from_angular(
                mu, sigma, p, phi_sq, sign, varpi, xi
            )
            np.testing.assert_allclose(locs, params.locs, rtol=0, atol=1e-12 * (1 + abs(mu)))
            np.testing.assert_allclose(scales, params.scales, rtol=0, atol=1e-12 * sigma)
            assert weights is params.weights


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
