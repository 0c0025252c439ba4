"""The targets' derived-value caches: cached, cache-free and reference values agree
to the bit along random block sequences, and no block mutates a state in place."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixanchor.likelihood import (
    Dataset,
    _gaussian_logpost,
    _k2_logpost,
    _rate_logpost,
    loglik_exponential_arrays,
    loglik_gaussian_arrays,
    loglik_poisson_arrays,
)
from mixanchor.params import MIN_WEIGHT
from mixanchor.priors import (
    PRIOR_KINDS,
    PriorSpec,
    _log_beta,
    _log_dirichlet,
    log_varpi_density,
    log_xi_density,
)
from mixanchor.sampler import RunConfig, _gaussian_k2_kernel, _gaussian_kernel, _rate_kernel
from mixanchor.transforms import standard_arrays_from_angular

# (family, k, prior kind, k = 2 proposal variant or None for the general kernels)
KERNELS = [("gaussian", k, kind, None) for k in (2, 3, 4, 5) for kind in PRIOR_KINDS]
KERNELS += [("gaussian", 2, kind, proposal) for kind in PRIOR_KINDS for proposal in (1, 2)]
KERNELS += [("poisson", 3, "double_uniform", None), ("exponential", 2, "double_uniform", None)]


def reference_gaussian_logpost(data, spec, mu, sigma, weights, phi_sq, phi_sign, varpi, xi):
    """The uncached target, term by term: the prior factors in their fixed
    order, then the full transform and the likelihood."""
    k = len(weights)
    if not (sigma > 0 and abs(float(np.sum(weights)) - 1.0) <= 1e-9):
        return -math.inf
    lp = -math.log(sigma)
    lp += _log_dirichlet(weights, spec.alpha0)
    lp += _log_beta(phi_sq, *spec.phi_beta)
    if k == 2:
        lp += math.log(0.5)
    lp += log_varpi_density(varpi, k)
    lp += log_xi_density(spec, xi, k)
    if lp == -math.inf:
        return -math.inf
    locs, scales, _ = standard_arrays_from_angular(mu, sigma, weights, phi_sq, phi_sign, varpi, xi)
    return lp + loglik_gaussian_arrays(data.values, weights, locs, scales)


def reference_k2_logpost(data, spec, mu, sigma, p1, v, sign):
    """The two-component target over ``(mu, sigma, p1, v, sign)``, term by term,
    with ``v = (phi_sq, eta1_sq, eta2_sq)`` measured through ``eta1_sq``: the
    prior factors of each kind written out, then the component locations and
    scales of k = 2 and the likelihood."""
    phi_sq, eta1_sq, eta2_sq = v
    if sigma <= 0 or not 0.0 < p1 < 1.0 or min(phi_sq, eta1_sq, eta2_sq) <= 0.0 or phi_sq >= 1.0:
        return -math.inf
    weights = np.array([p1, 1.0 - p1])
    lp = -math.log(sigma)
    lp += _log_dirichlet(weights, spec.alpha0)
    lp += _log_beta(phi_sq, *spec.phi_beta)
    lp += math.log(0.5)
    if spec.kind == "single_uniform":
        lp += -math.log(1.0 - phi_sq)
    else:
        lp += -math.log(math.pi) - 0.5 * math.log(eta1_sq) - 0.5 * math.log(eta2_sq)
    if lp == -math.inf:
        return -math.inf
    phi = sign * math.sqrt(phi_sq)
    sq = np.sqrt(weights)
    locs = mu + sigma * np.array([-phi * sq[1], phi * sq[0]]) / sq
    scales = sigma * np.sqrt([eta1_sq, eta2_sq]) / sq
    return lp + loglik_gaussian_arrays(data.values, weights, locs, scales)


def k2_tolerance(v):
    """Relative tolerance of ``_k2_logpost`` against :func:`reference_k2_logpost`.

    The program reaches the scale pair through ``1 - phi_sq`` and the angle
    ``xi``, as the general target does, so a few ulps times
    ``1/(1 - phi_sq) + 1/cos xi`` of relative error carry into the component
    scales and the density of ``xi``.  The tolerance is 1e-13 wherever that
    sum is at most 100 (``1 - phi_sq`` and ``cos xi`` both at least 0.02),
    and grows toward ``phi_sq = 1`` and ``eta1_sq = 0``.
    """
    one_minus = 1.0 - v[0]
    condition = 1.0 / one_minus + math.sqrt(one_minus / v[1])
    return 1e-15 * max(100.0, condition)


def assert_k2_close(value, reference, v):
    if reference == -math.inf:
        assert value == -math.inf
    else:
        assert abs(value - reference) <= k2_tolerance(v) * abs(reference)


def reference_rate_logpost(data, spec, family, lam, gamma, weights):
    if not (lam > 0 and np.all(gamma >= MIN_WEIGHT) and np.all(weights >= MIN_WEIGHT)):
        return -math.inf
    lp = -math.log(lam)
    lp += _log_dirichlet(gamma, spec.gamma_dirichlet_alpha)
    lp += _log_dirichlet(weights, spec.alpha0)
    if lp == -math.inf:
        return -math.inf
    loglik = loglik_poisson_arrays if family == "poisson" else loglik_exponential_arrays
    return lp + loglik(data, weights, lam * gamma / weights)


def make_kernel(family, k, kind, proposal=None):
    rng = np.random.default_rng(17)
    if family == "gaussian":
        values = np.concatenate([rng.normal(-4.0, 1.0, 25), rng.normal(5.0, 2.0, 25)])
        build = _gaussian_kernel if proposal is None else _gaussian_k2_kernel
    elif family == "poisson":
        values = rng.poisson(rng.choice([1.0, 4.0, 12.0], size=60)).astype(float)
        build = _rate_kernel
    else:
        values = rng.exponential(rng.choice([1.0, 5.0], size=60))
        build = _rate_kernel
    data, spec = Dataset(values), PriorSpec(kind=kind)
    config = RunConfig(iterations=10, burn_in=0, proposal=proposal)
    return build(data, family, k, spec, config), data, spec


def fields(state):
    return {name: value for name, value in state.items() if name != "cache"}


def gaussian_fields(state):
    """The arguments of ``_gaussian_logpost`` in a Gaussian state: all fields but
    the k = 2 kernel's scale simplex ``v`` and its log-Jacobian."""
    return {name: value for name, value in fields(state).items() if name not in ("v", "log_jac")}


def k2_args(state):
    """``(mu, sigma, p1, v, sign)`` of a k = 2 kernel state, as the uncached k = 2
    targets take them."""
    return state["mu"], state["sigma"], state["weights"][0], state["v"], state["phi_sign"]


def k2_target(data, spec, state, cache=None):
    """The k = 2 kernel's target without the kernel: the general one less the
    state's log-Jacobian."""
    return _gaussian_logpost(data, spec, **gaussian_fields(state), cache=cache) - state["log_jac"]


def uncached(family, data, spec, state):
    """``(cache-free target, reference)`` for one state."""
    if "log_jac" in state:
        bare = k2_target(data, spec, state)
        # the uncached k = 2 target at the same state gives the same bits
        assert float(_k2_logpost(data, spec, *k2_args(state))).hex() == float(bare).hex()
        return bare, reference_k2_logpost(data, spec, *k2_args(state))
    if family == "gaussian":
        return (_gaussian_logpost(data, spec, **fields(state)),
                reference_gaussian_logpost(data, spec, **fields(state)))
    return (_rate_logpost(data, spec, family, **fields(state)),
            reference_rate_logpost(data, spec, family, **fields(state)))


def first_state(kernel, rng):
    _, target, init, _ = kernel
    while True:
        state = init(rng)
        if state is not None and math.isfinite(target(state)):
            return state


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(KERNELS),
    seed=st.integers(0, 2**32 - 1),
    moves=st.lists(
        st.tuples(st.integers(0, 7), st.floats(-6.0, 3.0), st.booleans()),
        min_size=1, max_size=40,
    ),
)
def test_cached_target_matches_cache_free_and_reference_bits(case, seed, moves):
    # each move: a block, its scale as a power of ten times the initial one
    # (wide and narrow enough to leave the support), and whether a finite
    # proposal is accepted
    family, k, kind, proposal = case
    kernel, data, spec = make_kernel(family, k, kind, proposal)
    blocks, target, _, row = kernel
    rng = np.random.default_rng(seed)
    state = first_state(kernel, rng)
    for index, log10_scale, accept in moves:
        block = blocks[index % len(blocks)]
        scale = None if block.scale is None else block.scale * 10.0**log10_scale
        proposed, _ = block.propose(rng, state, scale)
        if proposed is None:
            continue
        cached = target(proposed)
        bare, reference = uncached(family, data, spec, proposed)
        if proposal is None:
            assert cached.hex() == float(bare).hex() == float(reference).hex()
        else:
            assert cached.hex() == float(bare).hex()
            assert_k2_close(cached, reference, proposed["v"])
        if accept and math.isfinite(cached):
            state = proposed
            recorded = row(state)
            if proposal is not None:
                v = state["v"]
                xi = np.array([math.atan2(math.sqrt(v[2]), math.sqrt(v[1]))])
                weights = np.array([state["weights"][0], 1.0 - state["weights"][0]])
                locs, scales, _ = standard_arrays_from_angular(
                    state["mu"], state["sigma"], weights, float(v[0]), state["phi_sign"],
                    np.empty(0), xi)
                assert np.array_equal(recorded["scales"], scales)
                assert np.array_equal(recorded["weights"], weights)
                assert np.array_equal(recorded["xi"], xi) and recorded["phi_sq"] == v[0]
                assert "v" not in recorded and "log_jac" not in recorded
            elif family == "gaussian":
                locs, scales, _ = standard_arrays_from_angular(
                    state["mu"], state["sigma"], state["weights"], state["phi_sq"],
                    state["phi_sign"], state["varpi"], state["xi"])
                assert np.array_equal(recorded["scales"], scales)
            else:
                locs = state["lam"] * state["gamma"] / state["weights"]
            assert np.array_equal(recorded["locs"], locs)
            assert "cache" not in recorded


def _unchanged(snapshot, state):
    return all(
        state[name] is value and np.array_equal(np.asarray(value), copy, equal_nan=True)
        for name, (value, copy) in snapshot.items()
    )


def _snapshot(state):
    return {name: (value, np.array(value, copy=True)) for name, value in state.items()
            if name != "cache"}


@pytest.mark.parametrize(
    "case", KERNELS, ids=lambda c: "-".join(str(x) for x in c if x is not None))
def test_no_block_mutates_a_state_in_place(case):
    # the caches key on object identity, which is sound only while a value,
    # once in a state, is never written to
    kernel, _, _ = make_kernel(*case)
    blocks, target, _, _ = kernel
    rng = np.random.default_rng(5)
    state = first_state(kernel, rng)
    for _ in range(30):
        for block in blocks:
            before, cache_before = _snapshot(state), dict(state["cache"])
            proposed, _ = block.propose(rng, state, block.scale)
            if proposed is not None:
                # a block replaces one field (the k = 2 radius also redraws the sign, and
                # the k = 2 scale simplex also sets the angles and log-Jacobian it maps to)
                moved = {name for name in fields(state) if proposed[name] is not state[name]}
                if "v" in moved:
                    moved -= {"phi_sq", "xi", "log_jac"}
                assert len(moved - {"phi_sign"}) <= 1
                proposal_before = _snapshot(proposed)
                target(proposed)
                assert _unchanged(proposal_before, proposed)
            assert _unchanged(before, state)
            assert state["cache"].keys() == cache_before.keys()
            assert all(state["cache"][key] is entry for key, entry in cache_before.items())
            if proposed is not None and rng.random() < 0.5:
                state = proposed


def _k2_states(rng, count):
    """Random two-component states, from the bulk to the edges of the simplex,
    plus boundary states outside the support."""
    for _ in range(count):
        v = rng.dirichlet(np.full(3, 10.0 ** rng.uniform(-1.5, 2.0)))
        yield rng.normal(0.0, 5.0), math.exp(rng.normal(1.0, 1.0)), rng.beta(0.8, 0.8), v
    bulk = np.array([0.3, 0.5, 0.2])
    for p1 in (0.0, 1.0, 1e-13, 1.0 - 1e-13):  # the last two leave the Dirichlet's support
        yield 0.0, 2.0, p1, bulk
    edges = ([1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.3, 0.0, 0.7], [0.3, 0.7, 0.0], [1.0, 1e-9, 1e-9])
    for v in edges:
        yield 0.0, 2.0, 0.4, np.array(v)
    yield 0.0, 0.0, 0.4, bulk
    yield 0.0, -1.0, 0.4, bulk


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("kind", PRIOR_KINDS)
def test_k2_target_matches_the_term_by_term_formula(kind, sign):
    # the k = 2 target is the general one less the Jacobian of xi -> eta1_sq;
    # the reference keeps the kind-specific factors and the k = 2 transform
    rng = np.random.default_rng(23)
    data = Dataset(np.concatenate([rng.normal(-8.0, 2.0, 33), rng.normal(-0.5, 1.0, 17)]))
    spec = PriorSpec(kind=kind)
    finite = 0
    for mu, sigma, p1, v in _k2_states(rng, 1000):
        value = _k2_logpost(data, spec, mu, sigma, p1, v, sign)
        reference = reference_k2_logpost(data, spec, mu, sigma, p1, v, sign)
        assert value != math.inf
        assert_k2_close(value, reference, v)
        finite += math.isfinite(reference)
    assert finite > 900


def closed_form_k3(mu, sigma, p, phi_sq, varpi, xi):
    """Component locations and scales of a three-component state, written out.

    The hyperplane basis is the one of ``transforms.build_basis``'s docstring,
    ``F_1 = (-sqrt(p_2), sqrt(p_1), 0) / sqrt(p_1 + p_2)`` and
    ``F_2 = (-sqrt(p_1 p_3), -sqrt(p_2 p_3), p_1 + p_2) / sqrt(p_1 + p_2)``;
    ``gamma = phi (cos varpi F_1 + sin varpi F_2)`` and
    ``eta = sqrt(1 - phi^2) (cos xi_1, sin xi_1 cos xi_2, sin xi_1 sin xi_2)``.
    """
    p1, p2, p3 = p
    head = math.sqrt(p1 + p2)
    f1 = np.array([-math.sqrt(p2), math.sqrt(p1), 0.0]) / head
    f2 = np.array([-math.sqrt(p1 * p3), -math.sqrt(p2 * p3), p1 + p2]) / head
    gamma = math.sqrt(phi_sq) * (math.cos(varpi) * f1 + math.sin(varpi) * f2)
    x1, x2 = xi
    eta = math.sqrt(1.0 - phi_sq) * np.array(
        [math.cos(x1), math.sin(x1) * math.cos(x2), math.sin(x1) * math.sin(x2)]
    )
    return mu + sigma * gamma / np.sqrt(p), sigma * eta / np.sqrt(p)


def test_k3_locations_and_scales_match_the_closed_form():
    # the cached target and standard_arrays_from_angular run the same pieces of
    # transforms, so this written-out map is their independent reference
    rng = np.random.default_rng(29)
    data = Dataset(rng.normal(0.0, 3.0, 20))
    spec = PriorSpec()
    for _ in range(300):
        weights = rng.dirichlet(np.full(3, 3.0))
        mu, sigma = rng.normal(0.0, 5.0), math.exp(rng.normal(0.0, 1.0))
        phi_sq = rng.uniform(0.0, 1.0)
        varpi = np.array([rng.uniform(0.0, 2 * math.pi)])
        xi = rng.uniform(0.0, math.pi / 2, size=2)
        want_locs, want_scales = closed_form_k3(mu, sigma, weights, phi_sq, varpi[0], xi)
        locs, scales, _ = standard_arrays_from_angular(mu, sigma, weights, phi_sq, 1, varpi, xi)
        cache = {}
        assert math.isfinite(_gaussian_logpost(data, spec, mu, sigma, weights, phi_sq, 1,
                                               varpi, xi, cache))
        for got in (locs, cache["mu"][1]):
            np.testing.assert_allclose(got, want_locs, rtol=1e-12, atol=1e-12)
        for got in (scales, cache["sigma"][2]):
            np.testing.assert_allclose(got, want_scales, rtol=1e-12, atol=1e-12)


def _bad_values(state):
    """A value outside the support for each field of ``state`` that has one."""
    scalars = {"sigma": -1.0, "lam": -1.0, "phi_sq": 1.0}
    out = {name: scalars[name] for name in fields(state) if name in scalars}
    for name in ("weights", "gamma"):  # below the smallest weight
        if name in state:
            out[name] = np.full(len(state[name]), MIN_WEIGHT / 2)
    for name in ("xi", "varpi"):  # below the angles' range
        if name in state and len(state[name]):
            out[name] = np.full(len(state[name]), -0.1)
    return out


@pytest.mark.parametrize(
    "case", KERNELS, ids=lambda c: "-".join(str(x) for x in c if x is not None))
def test_a_refused_call_leaves_no_entry_taken_for_current(case):
    # one cache serves every call: a call that moves one field to a valid value
    # and another out of the support returns -inf; the next call, with only the
    # valid move, and a revert to the first state must still give the cache-free
    # values, bit for bit
    family, k, kind, proposal = case
    kernel, data, spec = make_kernel(family, k, kind, proposal)
    rng = np.random.default_rng(31)
    first, other = first_state(kernel, rng), first_state(kernel, rng)
    if proposal is not None:
        def call(state, cache):
            return k2_target(data, spec, state, cache)
    elif family == "gaussian":
        def call(state, cache):
            return _gaussian_logpost(data, spec, **fields(state), cache=cache)
    else:
        def call(state, cache):
            return _rate_logpost(data, spec, family, **fields(state), cache=cache)

    def bits(state, cache=None):
        return float(call(state, cache)).hex()

    bad = _bad_values(first)
    tried = 0
    for moved in fields(first):
        for broken, value in bad.items():
            if broken == moved:
                continue
            cache = {}
            assert bits(first, cache) == bits(first)
            refused = {**first, moved: other[moved], broken: value}
            assert call(refused, cache) == -math.inf
            valid = {**first, moved: other[moved]}
            assert bits(valid, cache) == bits(valid)
            assert bits(first, cache) == bits(first)
            tried += 1
    assert tried >= 6
