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
from mixanchor.sampler import RunConfig, _gaussian_kernel, _rate_kernel
from mixanchor.transforms import standard_arrays_from_angular

KERNELS = [("gaussian", k, kind) for k in (2, 3, 4, 5) for kind in PRIOR_KINDS]
KERNELS += [("poisson", 3, "double_uniform"), ("exponential", 2, "double_uniform")]


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


def make_kernel(family, k, kind):
    rng = np.random.default_rng(17)
    if family == "gaussian":
        values = np.concatenate([rng.normal(-4.0, 1.0, 25), rng.normal(5.0, 2.0, 25)])
        build = _gaussian_kernel
    elif family == "poisson":
        values = rng.poisson(rng.choice([1.0, 4.0, 12.0], size=60)).astype(float)
        build = _rate_kernel
    else:
        values = rng.exponential(rng.choice([1.0, 5.0], size=60))
        build = _rate_kernel
    data, spec = Dataset(values), PriorSpec(kind=kind)
    return build(data, family, k, spec, RunConfig(iterations=10, burn_in=0)), data, spec


def fields(state):
    return {name: value for name, value in state.items() if name != "cache"}


def uncached(family, data, spec, state):
    """``(cache-free target, reference)`` for one state."""
    if family == "gaussian":
        return (_gaussian_logpost(data, spec, **fields(state)),
                reference_gaussian_logpost(data, spec, **fields(state)))
    return (_rate_logpost(data, spec, family, **fields(state)),
            reference_rate_logpost(data, spec, family, **fields(state)))


def first_state(kernel, rng):
    _, target, init, _ = kernel
    while True:
        state = init(rng)
        if math.isfinite(target(state)):
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
    family, k, kind = case
    kernel, data, spec = make_kernel(family, k, kind)
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
        assert cached.hex() == float(bare).hex() == float(reference).hex()
        if accept and math.isfinite(cached):
            state = proposed
            recorded = row(state)
            if family == "gaussian":
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


@pytest.mark.parametrize("case", KERNELS, ids=lambda c: "-".join(map(str, c)))
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
                # a block replaces one field (the k = 2 radius also redraws the sign)
                moved = {name for name in fields(state) if proposed[name] is not state[name]}
                assert len(moved - {"phi_sign"}) <= 1
                proposal_before = _snapshot(proposed)
                target(proposed)
                assert _unchanged(proposal_before, proposed)
            assert _unchanged(before, state)
            assert state["cache"].keys() == cache_before.keys()
            assert all(state["cache"][key] is entry for key, entry in cache_before.items())
            if proposed is not None and rng.random() < 0.5:
                state = proposed
