"""Relabelling, switch detection, k-means, and summary tests."""

import itertools
import math
import os
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixanchor import StandardParams, postprocess
from mixanchor.chainio import chain_from_csv
from mixanchor.likelihood import Dataset
from mixanchor.postprocess import (
    DENSITY_BLOCK_CELLS,
    KMEANS_MAX_ITER,
    KMEANS_RESTARTS,
    DrawMatrix,
    PermutationTrace,
    _column_medians,
    _d2_seeds,
    _lloyd,
    _solve_assignments,
    _summary_quantiles,
    density_curve,
    detect_switching,
    find_map,
    kmeans,
    kmeans_summary,
    mcse_mean,
    pool_draws,
    relabel_map,
    summarise,
)
from mixanchor.priors import PriorSpec
from mixanchor.sampler import RunConfig, mwg_exponential, mwg_gaussian, mwg_gaussian_k2


def make_draws(locs, scales=None, weights=None, logpost=None, family="gaussian"):
    locs = np.asarray(locs, dtype=float)
    T, k = locs.shape
    if weights is None:
        weights = np.full((T, k), 1.0 / k)
    if scales is None and family == "gaussian":
        scales = np.ones((T, k))
    if logpost is None:
        logpost = np.zeros(T)
    return DrawMatrix(
        family=family,
        weights=np.asarray(weights, dtype=float),
        locs=locs,
        scales=None if scales is None else np.asarray(scales, dtype=float),
        log_posterior=np.asarray(logpost, dtype=float),
    )


class TestFindMap:
    def test_single_draw(self):
        dm = make_draws([[1.0, 2.0]], logpost=[3.5])
        params, idx = find_map(dm)
        assert idx == 0
        np.testing.assert_allclose(params.locs, [1.0, 2.0])

    def test_increasing_posterior_picks_last(self):
        dm = make_draws(np.zeros((10, 2)), logpost=np.arange(10.0))
        _, idx = find_map(dm)
        assert idx == 9

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(0)
        lp = rng.normal(size=10**4)
        dm = make_draws(rng.normal(size=(10**4, 2)), logpost=lp)
        _, idx = find_map(dm)
        best, best_idx = -math.inf, -1
        for t, value in enumerate(lp):
            if value > best:
                best, best_idx = value, t
        assert idx == best_idx

    def test_tie_takes_earliest(self):
        dm = make_draws(np.zeros((5, 2)), logpost=[1.0, 2.0, 2.0, 0.0, 2.0])
        _, idx = find_map(dm)
        assert idx == 1


class TestRelabelMap:
    MAP = StandardParams("gaussian", [0.6, 0.3, 0.1], [-3.0, 0.0, 4.0], [1.0, 0.5, 2.0])

    def _draw_from(self, perm):
        perm = list(perm)
        return make_draws(
            [np.asarray(self.MAP.locs)[perm]],
            [np.asarray(self.MAP.scales)[perm]],
            [np.asarray(self.MAP.weights)[perm]],
        )

    def test_map_draw_keeps_identity(self):
        dm = self._draw_from([0, 1, 2])
        relabelled, trace = relabel_map(dm, self.MAP)
        assert tuple(trace.r[0]) == (0, 1, 2)
        np.testing.assert_allclose(relabelled.locs[0], self.MAP.locs)

    def test_swapped_draw_gets_transposition(self):
        dm = self._draw_from([1, 0, 2])
        relabelled, trace = relabel_map(dm, self.MAP)
        assert tuple(trace.r[0]) == (1, 0, 2)
        np.testing.assert_allclose(relabelled.locs[0], self.MAP.locs)
        np.testing.assert_allclose(relabelled.weights[0], self.MAP.weights)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_exhaustive_optimality(self, k):
        rng = np.random.default_rng(1)
        T = 150
        dm = make_draws(
            rng.normal(0, 3, (T, k)),
            np.exp(rng.normal(0, 0.3, (T, k))),
            rng.dirichlet(np.ones(k), T),
        )
        reference = StandardParams(
            "gaussian",
            np.full(k, 1.0 / k),
            np.linspace(-4.0, 4.0, k),
            np.linspace(0.5, 2.0, k),
        )
        relabelled, trace = relabel_map(dm, reference)
        ref = np.stack(
            [reference.locs, reference.scales, reference.weights], axis=1
        )
        for t in range(T):
            feats = np.stack([dm.locs[t], dm.scales[t], dm.weights[t]], axis=1)
            chosen = float(np.sum((feats[trace.r[t]] - ref) ** 2))
            for perm in itertools.permutations(range(k)):
                alt = float(np.sum((feats[list(perm)] - ref) ** 2))
                assert chosen <= alt + 1e-12

    def test_large_k_recovers_known_permutations(self):
        rng = np.random.default_rng(7)
        for k, T in ((9, 500), (10, 10_000)):
            reference = StandardParams(
                "gaussian",
                rng.dirichlet(np.ones(k)),
                10.0 * np.arange(k),
                np.linspace(0.5, 3.0, k),
            )
            # draw t stores reference component order[t, j] in slot j, so the
            # relabelling must pick the inverse permutation
            order = np.array([rng.permutation(k) for _ in range(T)])
            dm = make_draws(
                np.asarray(reference.locs)[order],
                np.asarray(reference.scales)[order],
                np.asarray(reference.weights)[order],
            )
            tracemalloc.start()
            try:
                relabelled, trace = relabel_map(dm, reference)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(trace.r, np.argsort(order, axis=1))
            for name in ("locs", "scales", "weights"):
                expected = np.tile(getattr(reference, name), (T, 1))
                np.testing.assert_array_equal(getattr(relabelled, name), expected)
            assert peak < 64e6


class TestDetectSwitching:
    def test_constant_trace(self):
        trace = PermutationTrace(np.tile([0, 1, 2], (10, 1)))
        report = detect_switching(trace)
        assert report.distinct_permutations == 1
        assert report.transitions == 0
        assert report.longest_constant_run == 10

    def test_alternating_trace(self):
        rows = [[0, 1], [1, 0]] * 5
        report = detect_switching(PermutationTrace(np.array(rows)))
        assert report.distinct_permutations == 2
        assert report.transitions == 9
        assert report.longest_constant_run == 1

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            PermutationTrace(np.array([[0, 0]]))

    def test_longest_run_matches_the_flag_loop(self):
        def loop_longest(r):
            longest = current = 1
            for flag in np.any(r[1:] != r[:-1], axis=1):
                current = 1 if flag else current + 1
                longest = max(longest, current)
            return longest

        rng = np.random.default_rng(17)
        perms = np.array(list(itertools.permutations(range(3))))
        traces = [perms[[0]], np.tile(perms[2], (40, 1)), perms[np.arange(60) % 2]]
        for _ in range(50):
            T = int(rng.integers(1, 200))
            # runs of random length, drawn from few permutations so neighbours often repeat
            traces.append(perms[np.repeat(rng.integers(0, 3, T), rng.integers(1, 9, T))])
        for r in traces:
            assert detect_switching(PermutationTrace(r)).longest_constant_run == loop_longest(r)

    def test_distinct_count_matches_np_unique(self):
        # up to k = 20, where a base-k code of a row would overflow int64
        rng = np.random.default_rng(19)
        for k in (2, 3, 5, 20):
            pool = np.array([rng.permutation(k) for _ in range(6)])
            for T in (1, 2, 37, 400):
                r = pool[rng.integers(0, len(pool), T)]
                report = detect_switching(PermutationTrace(r))
                assert report.distinct_permutations == len(np.unique(r, axis=0))


def test_summary_quantiles_and_medians_are_numpy_bits():
    # numpy's own functions import numpy.ma; these replicas must not move a bit,
    # signed zeros and NaNs included
    rng = np.random.default_rng(23)
    for n in (*range(1, 40), 101, 2000, 5001):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4)
        for values in (x, np.round(x), np.round(x) * 0.0):
            want = np.percentile(values, [2.5, 50.0, 97.5])
            assert want.tobytes() == _summary_quantiles(values).tobytes()
        points = rng.standard_normal((n, 3))
        for values in (points, np.round(points) * 0.0):
            assert np.median(values, axis=0).tobytes() == _column_medians(values).tobytes()
        points[rng.integers(n), 1] = np.nan
        assert np.median(points, axis=0).tobytes() == _column_medians(points).tobytes()


class TestKmeans:
    def test_recovers_tight_clusters(self):
        rng = np.random.default_rng(2)
        centres = np.array([[-5.0, 0.0], [0.0, 1.0], [6.0, -2.0]])
        points = np.concatenate(
            [c + 1e-7 * rng.normal(size=(50, 2)) for c in centres]
        )
        fit_centres, labels, obj, history = kmeans(points, 3, seed=3)
        order = np.argsort(fit_centres[:, 0])
        np.testing.assert_allclose(fit_centres[order], centres, atol=1e-6)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(500, 3))
        _, _, _, history = kmeans(points, 4, seed=5)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_empty_cluster_degeneracy_raises(self):
        points = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]])
        with pytest.raises(ValueError, match="empty cluster"):
            kmeans(points, 3, seed=6)

    def test_summary_orders_by_location(self):
        rng = np.random.default_rng(7)
        T = 300
        locs = np.stack([rng.normal(-4, 0.01, T), rng.normal(3, 0.01, T)], axis=1)
        dm = make_draws(locs, np.ones((T, 2)), np.tile([0.3, 0.7], (T, 1)))
        table = kmeans_summary(dm, seed=8)
        assert table["columns"] == ["loc", "scale", "weight"]
        assert table["centres"][0, 0] < table["centres"][1, 0]
        np.testing.assert_allclose(table["medians"][:, 0], [-4, 3], atol=0.01)


class TestSummarise:
    def test_constant_chain(self):
        dm = make_draws(np.full((20, 2), 3.0))
        row = summarise(dm)["loc1"]
        assert row["mean"] == row["median"] == row["q025"] == row["q975"] == 3.0

    def test_uniform_grid_order_statistics(self):
        grid = np.arange(1.0, 101.0)
        locs = np.stack([grid, np.zeros(100)], axis=1)
        row = summarise(make_draws(locs))["loc1"]
        assert row["median"] == pytest.approx(50.5, abs=1e-12)
        assert row["q025"] == pytest.approx(3.475, abs=1e-12)
        assert row["q975"] == pytest.approx(97.525, abs=1e-12)

    def test_component_permutation_permutes_tables(self):
        rng = np.random.default_rng(9)
        locs = rng.normal(size=(50, 3))
        scales = np.exp(rng.normal(size=(50, 3)))
        weights = rng.dirichlet(np.ones(3), 50)
        dm = make_draws(locs, scales, weights)
        perm = [2, 0, 1]
        dm_perm = make_draws(locs[:, perm], scales[:, perm], weights[:, perm])
        s1, s2 = summarise(dm), summarise(dm_perm)
        for new_idx, old_idx in enumerate(perm):
            for prefix in ("loc", "scale", "p"):
                assert (
                    s1[f"{prefix}{old_idx + 1}"]
                    == s2[f"{prefix}{new_idx + 1}"]
                )


class TestDensityCurve:
    def test_single_draw_is_its_density(self):
        dm = make_draws([[0.0, 2.0]], [[1.0, 0.5]], [[0.3, 0.7]])
        grid = np.linspace(-5, 5, 101)
        curve = density_curve(dm, grid)
        expected = 0.3 * np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi) + 0.7 * np.exp(
            -0.5 * ((grid - 2) / 0.5) ** 2
        ) / (0.5 * math.sqrt(2 * math.pi))
        np.testing.assert_allclose(curve, expected, atol=1e-12)

    def test_duplicated_draw_changes_nothing(self):
        dm1 = make_draws([[0.0, 2.0]], [[1.0, 0.5]], [[0.3, 0.7]])
        dm2 = make_draws(
            [[0.0, 2.0]] * 2, [[1.0, 0.5]] * 2, [[0.3, 0.7]] * 2
        )
        grid = np.linspace(-4, 4, 61)
        np.testing.assert_allclose(
            density_curve(dm1, grid), density_curve(dm2, grid), atol=1e-14
        )

    def test_integrates_to_one(self):
        rng = np.random.default_rng(10)
        T = 50
        locs = rng.normal(0, 2, (T, 2))
        scales = np.exp(rng.normal(0, 0.2, (T, 2)))
        dm = make_draws(locs, scales, rng.dirichlet(np.ones(2), T))
        lo = locs.min() - 8 * scales.max()
        hi = locs.max() + 8 * scales.max()
        grid = np.linspace(lo, hi, 4001)
        curve = density_curve(dm, grid)
        mass = float(np.sum(np.diff(grid) * 0.5 * (curve[1:] + curve[:-1])))
        assert mass == pytest.approx(1.0, abs=1e-3)


def test_mcse_mean_matches_iid_rate():
    rng = np.random.default_rng(11)
    x = rng.normal(size=30000)
    se = mcse_mean(x)
    assert se == pytest.approx(1.0 / math.sqrt(len(x)), rel=0.4)


def test_relabelling_breaks_weight_exchangeability(example3_run):
    # before relabelling the three weight chains are exchangeable; afterwards
    # they separate back to the component weights, matched by location
    draws = pool_draws([example3_run.chains[0]])
    map_params, _ = find_map(draws)
    relabelled, _ = relabel_map(draws, map_params)
    weight_means = relabelled.weights.mean(axis=0)
    loc_means = relabelled.locs.mean(axis=0)
    truth = {-4.5: 0.27, 10.0: 0.40, 3.0: 0.33}
    for loc, weight in zip(loc_means, weight_means):
        target = truth[min(truth, key=lambda t: abs(t - loc))]
        assert abs(weight - target) < 0.05


# --------------------------------------------------------------------------
# the batched assignment solver against scipy's linear_sum_assignment


def _scipy_assignments(cost):
    from scipy.optimize import linear_sum_assignment

    return np.array([linear_sum_assignment(c)[1] for c in cost], dtype=np.int64).reshape(
        cost.shape[:2]
    )


def _cost_batch(kind, T, k, rng):
    """(T, k, k) costs of one kind; every kind keeps each problem feasible."""
    if kind == "normal":
        return rng.normal(size=(T, k, k))
    if kind == "small_int":  # many ties
        return rng.integers(0, 3, size=(T, k, k)).astype(float)
    if kind == "constant":
        return np.full((T, k, k), float(rng.integers(0, 3)))
    if kind == "duplicated":  # equal components: two or more identical columns
        cost = rng.integers(0, 4, size=(T, k, k)).astype(float)
        cost[:, :, : (k + 1) // 2] = cost[:, :, :1]
        return cost
    # "inf": +inf entries off one random permutation, which stays finite
    cost = rng.integers(0, 3, size=(T, k, k)).astype(float)
    blocked = rng.random((T, k, k)) < 0.4
    for t in range(T):
        blocked[t, np.arange(k), rng.permutation(k)] = False
    cost[blocked] = np.inf
    return cost


KINDS = ["normal", "small_int", "constant", "duplicated", "inf"]


class TestAssignmentSolver:
    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 9), T=st.integers(1, 40), kind=st.sampled_from(KINDS),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_choices(self, k, T, kind, seed):
        cost = _cost_batch(kind, T, k, np.random.default_rng(seed))
        np.testing.assert_array_equal(_solve_assignments(cost), _scipy_assignments(cost))

    @pytest.mark.parametrize("k", [12, 20])
    def test_matches_scipy_at_larger_k(self, k):
        rng = np.random.default_rng(k)
        for kind in KINDS:
            cost = _cost_batch(kind, 200, k, rng)
            np.testing.assert_array_equal(_solve_assignments(cost), _scipy_assignments(cost))

    def test_empty_batch(self):
        assert _solve_assignments(np.zeros((0, 3, 3))).shape == (0, 3)

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "NaN or -inf"),
        (-np.inf, "NaN or -inf"),
        ("row", "infinitely far"),
        ("column", "infinitely far"),
    ])
    def test_failure_names_the_first_failing_draw(self, bad, message):
        rng = np.random.default_rng(3)
        cost = rng.random((10, 4, 4))
        for t in (7, 4):  # draws 4 and 7 fail; the message names 4
            if bad == "row":
                cost[t, 2] = np.inf
            elif bad == "column":
                cost[t, :, 1] = np.inf
            else:
                cost[t, 1, 3] = bad
        with pytest.raises(ValueError, match=f"pooled draw 4: .*{message}"):
            _solve_assignments(cost)
        from scipy.optimize import linear_sum_assignment

        with pytest.raises(ValueError):
            linear_sum_assignment(cost[4])

    def test_infeasible_without_an_infinite_row_or_column(self):
        # rows 0 and 1 can only use column 0: no row or column is all +inf,
        # yet no assignment is finite
        cost = np.full((2, 3, 3), 1.0)
        cost[1, :2, 1:] = np.inf
        with pytest.raises(ValueError, match="pooled draw 1: .*infinitely far"):
            _solve_assignments(cost)


def _workload_draws():
    """Pooled post-burn-in draws of the four benchmark workloads at seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    pooled = {}
    for name, w in workloads.WORKLOADS.items():
        if not w.is_fit:
            with tempfile.TemporaryDirectory() as tmp:
                workloads.make_k5_chains(Path(tmp), [1, 0])
                chains = [chain_from_csv(p, family="gaussian", burn_in=0)
                          for p in sorted(Path(tmp).glob("chain_*.csv"))]
            pooled[name] = pool_draws(chains)
            continue
        data = Dataset(workloads.make_data(w, 1))
        config = RunConfig(iterations=w.iterations, burn_in=w.burn_in, n_chains=w.chains,
                           seed=1, proposal=w.proposal or 1)
        if w.family == "exponential":
            result = mwg_exponential(data, w.k, PriorSpec(), config)
        elif w.proposal is not None:
            result = mwg_gaussian_k2(data, PriorSpec(), config)
        else:
            result = mwg_gaussian(data, w.k, PriorSpec(), config)
        pooled[name] = pool_draws(result.chains)
    return pooled


def test_relabel_trace_matches_the_per_draw_scipy_loop_on_workload_inputs():
    for name, dm in _workload_draws().items():
        map_params, _ = find_map(dm)
        _, trace = relabel_map(dm, map_params)
        points = np.stack([dm.locs] + ([] if dm.scales is None else [dm.scales]) + [dm.weights], -1)
        ref = np.stack([map_params.locs] + ([] if dm.scales is None else [map_params.scales])
                       + [map_params.weights], -1)
        cost = np.einsum("tijb,tijb->tij", points[:, None] - ref[None, :, None],
                         points[:, None] - ref[None, :, None])
        np.testing.assert_array_equal(trace.r, _scipy_assignments(cost), err_msg=name)


# --------------------------------------------------------------------------
# k-means: the row-wise Lloyd step against the original (N, k, B) loop


def reference_lloyd(points, centres, max_iter=300):
    """The original Lloyd loop over (N, B) points: (N, k, B) differences,
    per-cluster ``mean``.  Returns ``(centres, labels, history)`` or ``None``
    when a cluster empties."""
    history = []
    labels = None
    for _ in range(max_iter):
        d2 = np.sum((points[:, None, :] - centres[None]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(np.sum(d2[np.arange(len(points)), new_labels])))
        counts = np.bincount(new_labels, minlength=len(centres))
        if np.any(counts == 0):
            return None
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centres = np.stack(
            [points[labels == j].mean(axis=0) for j in range(len(centres))]
        )
    return centres, labels, history


def assert_same_run(expected, got):
    if expected is None:
        assert got is None
        return
    assert got is not None
    # equal as floats: a cluster whose coordinate is -0.0 at every point has
    # a mean of -0.0 and a bincount sum of +0.0, which compare equal
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])
    assert got[2] == expected[2]


@st.composite
def lloyd_inputs(draw):
    """Points (N, B), initial centres (k, B) picked among them, and max_iter.

    ``ties`` snaps the points to a coarse grid, so many coincide; initial
    centres are drawn with replacement, so two of them may coincide and
    collapse a cluster at once.
    """
    b = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(2, 8))
    n = draw(st.integers(k, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_clusters = draw(st.integers(1, 10))
    spread = draw(st.sampled_from([1e-8, 0.1, 1.0, 10.0]))
    middles = rng.normal(0.0, 5.0, size=(n_clusters, b))
    points = middles[rng.integers(n_clusters, size=n)] + spread * rng.normal(size=(n, b))
    if draw(st.booleans()):  # ties
        points = np.round(points)
    scale = draw(st.sampled_from([1e-300, 1.0, 1e150]))
    points = points * scale
    idx = rng.integers(n, size=k) if draw(st.booleans()) else rng.choice(n, k, replace=False)
    return points, points[idx], draw(st.sampled_from([1, 2, 300]))


@st.composite
def small_float_inputs(draw):
    """Few points of arbitrary finite floats, zeros of both signs included."""
    b = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 12))
    value = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)
    flat = draw(st.lists(value, min_size=n * b, max_size=n * b))
    points = np.array(flat, dtype=float).reshape(n, b)
    idx = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    return points, points[idx], 300


class TestLloydParity:
    @settings(max_examples=150, deadline=None)
    @given(lloyd_inputs())
    def test_rowwise_step_matches_reference(self, inputs):
        points, centres, max_iter = inputs
        rows = np.ascontiguousarray(points.T)
        assert_same_run(
            reference_lloyd(points, centres, max_iter), _lloyd(rows, centres, max_iter)
        )

    @settings(max_examples=300, deadline=None)
    @given(small_float_inputs())
    def test_arbitrary_floats_match_reference(self, inputs):
        points, centres, max_iter = inputs
        rows = np.ascontiguousarray(points.T)
        assert_same_run(
            reference_lloyd(points, centres, max_iter), _lloyd(rows, centres, max_iter)
        )

    def test_history_is_bitwise_identical_on_separated_clusters(self):
        rng = np.random.default_rng(12)
        middles = np.array([[-24.0, 1.0, 0.12], [-11.0, 1.5, 0.18], [0.0, 0.8, 0.22],
                            [12.0, 2.0, 0.28], [26.0, 1.2, 0.2]])
        points = np.repeat(middles, 400, axis=0) + 0.25 * rng.normal(size=(2000, 3))
        centres = points[[0, 1, 2, 3, 1999]]  # two starts in one cluster
        expected = reference_lloyd(points, centres)
        got = _lloyd(np.ascontiguousarray(points.T), centres, 300)
        assert [h.hex() for h in got[2]] == [h.hex() for h in expected[2]]
        assert got[0].tobytes() == expected[0].tobytes()


class TestD2Seeding:
    def test_seeds_are_distinct_points(self):
        rng = np.random.default_rng(13)
        # heavy ties: 6 distinct points, each repeated many times
        distinct = rng.normal(size=(6, 3))
        points = distinct[rng.integers(6, size=600)]
        rows = np.ascontiguousarray(points.T)
        for k in range(2, 7):
            seeds = _d2_seeds(rows, k, np.random.default_rng(k))
            assert seeds.shape == (k, 3)
            assert len(np.unique(seeds, axis=0)) == k
            for centre in seeds:
                assert np.any(np.all(points == centre, axis=1))

    def test_fewer_distinct_points_than_k_collapses(self):
        points = np.repeat([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]], 20, axis=0)
        rows = np.ascontiguousarray(points.T)
        assert _d2_seeds(rows, 4, np.random.default_rng(0)) is None
        with pytest.raises(ValueError, match="every restart produced an empty cluster"):
            kmeans(points, 4, seed=1)

    def test_exactly_k_distinct_points_always_fit(self):
        # every seeding picks the k distinct values, so no restart collapses
        points = np.repeat([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]], [1, 50, 7], axis=0)
        centres, labels, objective, history = kmeans(points, 3, seed=2)
        assert objective == 0.0
        assert sorted(np.bincount(labels)) == [1, 7, 50]

    def test_same_seed_same_result(self):
        rng = np.random.default_rng(14)
        points = rng.normal(size=(700, 3))
        first = kmeans(points, 5, seed=21)
        second = kmeans(points, 5, seed=21)
        assert first[0].tobytes() == second[0].tobytes()
        np.testing.assert_array_equal(first[1], second[1])
        assert first[3] == second[3]

    def test_restart_ties_go_to_the_earliest(self):
        # two equally good optima; the best run must be the first restart
        # that reaches the smallest objective
        points = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        best = kmeans(points, 2, seed=3)
        rows = np.ascontiguousarray(points.T)
        rng = np.random.default_rng(3)
        runs = [_lloyd(rows, _d2_seeds(rows, 2, rng), KMEANS_MAX_ITER)
                for _ in range(KMEANS_RESTARTS)]
        first = min(range(KMEANS_RESTARTS), key=lambda i: (runs[i][2][-1], i))
        np.testing.assert_array_equal(best[0], runs[first][0])
        assert best[3] == runs[first][2]


K5_TRUTH = {
    "weights": np.array([0.12, 0.18, 0.22, 0.28, 0.20]),
    "locs": np.array([-24.0, -11.0, 0.0, 12.0, 26.0]),
    "scales": np.array([1.0, 1.5, 0.8, 2.0, 1.2]),
}


def k5_pooled_draws(seed, chains=4, draws=2500):
    """Four chains of 2500 draws around ``K5_TRUTH`` with block-wise label
    swaps, pooled: normal location noise (sd 0.25), log-normal scale noise
    (sd 0.05), Dirichlet(400 p) weights, and one random component order per
    block of 100-600 draws."""
    rng = np.random.default_rng(seed)
    k = 5
    parts = []
    for _ in range(chains):
        locs = K5_TRUTH["locs"] + 0.25 * rng.standard_normal((draws, k))
        scales = K5_TRUTH["scales"] * np.exp(0.05 * rng.standard_normal((draws, k)))
        weights = rng.dirichlet(400.0 * K5_TRUTH["weights"], size=draws)
        order = np.empty((draws, k), dtype=np.int64)
        start = 0
        while start < draws:
            stop = min(draws, start + int(rng.integers(100, 600, endpoint=True)))
            order[start:stop] = rng.permutation(k)
            start = stop
        rows = np.arange(draws)[:, None]
        parts.append((weights[rows, order], locs[rows, order], scales[rows, order]))
    weights, locs, scales = (np.concatenate(block) for block in zip(*parts))
    return make_draws(locs, scales, weights)


@pytest.mark.parametrize("seed", [[1, 2], [1, 3], [4, 2], [6, 3]])
def test_kmeans_summary_recovers_separated_k5_truth(seed):
    # uniformly seeded restarts put two centres into one cluster on these sets
    table = kmeans_summary(k5_pooled_draws(seed))
    np.testing.assert_allclose(table["medians"][:, 0], K5_TRUTH["locs"], atol=0.05)
    np.testing.assert_allclose(table["medians"][:, 1], K5_TRUTH["scales"], atol=0.05)
    np.testing.assert_allclose(table["medians"][:, 2], K5_TRUTH["weights"], atol=0.05)


# --------------------------------------------------------------------------
# density_curve against the original chunk formula


def reference_density(dm, grid):
    total = np.zeros_like(grid)
    chunk = max(1, 10**6 // max(len(grid), 1))
    for lo in range(0, len(dm), chunk):
        hi = min(lo + chunk, len(dm))
        w = dm.weights[lo:hi][:, :, None]
        locs = dm.locs[lo:hi][:, :, None]
        g = grid[None, None, :]
        if dm.family == "gaussian":
            s = dm.scales[lo:hi][:, :, None]
            dens = np.exp(-0.5 * ((g - locs) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        elif dm.family == "exponential":
            dens = np.exp(-g / locs) / locs
        else:
            from scipy.special import gammaln

            dens = np.exp(g * np.log(locs) - locs - gammaln(g + 1.0))
        total += np.sum(w * dens, axis=(0, 1))
    return total / len(dm)


class TestDensityParity:
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("family", ["gaussian", "exponential", "poisson"])
    def test_matches_reference_bitwise(self, family, layout):
        rng = np.random.default_rng(15)
        T, k = 4500, 3  # three chunks at 512 grid points
        weights = rng.dirichlet(np.ones(k), T)
        if family == "gaussian":
            locs = rng.normal(0.0, 3.0, (T, k))
            scales = np.exp(rng.normal(0.0, 0.3, (T, k)))
            grid = np.linspace(-12.0, 12.0, 512)
        else:
            locs = np.exp(rng.normal(1.0, 0.5, (T, k)))
            scales = None
            grid = np.arange(512.0) if family == "poisson" else np.linspace(0.0, 30.0, 512)
        order = np.ascontiguousarray if layout == "C" else np.asfortranarray
        dm = make_draws(order(locs), None if scales is None else order(scales),
                        order(weights), family=family)
        assert dm.locs.flags[f"{layout}_CONTIGUOUS"]
        assert density_curve(dm, grid).tobytes() == reference_density(dm, grid).tobytes()

    def test_peak_memory_bounded(self):
        rng = np.random.default_rng(16)
        T, k = 10_000, 5
        dm = make_draws(rng.normal(size=(T, k)), np.exp(rng.normal(0.0, 0.2, (T, k))),
                        rng.dirichlet(np.ones(k), T))
        grid = np.linspace(-6.0, 6.0, 512)
        tracemalloc.start()
        try:
            density_curve(dm, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    @pytest.mark.parametrize("size", ["one draw", "block - 1", "block", "block + 1", "chunk",
                                      "chunk + 1", "3 chunks + 17"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("family", ["gaussian", "exponential", "poisson"])
    def test_same_bytes_for_every_cpu_count(self, family, layout, size, monkeypatch):
        rng = np.random.default_rng(18)
        k, n_grid = 4, 512
        block = DENSITY_BLOCK_CELLS // n_grid // k  # draws per block
        chunk = 10**6 // n_grid
        T = {"one draw": 1, "block - 1": block - 1, "block": block, "block + 1": block + 1,
             "chunk": chunk, "chunk + 1": chunk + 1, "3 chunks + 17": 3 * chunk + 17}[size]
        weights = rng.dirichlet(np.ones(k), T)
        if family == "gaussian":
            locs = rng.normal(0.0, 3.0, (T, k))
            scales = np.exp(rng.normal(0.0, 0.3, (T, k)))
            grid = np.linspace(-12.0, 12.0, n_grid)
        else:
            locs = np.exp(rng.normal(1.0, 0.5, (T, k)))
            scales = None
            grid = np.arange(float(n_grid)) if family == "poisson" else np.linspace(0.0, 30.0, n_grid)
        order = np.ascontiguousarray if layout == "C" else np.asfortranarray
        dm = make_draws(order(locs), None if scales is None else order(scales),
                        order(weights), family=family)
        expected = reference_density(dm, grid).tobytes()
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                                raising=False)
            assert density_curve(dm, grid).tobytes() == expected, cpus

    def test_chunk_error_reaches_the_caller_and_threads_end(self, monkeypatch):
        chunk_density = postprocess._chunk_density
        threads = set()

        def failing(dm, grid, offset, lo, hi):
            threads.add(threading.get_ident())
            if lo > 0:
                raise FloatingPointError(f"chunk at draw {lo} failed")
            return chunk_density(dm, grid, offset, lo, hi)

        monkeypatch.setattr(postprocess, "_chunk_density", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rng = np.random.default_rng(19)
        T = 2 * (10**6 // 512) + 1  # three chunks
        dm = make_draws(rng.normal(size=(T, 2)))
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="^chunk at draw 1953 failed$"):
            density_curve(dm, np.linspace(-4.0, 4.0, 512))
        assert threading.active_count() == before
        assert threading.get_ident() not in threads

    def test_threads_keep_the_callers_error_handling(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        T = 2 * (10**6 // 512) + 1  # three chunks
        scales = np.ones((T, 2))
        scales[-1, 0] = 0.0  # its density divides by zero in the last chunk
        dm = make_draws(np.zeros((T, 2)), scales)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError, match="divide"):
            density_curve(dm, np.linspace(-4.0, 4.0, 512))
