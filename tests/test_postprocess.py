"""Relabelling, switch detection, k-means, and summary tests."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mixanchor import StandardParams
from mixanchor.postprocess import (
    DrawMatrix,
    PermutationTrace,
    density_curve,
    detect_switching,
    find_map,
    kmeans,
    kmeans_summary,
    mcse_mean,
    relabel_map,
    summarise,
)


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
            kmeans(points, 3, n_restarts=5, seed=6)

    def test_summary_orders_by_location(self):
        rng = np.random.default_rng(7)
        T = 300
        locs = np.stack([rng.normal(-4, 0.01, T), rng.normal(3, 0.01, T)], axis=1)
        dm = make_draws(locs, np.ones((T, 2)), np.tile([0.3, 0.7], (T, 1)))
        table = kmeans_summary(dm, 2, seed=8)
        assert table["columns"] == ["loc", "scale", "weight"]
        assert table["centres"][0, 0] < table["centres"][1, 0]
        np.testing.assert_allclose(table["medians"][:, 0], [-4, 3], atol=0.01)


class TestSummarise:
    def test_constant_chain(self):
        dm = make_draws(np.full((20, 2), 3.0))
        summary = summarise(dm)
        row = summary.stats["loc1"]
        assert row["mean"] == row["median"] == row["q025"] == row["q975"] == 3.0

    def test_uniform_grid_order_statistics(self):
        grid = np.arange(1.0, 101.0)
        locs = np.stack([grid, np.zeros(100)], axis=1)
        summary = summarise(make_draws(locs))
        row = summary.stats["loc1"]
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
                    s1.stats[f"{prefix}{old_idx + 1}"]
                    == s2.stats[f"{prefix}{new_idx + 1}"]
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
    from mixanchor.postprocess import draws_from_chain

    draws = draws_from_chain(example3_run.chains[0])
    map_params, _ = find_map(draws)
    relabelled, _ = relabel_map(draws, map_params)
    weight_means = relabelled.weights.mean(axis=0)
    loc_means = relabelled.locs.mean(axis=0)
    truth = {-4.5: 0.27, 10.0: 0.40, 3.0: 0.33}
    for loc, weight in zip(loc_means, weight_means):
        target = truth[min(truth, key=lambda t: abs(t - loc))]
        assert abs(weight - target) < 0.05
