"""Label-switching post-processing and posterior summaries.

An exchangeable prior makes the posterior invariant under permutations of
the component labels, so raw component-wise chains are meaningless once the
sampler hops between the k! symmetric modes.  Two remedies are provided:
re-labelling every draw toward the maximum-a-posteriori draw (smallest
Euclidean distance over the standard parameter blocks), and k-means
clustering of the pooled per-component triples.  Switch activity itself is
reported from the sequence of chosen permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .params import StandardParams
from .sampler import usable_cpus

__all__ = [
    "DrawMatrix",
    "PermutationTrace",
    "SwitchReport",
    "find_map",
    "relabel_map",
    "detect_switching",
    "kmeans",
    "kmeans_summary",
    "summarise",
    "density_curve",
    "mcse_mean",
]


@dataclass
class DrawMatrix:
    """Posterior draws in the standard parameterisation, as columns.

    ``scales`` is ``None`` for rate families.  ``extras`` carries the global
    scalar columns (``mu``, ``sigma``, ``phi_sq``, ``lam``) when available.
    """

    family: str
    weights: np.ndarray
    locs: np.ndarray
    scales: np.ndarray | None
    log_posterior: np.ndarray
    extras: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    def params(self, t: int) -> StandardParams:
        if self.family == "gaussian":
            return StandardParams(
                "gaussian", self.weights[t], self.locs[t], self.scales[t]
            )
        return StandardParams(self.family, self.weights[t], self.locs[t])


def pool_draws(chains) -> DrawMatrix:
    """One draw table from a list of chains of one family and ``k``: each
    chain past its burn-in, concatenated in chain order."""
    first = chains[0]

    def pooled(name):
        return np.concatenate([getattr(chain, name)[chain.burn_in:] for chain in chains])

    return DrawMatrix(
        family=first.family,
        weights=pooled("weights"),
        locs=pooled("locs"),
        scales=None if first.scales is None else pooled("scales"),
        log_posterior=pooled("log_posterior"),
        extras={name: pooled(name) for name in ("mu", "sigma", "phi_sq", "lam")
                if getattr(first, name) is not None},
    )


# --------------------------------------------------------------------------
# MAP relabelling


def find_map(draws: DrawMatrix) -> tuple[StandardParams, int]:
    """Draw with the highest stored log-posterior, the earliest of ties; refused if not finite."""
    if len(draws) == 0:
        raise ValueError("empty chain")
    idx = int(np.argmax(draws.log_posterior))  # the first NaN, if there is one
    if not math.isfinite(draws.log_posterior[idx]):
        raise ValueError(f"cannot pick the MAP draw: pooled draw {idx} has log_posterior "
                         f"{draws.log_posterior[idx]}")
    return draws.params(idx), idx


@dataclass(frozen=True)
class PermutationTrace:
    """Per-draw permutation chosen by the relabelling step.

    Row t holds the tuple ``r`` such that relabelled component j is the
    original component ``r[j]``.
    """

    r: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.r, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("trace must be (draws, k)")
        ref = np.arange(arr.shape[1])
        if not np.all(np.sort(arr, axis=1) == ref):
            raise ValueError("every row must be a permutation of 0..k-1")
        object.__setattr__(self, "r", arr)

    def __len__(self) -> int:
        return self.r.shape[0]


def _component_points(locs, scales, weights) -> np.ndarray:
    """Per-component ``(loc, scale, weight)`` points on a new last axis.

    The scale coordinate is left out when ``scales`` is ``None`` (rate
    families).  Works for one parameter set (k,) and for draws (T, k) alike.
    """
    blocks = [locs] if scales is None else [locs, scales]
    return np.stack(blocks + [weights], axis=-1)


# why a problem has no solution, by the code `_solve_assignments` gives it
_INVALID, _INFEASIBLE = 1, 2
_FAILURES = {
    _INVALID: "its distances to the MAP draw include NaN or -inf",
    _INFEASIBLE: "every matching of its components to the MAP draw's is infinitely far",
}


def _solve_assignments(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of every (k, k) problem in ``cost`` (T, k, k).

    Returns the (T, k) integer array whose row t gives, for each row i of
    ``cost[t]``, the column assigned to it.  This is the shortest augmenting
    path method of Crouse (2016), "On implementing 2D rectangular assignment
    algorithms", IEEE TAES 52(4), run on all T problems at once: rows are
    added one at a time, and each addition runs a Dijkstra search over
    reduced costs from the new row to a free column, for every problem still
    searching.  It makes the choices of ``scipy.optimize.linear_sum_assignment``
    for square matrices, ties included: unvisited columns are scanned in an
    order that starts reversed and takes a visited column's place by the
    last one, a tie for the lowest path cost goes to the last free column in
    that order (else the first column), and the potentials are updated with
    the same floating-point operations.

    Raises ``ValueError`` naming the first problem that holds a NaN or -inf
    cost, or that has no assignment of finite cost; +inf entries are allowed.
    """
    T, k = cost.shape[0], cost.shape[1]
    failure = np.where(np.any(np.isnan(cost) | (cost == -np.inf), axis=(1, 2)), _INVALID, 0)
    # problems run along the last axis: (k, T) arrays keep every reduction over
    # columns an elementwise operation across k contiguous rows
    rows_of = np.ascontiguousarray(cost, dtype=float).reshape(T * k, k)
    u = np.zeros((k, T))
    v = np.zeros((k, T))
    col4row = np.full((k, T), -1, dtype=np.intp)
    row4col = np.full((k, T), -1, dtype=np.intp)
    alive = np.flatnonzero(failure == 0)
    cols = np.arange(k)[:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        for cur in range(k):
            n = len(alive)
            uu, vv, c4r, r4c = u[:, alive], v[:, alive], col4row[:, alive], row4col[:, alive]
            # what each problem's search leaves: the path cost of every visited
            # column (NaN elsewhere), predecessor rows, minVal and the free column
            out_seen = np.empty((k, n))
            out_path = np.empty((k, n), dtype=np.intp)
            out_min = np.empty(n)
            out_sink = np.empty(n, dtype=np.intp)
            # the search state of the problems still searching, at local
            # positions `at`; `spc` is NaN at visited columns, which keeps them
            # out of the relaxation (NaN stays NaN) and of the minimum
            at = np.arange(n)
            row = np.full(n, cur, dtype=np.intp)
            min_val = np.zeros(n)
            spc = np.full((k, n), np.inf)
            seen = np.full((k, n), np.nan)
            path = np.full((k, n), -1, dtype=np.intp)
            reduced = np.empty((k, n))
            vvs = vv
            free = r4c < 0
            # scan order: column j sits at position pos[j] of `remaining`; among
            # tied columns the free one furthest along wins, else the first one:
            # that is the column with the largest `score`, whose remainder mod k
            # is the column itself
            remaining = np.repeat(cols[::-1], n, axis=1)
            pos = np.repeat(k - 1 - cols, n, axis=1)
            score = np.where(free, k + pos, k - 1 - pos) * k + cols + 1
            step = 0
            while len(at):
                idx = np.arange(len(at))
                np.add(min_val, np.take(rows_of, alive[at] * k + row, axis=0).T, out=reduced)
                reduced -= uu[row, at]
                reduced -= vvs
                better = reduced < spc
                np.minimum(spc, reduced, out=spc)
                path = np.where(better, row, path)
                lowest = spc == np.fmin.reduce(spc, axis=0)
                col = ((score * lowest).max(axis=0) - 1) % k
                min_val = spc[col, idx]
                seen[col, idx] = min_val
                spc[col, idx] = np.nan
                p = pos[col, idx]
                last = remaining[k - 1 - step]
                remaining[p, idx] = last
                pos[last, idx] = p
                score[last, idx] = np.where(free[last, idx], k + p, k - 1 - p) * k + last + 1
                done = free[col, idx] | (min_val == np.inf)
                if done.any():
                    where = at[done]
                    out_seen[:, where] = seen[:, done]
                    out_path[:, where] = path[:, done]
                    out_min[where] = min_val[done]
                    out_sink[where] = col[done]
                    keep = np.flatnonzero(~done)
                    at, min_val, col = at[keep], min_val[keep], col[keep]
                    spc, seen, path, vvs, free, remaining, pos, score = (
                        a.take(keep, axis=1)
                        for a in (spc, seen, path, vvs, free, remaining, pos, score)
                    )
                    reduced = np.empty((k, len(keep)))
                row = r4c[col, at]
                step += 1

            ok = out_min != np.inf
            failure[alive[~ok]] = _INFEASIBLE
            # dual update: u[cur] += minVal, u[i] += minVal - spc[col4row[i]] on the
            # other rows the search passed through, v[j] -= minVal - spc[j] on the
            # visited columns
            uu[cur] += out_min
            passed = np.take_along_axis(out_seen, c4r, axis=0)
            uu = np.where((c4r >= 0) & ~np.isnan(passed), uu + (out_min - passed), uu)
            vv = np.where(np.isnan(out_seen), vv, vv - (out_min - out_seen))
            # augment along the path from the free column back to row `cur`
            at = np.flatnonzero(ok)
            col = out_sink[at]
            while len(at):
                prev = out_path[col, at]
                r4c[col, at] = prev
                displaced = c4r[prev, at]
                c4r[prev, at] = col
                back = prev != cur
                at, col = at[back], displaced[back]
            u[:, alive], v[:, alive], col4row[:, alive], row4col[:, alive] = uu, vv, c4r, r4c
            alive = alive[ok]
    failed = np.flatnonzero(failure)
    if len(failed):
        t = int(failed[0])
        raise ValueError(f"cannot relabel pooled draw {t}: {_FAILURES[failure[t]]}; "
                         "check the chain for non-finite or huge values")
    return np.ascontiguousarray(col4row.T)


def relabel_map(draws: DrawMatrix,
                map_params: StandardParams) -> tuple[DrawMatrix, PermutationTrace]:
    """Permute each draw to minimise its distance to the reference draw.

    The distance is the Euclidean norm over the per-component ``(loc, scale,
    weight)`` points (``(loc, weight)`` for rate families), without
    standardisation.  It splits over components, so each draw's best
    permutation solves a k x k linear assignment problem, which is solved
    exactly for any k by ``_solve_assignments``.  Ties between equally distant
    permutations are broken deterministically, as scipy's
    ``linear_sum_assignment`` breaks them.  Raises ``ValueError`` naming the
    first draw whose distances are NaN or all matchings infinite.
    """
    points = _component_points(draws.locs, draws.scales, draws.weights)  # (T, k, B)
    ref = _component_points(
        map_params.locs,
        None if draws.scales is None else map_params.scales,
        map_params.weights,
    )  # (k, B)
    diff = points[:, None, :, :] - ref[None, :, None, :]
    # cost[t, i, j]: squared distance from original component j to reference component i
    cost = np.einsum("tijb,tijb->tij", diff, diff)
    trace = PermutationTrace(r=_solve_assignments(cost))

    rows = np.arange(len(draws))[:, None]
    relabelled = replace(
        draws,
        weights=draws.weights[rows, trace.r],
        locs=draws.locs[rows, trace.r],
        scales=None if draws.scales is None else draws.scales[rows, trace.r],
    )
    return relabelled, trace


@dataclass(frozen=True)
class SwitchReport:
    distinct_permutations: int
    transitions: int
    longest_constant_run: int


def detect_switching(trace: PermutationTrace) -> SwitchReport:
    """Summarise how often the relabelling permutation changes."""
    if len(trace) == 0:
        raise ValueError("empty permutation trace")
    r = trace.r
    distinct = len(np.unique(r, axis=0))
    changed = np.any(r[1:] != r[:-1], axis=1)
    transitions = int(np.sum(changed))
    run_starts = np.flatnonzero(changed) + 1
    longest = int(np.max(np.diff(run_starts, prepend=0, append=len(r))))
    return SwitchReport(
        distinct_permutations=distinct,
        transitions=transitions,
        longest_constant_run=longest,
    )


# --------------------------------------------------------------------------
# k-means summarisation


def _sq_dist_rows(rows: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Squared distances as a (k, N) array, one row per centre.

    ``rows`` holds the points as contiguous (B, N) coordinate rows.  The
    coordinate terms are added in coordinate order, so each value equals
    ``np.sum((point - centre) ** 2)`` over the last axis bit for bit.
    """
    d2 = np.square(rows[0] - centres[:, :1])
    term = np.empty_like(d2)
    for b in range(1, rows.shape[0]):
        np.subtract(rows[b], centres[:, b:b + 1], out=term)
        d2 += np.square(term, out=term)
    return d2


def _lloyd(rows: np.ndarray, centres: np.ndarray, max_iter: int):
    """Lloyd iterations from ``centres`` (k, B) over the (B, N) point rows.

    Returns ``(centres, labels, history)``, or ``None`` once a cluster is
    empty.  Each centre update adds its cluster's points in point order.
    """
    k, n = len(centres), rows.shape[1]
    history = []
    labels = None
    for _ in range(max_iter):
        d2 = _sq_dist_rows(rows, centres)
        new_labels = np.argmin(d2, axis=0)
        history.append(float(np.sum(d2[new_labels, np.arange(n)])))
        counts = np.bincount(new_labels, minlength=k)
        if np.any(counts == 0):
            return None
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sums = [np.bincount(labels, weights=row, minlength=k) for row in rows]
        centres = np.stack(sums, axis=1) / counts[:, None]
    return centres, labels, history


def _d2_seeds(rows: np.ndarray, k: int, rng) -> np.ndarray | None:
    """k-means++ seeding: k distinct points as (k, B) centres, or ``None``.

    The first centre is uniform over the points; each further one is drawn
    with probability proportional to the squared distance to its nearest
    chosen centre.  ``None`` means fewer than k distinct points remain to
    choose from (the distance total is not positive).
    """
    n = rows.shape[1]
    chosen = [int(rng.integers(n))]
    nearest = _sq_dist_rows(rows, rows[:, chosen].T)[0]
    for _ in range(1, k):
        cdf = np.cumsum(nearest)
        if not cdf[-1] > 0:
            return None
        cdf /= cdf[-1]
        chosen.append(int(np.searchsorted(cdf, rng.random(), side="right")))
        np.minimum(nearest, _sq_dist_rows(rows, rows[:, chosen[-1:]].T)[0], out=nearest)
    return rows[:, chosen].T.copy()


def kmeans(points: np.ndarray, k: int, n_restarts: int = 10, seed: int = 0,
           max_iter: int = 300):
    """Lloyd iterations from k-means++ seeds, with restarts.

    Each restart seeds its k centres by D² sampling (Arthur & Vassilvitskii
    2007) from one ``numpy.random.default_rng(seed)`` stream: the first
    centre is a uniformly chosen point, and each further centre is a point
    drawn with probability proportional to its squared distance to the
    nearest centre already chosen, so the seeds are k distinct points.

    Returns ``(centres, labels, objective, history)`` for the best restart,
    where ``history`` is that restart's within-cluster sum of squares after
    each iteration (never increasing).  Nearest-centre ties resolve to the
    lowest cluster index; ties between restarts resolve to the earliest.
    A restart collapses when the points hold fewer than k distinct points
    or a cluster empties; raises if every restart collapses.
    """
    rows = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_restarts):
        seeds = _d2_seeds(rows, k, rng)
        run = None if seeds is None else _lloyd(rows, seeds, max_iter)
        if run is None:
            continue
        centres, labels, history = run
        if best is None or history[-1] < best[2]:
            best = (centres, labels, history[-1], history)
    if best is None:
        raise ValueError("every restart produced an empty cluster")
    return best


def kmeans_summary(draws: DrawMatrix, seed: int = 0):
    """Cluster the pooled per-component points into ``draws.k`` clusters and
    summarise each cluster.

    Points are ``(loc_i, scale_i, p_i)`` triples (pairs without scales),
    pooled over draws and components.  Returns a dict with the cluster
    ``centres`` and within-cluster ``medians`` as (k, B) arrays, rows
    ordered by ascending location coordinate, plus the ``objective``.
    """
    points = _component_points(draws.locs, draws.scales, draws.weights)
    points = points.reshape(-1, points.shape[-1])
    centres, labels, objective, history = kmeans(points, draws.k, seed=seed)
    medians = np.stack(
        [np.median(points[labels == j], axis=0) for j in range(draws.k)]
    )
    order = np.argsort(centres[:, 0])
    columns = ["loc"] + (["scale"] if draws.scales is not None else []) + ["weight"]
    return {
        "columns": columns,
        "centres": centres[order],
        "medians": medians[order],
        "objective": objective,
        "history": history,
    }


# --------------------------------------------------------------------------
# summaries


def _stat_row(name: str, x: np.ndarray) -> dict:
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise ValueError(f"cannot summarise column {name!r}: pooled draw {bad[0]} is {x[bad[0]]}")
    q025, median, q975 = np.percentile(x, [2.5, 50.0, 97.5])
    return {
        "mean": float(np.mean(x)),
        "median": float(median),
        "q025": float(q025),
        "q975": float(q975),
    }


def summarise(draws: DrawMatrix) -> dict:
    """Posterior mean, median and central 95% interval of every column of
    ``draws``, as ``{name: {"mean", "median", "q025", "q975"}}`` floats.

    Quantiles interpolate linearly between order statistics; a non-finite value is refused.
    """
    if len(draws) == 0:
        raise ValueError("empty chain")
    columns = list(draws.extras.items())
    for i in range(draws.k):
        columns += [(f"p{i + 1}", draws.weights[:, i]), (f"loc{i + 1}", draws.locs[:, i])]
        if draws.scales is not None:
            columns.append((f"scale{i + 1}", draws.scales[:, i]))
    return {name: _stat_row(name, col) for name, col in columns}


DENSITY_BLOCK_CELLS = 2**17  # (pair, grid point) cells per density block: about 1 MB, L2-sized


def density_curve(draws: DrawMatrix, grid: np.ndarray) -> np.ndarray:
    """Pointwise average of the per-draw mixture densities over ``grid``.

    Draws are taken in chunks of about 10**6 (draw, grid point) cells, and
    each chunk's sum is added to the total in chunk order.  A chunk's
    (draw, component) pairs are flattened in the order a sum over a chunk
    array of the draws' layout adds them (draw-major for C-ordered draws,
    component-major for F-ordered ones) and evaluated in blocks of about
    ``DENSITY_BLOCK_CELLS`` cells, each block's rows added in turn onto the
    chunk's running sum.  With two or more chunks and usable CPUs the chunks
    run on up to one thread per usable CPU, under the caller's numpy error
    handling, joined before this returns.  The result is therefore bit for
    bit the sum of the whole per-chunk arrays, whatever the CPU count.
    Weights and locations (and scales) are expected in one layout, as every
    ``DrawMatrix`` built here has them; mixed layouts can change the last
    bit of the sums.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be sorted")
    chunk = max(1, 10**6 // max(len(grid), 1))
    starts = range(0, len(draws), chunk)
    if draws.family == "poisson":  # grid holds nonnegative integers
        from scipy.special import gammaln

        offset = gammaln(grid + 1.0)
    else:
        offset = -grid
    errors = np.geterr()  # a new thread starts from numpy's default error handling

    def chunk_sum(lo):
        with np.errstate(**errors):
            return _chunk_density(draws, grid, offset, lo, min(lo + chunk, len(draws)))

    workers = usable_cpus(len(starts))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        # leaving the block joins every thread; a chunk's error is raised here
        with ThreadPoolExecutor(workers) as pool:
            sums = list(pool.map(chunk_sum, starts))
    else:
        sums = map(chunk_sum, starts)
    total = np.zeros_like(grid)
    for part in sums:
        total += part
    return total / len(draws)


def _chunk_density(dm: DrawMatrix, grid: np.ndarray, offset: np.ndarray, lo: int,
                   hi: int) -> np.ndarray:
    """Sum over draws ``lo:hi`` of the weighted component densities on
    ``grid``, adding the terms as ``density_curve`` describes.

    ``offset`` is ``gammaln(grid + 1)`` for a Poisson family and ``-grid``
    otherwise.
    """
    layout = "F" if dm.locs.flags.f_contiguous and not dm.locs.flags.c_contiguous else "C"
    w, locs = (np.ravel(a[lo:hi], order=layout)[:, None] for a in (dm.weights, dm.locs))
    if dm.family == "gaussian":
        s = np.ravel(dm.scales[lo:hi], order=layout)[:, None]
        norm = s * math.sqrt(2 * math.pi)
    elif dm.family == "poisson":
        log_locs = np.log(locs)
    rows = max(1, DENSITY_BLOCK_CELLS // max(len(grid), 1))
    buf = np.zeros((min(rows, len(locs)) + 1, len(grid)))  # row 0: the running sum
    for a in range(0, len(locs), rows):
        b = min(a + rows, len(locs))
        dens = buf[1:b - a + 1]
        if dm.family == "gaussian":
            np.subtract(grid, locs[a:b], out=dens)
            dens /= s[a:b]
            np.square(dens, out=dens)
            dens *= -0.5
            np.exp(dens, out=dens)
            dens /= norm[a:b]
        elif dm.family == "exponential":
            np.divide(offset, locs[a:b], out=dens)
            np.exp(dens, out=dens)
            dens /= locs[a:b]
        else:
            np.multiply(grid, log_locs[a:b], out=dens)
            dens -= locs[a:b]
            dens -= offset
            np.exp(dens, out=dens)
        dens *= w[a:b]
        buf[0] = np.add.reduce(buf[:b - a + 1], axis=0)
    return buf[0].copy()  # frees the block buffer


def mcse_mean(x: np.ndarray, n_batches: int = 30) -> float:
    """Monte Carlo standard error of a chain mean, by batch means."""
    x = np.asarray(x, dtype=float)
    n = len(x) // n_batches
    if n < 2:
        raise ValueError("chain too short for the requested batch count")
    batches = x[: n * n_batches].reshape(n_batches, n).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))
