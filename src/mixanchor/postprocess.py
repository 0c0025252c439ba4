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
from .sampler import Chain

__all__ = [
    "DrawMatrix",
    "PermutationTrace",
    "SwitchReport",
    "Summary",
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


def draws_from_chain(chain: Chain, include_burn_in: bool = False) -> DrawMatrix:
    start = 0 if include_burn_in else chain.burn_in
    extras = {}
    for name in ("mu", "sigma", "phi_sq", "lam"):
        col = getattr(chain, name)
        if col is not None:
            extras[name] = col[start:]
    return DrawMatrix(
        family=chain.family,
        weights=chain.weights[start:],
        locs=chain.locs[start:],
        scales=None if chain.scales is None else chain.scales[start:],
        log_posterior=chain.log_posterior[start:],
        extras=extras,
    )


def _coerce(draws) -> DrawMatrix:
    if isinstance(draws, Chain):
        return draws_from_chain(draws)
    return draws


def pool_draws(items) -> DrawMatrix:
    """Concatenate several chains (or matrices) into one draw matrix."""
    mats = [_coerce(item) for item in items]
    first = mats[0]
    scales = None
    if first.scales is not None:
        scales = np.concatenate([m.scales for m in mats])
    extras = {
        name: np.concatenate([m.extras[name] for m in mats])
        for name in first.extras
        if all(name in m.extras for m in mats)
    }
    return DrawMatrix(
        family=first.family,
        weights=np.concatenate([m.weights for m in mats]),
        locs=np.concatenate([m.locs for m in mats]),
        scales=scales,
        log_posterior=np.concatenate([m.log_posterior for m in mats]),
        extras=extras,
    )


# --------------------------------------------------------------------------
# MAP relabelling


def find_map(draws) -> tuple[StandardParams, int]:
    """Draw with the highest stored log-posterior; ties go to the earliest."""
    dm = _coerce(draws)
    if len(dm) == 0:
        raise ValueError("empty chain")
    idx = int(np.argmax(dm.log_posterior))
    return dm.params(idx), idx


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


def relabel_map(draws, map_params: StandardParams) -> tuple[DrawMatrix, PermutationTrace]:
    """Permute each draw to minimise its distance to the reference draw.

    The distance is the Euclidean norm over the per-component ``(loc, scale,
    weight)`` points (``(loc, weight)`` for rate families), without
    standardisation.  It splits over components, so each draw's best
    permutation solves a k x k linear assignment problem, which is solved
    exactly for any k.  Ties between equally distant permutations are broken
    deterministically by the solver.
    """
    from scipy.optimize import linear_sum_assignment  # slow to import; only relabelling needs it

    dm = _coerce(draws)
    points = _component_points(dm.locs, dm.scales, dm.weights)  # (T, k, B)
    ref = _component_points(
        map_params.locs,
        None if dm.scales is None else map_params.scales,
        map_params.weights,
    )  # (k, B)
    diff = points[:, None, :, :] - ref[None, :, None, :]
    # cost[t, i, j]: squared distance from original component j to reference component i
    cost = np.einsum("tijb,tijb->tij", diff, diff)
    r = np.array([linear_sum_assignment(c)[1] for c in cost], dtype=np.int64)
    trace = PermutationTrace(r=r.reshape(len(dm), dm.k))

    rows = np.arange(len(dm))[:, None]
    relabelled = replace(
        dm,
        weights=dm.weights[rows, trace.r],
        locs=dm.locs[rows, trace.r],
        scales=None if dm.scales is None else dm.scales[rows, trace.r],
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
    longest = 1
    current = 1
    for flag in changed:
        current = 1 if flag else current + 1
        longest = max(longest, current)
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


def kmeans_summary(draws, k: int | None = None, n_restarts: int = 10, seed: int = 0):
    """Cluster the pooled per-component points and summarise each cluster.

    Points are ``(loc_i, scale_i, p_i)`` triples (pairs without scales),
    pooled over draws and components.  Returns a dict with the cluster
    ``centres`` and within-cluster ``medians`` as (k, B) arrays, rows
    ordered by ascending location coordinate, plus the ``objective``.
    """
    dm = _coerce(draws)
    k = dm.k if k is None else k
    points = _component_points(dm.locs, dm.scales, dm.weights)
    points = points.reshape(-1, points.shape[-1])
    centres, labels, objective, history = kmeans(
        points, k, n_restarts=n_restarts, seed=seed
    )
    medians = np.stack(
        [np.median(points[labels == j], axis=0) for j in range(k)]
    )
    order = np.argsort(centres[:, 0])
    columns = ["loc"] + (["scale"] if dm.scales is not None else []) + ["weight"]
    return {
        "columns": columns,
        "centres": centres[order],
        "medians": medians[order],
        "objective": objective,
        "history": history,
    }


# --------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class Summary:
    """Per-parameter posterior mean, median, and central 95% interval."""

    stats: dict

    def table(self) -> dict:
        return {
            name: {key: float(val) for key, val in row.items()}
            for name, row in self.stats.items()
        }


def _stat_row(x: np.ndarray) -> dict:
    q025, median, q975 = np.percentile(x, [2.5, 50.0, 97.5])
    return {
        "mean": float(np.mean(x)),
        "median": float(median),
        "q025": float(q025),
        "q975": float(q975),
    }


def summarise(draws) -> Summary:
    """Order-statistic summary of every column of a draw matrix.

    Quantiles interpolate linearly between order statistics.
    """
    dm = _coerce(draws)
    if len(dm) == 0:
        raise ValueError("empty chain")
    stats = {}
    for name, col in dm.extras.items():
        stats[name] = _stat_row(col)
    for i in range(dm.k):
        stats[f"p{i + 1}"] = _stat_row(dm.weights[:, i])
        stats[f"loc{i + 1}"] = _stat_row(dm.locs[:, i])
        if dm.scales is not None:
            stats[f"scale{i + 1}"] = _stat_row(dm.scales[:, i])
    return Summary(stats=stats)


def density_curve(draws, grid: np.ndarray) -> np.ndarray:
    """Pointwise average of the per-draw mixture densities over ``grid``.

    Draws are taken in chunks of about 10**6 (draw, grid point) cells.  Each
    chunk's (draws, k, grid) array is created by its first broadcast
    operation, so numpy gives it the layout of the draw arrays, and is then
    updated in place; the chunk sums therefore add in a fixed order for
    C- and for F-ordered draws.  Weights and locations (and scales) are
    expected in one layout, as every ``DrawMatrix`` built here has them;
    mixed layouts can change the last bit of the sums.
    """
    dm = _coerce(draws)
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be sorted")
    total = np.zeros_like(grid)
    chunk = max(1, 10**6 // max(len(grid), 1))
    g = grid[None, None, :]
    for lo in range(0, len(dm), chunk):
        hi = min(lo + chunk, len(dm))
        w = dm.weights[lo:hi][:, :, None]
        locs = dm.locs[lo:hi][:, :, None]
        if dm.family == "gaussian":
            s = dm.scales[lo:hi][:, :, None]
            dens = g - locs
            dens /= s
            np.square(dens, out=dens)
            dens *= -0.5
            np.exp(dens, out=dens)
            dens /= s * math.sqrt(2 * math.pi)
        elif dm.family == "exponential":
            dens = (-g) / locs
            np.exp(dens, out=dens)
            dens /= locs
        else:  # poisson: grid holds nonnegative integers
            from scipy.special import gammaln

            dens = g * np.log(locs)
            dens -= locs
            dens -= gammaln(g + 1.0)
            np.exp(dens, out=dens)
        dens *= w
        total += np.sum(dens, axis=(0, 1))
        del dens
    return total / len(dm)


def mcse_mean(x: np.ndarray, n_batches: int = 30) -> float:
    """Monte Carlo standard error of a chain mean, by batch means."""
    x = np.asarray(x, dtype=float)
    n = len(x) // n_batches
    if n < 2:
        raise ValueError("chain too short for the requested batch count")
    batches = x[: n * n_batches].reshape(n_batches, n).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))
