"""Output checks computed apart from the program, with numpy and scipy only.

Nothing here imports ``mixanchor``.  Each check either recomputes a value
the program stored (the log-posterior of a draw) or tests a property the
method must have (moment identities, recovery of a known truth), so none
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.special import logsumexp

from workloads import K5_TRUTH, Workload

LOGPOST_SAMPLE = 64
LOGPOST_RTOL = 1e-10
MOMENT_RTOL = 1e-9
MEAN_SE_LIMIT = 4.0
TRUTH_TOL = {"loc": 0.05, "scale": 0.03, "weight": 0.01}  # scale is relative
DENSITY_TOL = 1e-3


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path: Path):
    """Parse a JSON file, refusing ``NaN`` and ``Infinity``."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def read_table(path: Path) -> dict:
    """A headered numeric CSV as a dict of columns."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: rows[:, i] for i, name in enumerate(header)}


def _block(table: dict, prefix: str, k: int) -> np.ndarray:
    return np.column_stack([table[f"{prefix}{i + 1}"] for i in range(k)])


def file_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def chain_paths(out_dir: Path, workload: Workload) -> list:
    return [out_dir / f"chain_{i}.csv" for i in range(workload.chains)]


# --------------------------------------------------------------------------
# log-posterior recomputation, one function per kernel, in its own coordinates
# (the default prior: Dirichlet(1) weights, Beta(1, 1) radius, uniform angles)


def _log_dirichlet(x: np.ndarray) -> float:
    return float(stats.dirichlet.logpdf(x, np.ones(len(x))))


def gaussian_logpost(x, weights, locs, scales, sigma, phi_sq) -> float:
    """General-k kernel: coordinates ``(mu, sigma, p, phi_sq, varpi, xi)``."""
    k = len(weights)
    terms = np.log(weights) + stats.norm.logpdf(x[:, None], locs, scales)
    lp = -math.log(sigma) + _log_dirichlet(weights) + stats.beta.logpdf(phi_sq, 1.0, 1.0)
    if k == 2:
        lp += math.log(0.5)  # the sign of the location radius
    else:
        lp += -(k - 3) * math.log(math.pi) - math.log(2.0 * math.pi)
    lp += (k - 1) * math.log(2.0 / math.pi)
    return float(logsumexp(terms, axis=1).sum() + lp)


def gaussian_k2_logpost(x, weights, locs, scales, sigma, phi_sq) -> float:
    """k = 2 kernel: coordinates ``(mu, sigma, p1, phi_sq, eta1^2, eta2^2, sign)``."""
    eta = scales * np.sqrt(weights) / sigma
    terms = np.log(weights) + stats.norm.logpdf(x[:, None], locs, scales)
    lp = -math.log(sigma) + _log_dirichlet(weights) + stats.beta.logpdf(phi_sq, 1.0, 1.0)
    lp += math.log(0.5) - math.log(math.pi) - math.log(eta[0]) - math.log(eta[1])
    return float(logsumexp(terms, axis=1).sum() + lp)


def exponential_logpost(x, weights, means, lam, gamma) -> float:
    """Rate kernel: coordinates ``(lam, gamma, p)``."""
    terms = np.log(weights) + stats.expon.logpdf(x[:, None], scale=means)
    lp = -math.log(lam) + _log_dirichlet(gamma) + _log_dirichlet(weights)
    return float(logsumexp(terms, axis=1).sum() + lp)


def _recompute(workload: Workload, x: np.ndarray, table: dict, t: int) -> float:
    k = workload.k
    w = _block(table, "p", k)[t]
    locs = _block(table, "loc", k)[t]
    if workload.family == "exponential":
        return exponential_logpost(x, w, locs, table["lam"][t], _block(table, "gamma", k)[t])
    scales = _block(table, "scale", k)[t]
    kernel = gaussian_k2_logpost if workload.proposal is not None else gaussian_logpost
    return kernel(x, w, locs, scales, table["sigma"][t], table["phi_sq"][t])


# --------------------------------------------------------------------------
# fit outputs


def check_fit(workload: Workload, x: np.ndarray, out_dir: Path, rng) -> list:
    """Failures found in one fit's outputs (an empty list when all hold)."""
    failures = []
    for name in ("manifest.json", "summary.json"):
        try:
            strict_json(out_dir / name)
        except ValueError as exc:
            failures.append(f"{name} is not strict JSON: {exc}")
    tables = [read_table(p) for p in chain_paths(out_dir, workload)]
    k = workload.k
    rate = workload.family == "exponential"
    glob = "lam" if rate else "mu"
    for c, table in enumerate(tables):
        if len(table["log_posterior"]) != workload.iterations:
            failures.append(f"chain {c} has {len(table['log_posterior'])} draws")
            continue
        w, locs = _block(table, "p", k), _block(table, "loc", k)
        mean = np.sum(w * locs, axis=1)
        g = table[glob]
        scale_ref = np.abs(g) + (0.0 if rate else table["sigma"])
        worst = float(np.max(np.abs(mean - g) / scale_ref))
        if worst > MOMENT_RTOL:
            failures.append(f"chain {c}: sum p_i loc_i misses {glob} by {worst:.2e}")
        if not rate:
            scales, mu, sigma = _block(table, "scale", k), table["mu"], table["sigma"]
            var = np.sum(w * (scales**2 + locs**2), axis=1) - mu**2
            worst = float(np.max(np.abs(var - sigma**2) / (mu**2 + sigma**2)))
            if worst > MOMENT_RTOL:
                failures.append(f"chain {c}: mixture variance misses sigma^2 by {worst:.2e}")
        picks = rng.choice(workload.iterations, size=min(LOGPOST_SAMPLE, workload.iterations),
                           replace=False)
        for t in picks:
            stored = float(table["log_posterior"][t])
            again = _recompute(workload, x, table, t)
            if abs(again - stored) > LOGPOST_RTOL * max(1.0, abs(stored)):
                failures.append(
                    f"chain {c} draw {t}: stored log_posterior {stored!r}, recomputed {again!r}"
                )
                break
    retained = np.concatenate([t[glob][workload.burn_in:] for t in tables])
    se = float(np.std(x, ddof=1)) / math.sqrt(len(x))
    gap = abs(float(retained.mean()) - float(np.mean(x)))
    if gap > MEAN_SE_LIMIT * se:
        failures.append(f"posterior mean of {glob} is {gap / se:.1f} standard errors from the sample mean")
    return failures


def retained_globals(workload: Workload, out_dir: Path) -> dict:
    """Post-burn-in draws of each label-invariant global, one row per chain."""
    names = ("lam",) if workload.family == "exponential" else ("mu", "sigma")
    tables = [read_table(p) for p in chain_paths(out_dir, workload)]
    return {n: [t[n][workload.burn_in:] for t in tables] for n in names}


# --------------------------------------------------------------------------
# summarize outputs


def _sorted_rows(locs, scales, weights):
    order = np.argsort(locs)
    return np.asarray(locs)[order], np.asarray(scales)[order], np.asarray(weights)[order]


def _truth_misses(label: str, locs, scales, weights) -> list:
    t_locs, t_scales, t_weights = _sorted_rows(K5_TRUTH["locs"], K5_TRUTH["scales"],
                                               K5_TRUTH["weights"])
    locs, scales, weights = _sorted_rows(locs, scales, weights)
    misses = []
    if np.max(np.abs(locs - t_locs)) > TRUTH_TOL["loc"]:
        misses.append(f"{label} locations {locs.round(3).tolist()} miss {t_locs.tolist()}")
    if np.max(np.abs(scales / t_scales - 1.0)) > TRUTH_TOL["scale"]:
        misses.append(f"{label} scales {scales.round(3).tolist()} miss {t_scales.tolist()}")
    if np.max(np.abs(weights - t_weights)) > TRUTH_TOL["weight"]:
        misses.append(f"{label} weights {weights.round(3).tolist()} miss {t_weights.tolist()}")
    return misses


def check_summarize(synthetic, out_dir: Path) -> list:
    """Failures found in one summarize's outputs (MAP relabelling, switches, density)."""
    try:
        summary = strict_json(out_dir / "summary.json")
    except ValueError as exc:
        return [f"summary.json is not strict JSON: {exc}"]
    k = len(K5_TRUTH["weights"])
    relabelled = summary["map_relabelled"]
    params = relabelled["parameters"]
    medians = {
        prefix: [params[f"{prefix}{i + 1}"]["median"] for i in range(k)]
        for prefix in ("loc", "scale", "p")
    }
    failures = _truth_misses("MAP-relabelled medians", medians["loc"], medians["scale"],
                             medians["p"])
    reported = relabelled["switching"]["transitions"]
    if reported != synthetic.transitions:
        failures.append(f"{reported} transitions reported, {synthetic.transitions} injected")
    density = read_table(out_dir / "density.csv")
    mass = float(np.trapezoid(density["density"], density["x"]))
    if abs(mass - 1.0) > DENSITY_TOL:
        failures.append(f"density.csv integrates to {mass!r}")
    return failures


def kmeans_misses(out_dir: Path) -> list:
    """Where the k-means medians in summary.json miss the injected truth."""
    summary = strict_json(out_dir / "summary.json")
    medians = np.asarray(summary["kmeans"]["medians"])
    return _truth_misses("k-means medians", medians[:, 0], medians[:, 1], medians[:, 2])
