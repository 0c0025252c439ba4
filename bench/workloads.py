"""The benchmark's workloads: truths, run lengths and input generation.

Every input is drawn from ``numpy.random.default_rng(seed)`` with the
benchmark seed, so the same seed always gives the same files.  The program
under test only ever sees the generated files and the command line built
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The paper's two- and three-component Gaussian examples (standard
# deviations, not variances) and a two-component exponential mixture.
K2_TRUTH = {
    "weights": np.array([0.65, 0.35]),
    "locs": np.array([-8.0, -0.5]),
    "scales": np.array([2.0, 1.0]),
}
K3_TRUTH = {
    "weights": np.array([0.27, 0.4, 0.33]),
    "locs": np.array([-4.5, 10.0, 3.0]),
    "scales": np.array([1.0, 1.0, 1.0]),
}
EXP_TRUTH = {"weights": np.array([0.6, 0.4]), "means": np.array([1.0, 5.0])}

# Synthetic k = 5 posterior for the summarize workload: components far apart
# relative to the per-draw noise, so the right permutation of every draw is
# never in doubt and the number of label switches is known exactly.
K5_TRUTH = {
    "weights": np.array([0.12, 0.18, 0.22, 0.28, 0.20]),
    "locs": np.array([-24.0, -11.0, 0.0, 12.0, 26.0]),
    "scales": np.array([1.0, 1.5, 0.8, 2.0, 1.2]),
}
K5_CHAINS = 4
K5_DRAWS = 2500
# k-means work varies with the data (the Lloyd iterations its restarts take),
# so one round of the summarize workload covers several chain sets
K5_SETS = 4
K5_LOC_SD = 0.25
K5_LOG_SCALE_SD = 0.05
K5_WEIGHT_CONCENTRATION = 400.0
K5_BLOCK_LENGTHS = (100, 600)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the mixanchor subcommand it runs
    family: str
    k: int
    n: int
    chains: int
    iterations: int
    burn_in: int
    proposal: int | None = None

    @property
    def is_fit(self) -> bool:
        return self.command == "fit"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-k3-n50", "fit", "gaussian", 3, 50, 1, 3000, 500),
        Workload("fit-k2-n50", "fit", "gaussian", 2, 50, 4, 2000, 500, proposal=1),
        Workload("fit-exp-n10k", "fit", "exponential", 2, 10_000, 1, 1200, 200),
        Workload("summarize-k5", "summarize", "gaussian", 5, K5_CHAINS * K5_DRAWS,
                 K5_CHAINS, K5_DRAWS, 0),
    )
}


def write_values(path: Path, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("value\n")
        handle.writelines(f"{float(v)!r}\n" for v in values)


def make_data(workload: Workload, seed: int) -> np.ndarray:
    """Observations for a fit workload."""
    rng = np.random.default_rng(seed)
    if workload.family == "exponential":
        comp = rng.choice(2, size=workload.n, p=EXP_TRUTH["weights"])
        values = rng.exponential(EXP_TRUTH["means"][comp])
        if len(np.unique(values)) != len(values):
            raise ValueError("exponential draws must be distinct")
        return values
    truth = K3_TRUTH if workload.k == 3 else K2_TRUTH
    comp = rng.choice(workload.k, size=workload.n, p=truth["weights"])
    return rng.normal(truth["locs"][comp], truth["scales"][comp])


@dataclass(frozen=True)
class SyntheticChains:
    permutations: np.ndarray  # (draws, k) label order applied to each pooled draw

    @property
    def transitions(self) -> int:
        p = self.permutations
        return int(np.sum(np.any(p[1:] != p[:-1], axis=1)))


def make_k5_chains(out_dir: Path, seed) -> SyntheticChains:
    """Chain CSVs of draws around ``K5_TRUTH`` with block-wise label swaps.

    ``seed`` is anything ``numpy.random.default_rng`` accepts.

    Each draw perturbs the truth (normal location noise, log-normal scale
    noise, Dirichlet weights).  Each chain is cut into blocks of uniform
    random length, and every block stores its components in one random
    order.  The log-posterior column is a Gaussian score around the truth,
    so the MAP draw is the one nearest it.
    """
    rng = np.random.default_rng(seed)
    k = len(K5_TRUTH["weights"])
    perms = []
    for c in range(K5_CHAINS):
        T = K5_DRAWS
        locs = K5_TRUTH["locs"] + K5_LOC_SD * rng.standard_normal((T, k))
        scales = K5_TRUTH["scales"] * np.exp(K5_LOG_SCALE_SD * rng.standard_normal((T, k)))
        weights = rng.dirichlet(K5_WEIGHT_CONCENTRATION * K5_TRUTH["weights"], size=T)
        score = -0.5 * np.sum(((locs - K5_TRUTH["locs"]) / K5_LOC_SD) ** 2, axis=1)
        mu = np.sum(weights * locs, axis=1)
        sigma = np.sqrt(np.sum(weights * (scales**2 + locs**2), axis=1) - mu**2)
        order = np.empty((T, k), dtype=np.int64)
        start = 0
        while start < T:
            stop = min(T, start + int(rng.integers(*K5_BLOCK_LENGTHS, endpoint=True)))
            order[start:stop] = rng.permutation(k)
            start = stop
        rows = np.arange(T)[:, None]
        locs, scales, weights = locs[rows, order], scales[rows, order], weights[rows, order]
        path = out_dir / f"chain_{c}.csv"
        header = ["iteration", "log_posterior", "mu", "sigma"]
        header += [f"p{i + 1}" for i in range(k)]
        header += [f"loc{i + 1}" for i in range(k)]
        header += [f"scale{i + 1}" for i in range(k)]
        table = np.column_stack([np.arange(T), score, mu, sigma, weights, locs, scales])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            for row in table:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        perms.append(order)
    return SyntheticChains(permutations=np.vstack(perms))


def command_args(workload: Workload, in_dir: Path, seed: int, out_dir: Path) -> list:
    """Arguments after ``mixanchor`` for one invocation on the inputs in ``in_dir``."""
    if workload.is_fit:
        args = [
            "fit", "--family", workload.family, "--k", str(workload.k),
            "--data", str(in_dir / "data.csv"), "--out", str(out_dir),
            "--iters", str(workload.iterations), "--burnin", str(workload.burn_in),
            "--chains", str(workload.chains), "--seed", str(seed),
        ]
        if workload.proposal is not None:
            args += ["--proposal", str(workload.proposal)]
        return args
    chains = sorted(str(p) for p in in_dir.glob("chain_*.csv"))
    return ["summarize", "--data", *chains, "--out", str(out_dir),
            "--family", workload.family, "--burnin", "0"]


def prepare_inputs(workload: Workload, work_dir: Path, seed: int) -> list:
    """Write the workload's input sets; returns ``(input directory, what the checks need)`` pairs.

    A fit has one data set; the summarize workload has ``K5_SETS`` chain sets.
    """
    sets = []
    for j in range(1 if workload.is_fit else K5_SETS):
        in_dir = work_dir / f"in{j}"
        in_dir.mkdir()
        if workload.is_fit:
            values = make_data(workload, seed)
            write_values(in_dir / "data.csv", values)
            sets.append((in_dir, values))
        else:
            sets.append((in_dir, make_k5_chains(in_dir, [seed, j])))
    return sets
