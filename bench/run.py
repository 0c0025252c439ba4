"""Benchmark of the ``mixanchor`` command line: four workloads, one command.

Run from the root of a source checkout::

    python3 bench/run.py --workload fit-k3-n50 --seed 1 --seconds 15 --trace 0

With ``--trace 0`` every program invocation is a fresh process, started one
at a time, and the end-to-end metrics are printed.  With ``--trace 1`` the
same command runs in this process, once plain and once with the layer
wrappers of ``spans.py`` installed, and the per-layer metrics are printed.
Every run checks the program's outputs (``checks.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The workloads and metrics are described in
``bench/README.md``.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are capped at the CPUs this process may use, here and in
# every child, before numpy is first imported.
THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from ess import bulk_ess  # noqa: E402
from workloads import WORKLOADS, command_args, prepare_inputs  # noqa: E402

SETUP_SAMPLES = 3
MIN_COMMANDS = 2  # a fit is repeated to test that its chain files are byte-identical
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "command_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.other_s": "s",
    "sampler.run_s": "s",
    "sampler.sweep_us": "us",
    "sampler.self_us_per_sweep": "us",
    "sampler.target_calls_per_sweep": "count",
    "sampler.accept_ratio": "ratio",
    "sampler.min_ess": "count",
    "sampler.ess_per_s": "1/s",
    "likelihood.target_us": "us",
    "likelihood.target_self_us": "us",
    "likelihood.loglik_us": "us",
    "likelihood.loglik_calls_per_sweep": "count",
    "transforms.from_angular_us": "us",
    "transforms.from_angular_calls_per_sweep": "count",
    "transforms.basis_rows_calls_per_sweep": "count",
    "priors.density_us_per_target": "us",
    "chainio.write_s": "s",
    "chainio.write_us_per_row": "us",
    "chainio.write_mb": "MB",
    "chainio.read_s": "s",
    "chainio.read_us_per_row": "us",
    "postprocess.relabel_s": "s",
    "postprocess.relabel_peak_mb": "MB",
    "postprocess.kmeans_s": "s",
    "postprocess.kmeans_best_iters": "count",
    "postprocess.density_s": "s",
    "postprocess.density_peak_mb": "MB",
    "postprocess.summarise_s": "s",
    "postprocess.switch_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_child(argv, env, log_path: Path):
    """Run one process to its end; returns (exit code, wall seconds, peak RSS in MB).

    The peak RSS is the child's own, from ``wait4``.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Outputs:
    """Checks every command's outputs and keeps what the run must report."""

    def __init__(self, workload, input_sets, seed):
        self.workload = workload
        self.input_sets = input_sets
        self.rng = np.random.default_rng([seed, 7])
        self.failures = []
        self.digests = {}

    def check(self, out_dir: Path, item: int):
        w = self.workload
        inputs = self.input_sets[item][1]
        if w.is_fit:
            self.failures += checks.check_fit(w, inputs, out_dir, self.rng)
            digests = self.digests.setdefault(item, set())
            digests.add(checks.file_digest(checks.chain_paths(out_dir, w)))
            if len(digests) > 1:
                self.failures.append("chain CSVs differ between repeats of one fit")
        else:
            self.failures += checks.check_summarize(inputs, out_dir)
            for miss in checks.kmeans_misses(out_dir):
                print(f"note: input set {item}: {miss}", file=sys.stderr)

    def correct(self) -> bool:
        """True when every check held; each failure is printed to stderr."""
        for failure in self.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        return not self.failures


def timed_run(workload, seed, seconds, root: Path, work: Path, outputs: Outputs) -> dict:
    env = child_env(root / "src")
    python = sys.executable
    # find_spec locates the package without running it, so no import is
    # paid twice; the first timed import compiles bytecode in a fresh checkout
    # and the median over the samples absorbs it.
    where = subprocess.run(
        [python, "-c", "import importlib.util as u; print(u.find_spec('mixanchor').origin)"],
        env=env, capture_output=True, text=True, check=False, timeout=CHILD_TIMEOUT_S,
    ).stdout.strip()
    if not where or root / "src" not in Path(where).parents:
        raise BenchError(f"mixanchor does not import from {root / 'src'}")
    setup = []
    for i in range(SETUP_SAMPLES):
        code, wall, _ = run_child([python, "-c", "import mixanchor.cli"], env,
                                  work / f"setup{i}.log")
        if code != 0:
            raise BenchError("importing mixanchor.cli failed")
        setup.append(wall)

    # A round runs the command once on every input set; runs are whole
    # rounds, and command_s is the median over rounds of a round's mean.
    round_means, rss, attempted, failed = [], [], 0, 0
    loop_start = time.perf_counter()
    while True:
        walls = []
        for item, (in_dir, _) in enumerate(outputs.input_sets):
            out = work / f"out{attempted}"
            log = work / f"command{attempted}.log"
            argv = [python, "-m", "mixanchor.cli", *command_args(workload, in_dir, seed, out)]
            code, wall, peak = run_child(argv, env, log)
            attempted += 1
            if code == 0:
                walls.append(wall)
                rss.append(peak)
                outputs.check(out, item)
            else:
                failed += 1
                print(f"command exited {code}:",
                      log.read_text(encoding="utf-8", errors="replace")[-2000:], file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
        print("command walls (s):", " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
        if walls:
            round_means.append(statistics.mean(walls))
        # stop before a round of average length would overrun --seconds
        spent = time.perf_counter() - loop_start
        rounds = attempted // len(outputs.input_sets)
        if attempted >= MIN_COMMANDS and spent + spent / rounds > seconds:
            break
    if not round_means:
        raise BenchError("every command failed")
    metrics = {
        "setup_s": statistics.median(setup),
        "command_s": statistics.median(round_means),
        "peak_rss_mb": statistics.median(rss),
    }
    return result(outputs.correct(), attempted, failed, metrics, END_TO_END_UNITS)


def traced_run(workload, seed, root: Path, work: Path, outputs: Outputs) -> dict:
    sys.path.insert(0, str(root / "src"))
    import mixanchor.cli as cli

    from spans import Tracer, layer_metrics

    if root / "src" not in Path(cli.__file__).parents:
        raise BenchError(f"mixanchor.cli does not import from {root / 'src'}")
    # A first plain pass pays the one-time costs of the first call, so the
    # plain and traced passes after it differ by the tracing alone.
    walls, attempted, failed = [], 0, 0
    tracer = Tracer()
    in_dir = outputs.input_sets[0][0]
    for traced in (False, False, True):
        out = work / f"out{attempted}"
        argv = command_args(workload, in_dir, seed, out)
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        finally:
            walls.append(time.perf_counter() - start)
            tracer.uninstall()
        attempted += 1
        if code != 0:
            failed += 1
            continue
        outputs.check(out, 0)
    if failed:
        raise BenchError("a command run in-process failed")
    for name in tracer.missing:
        print(f"note: {name} no longer exists; metrics that rest on it read null",
              file=sys.stderr)
    spans_dir = root / ".bench_spans"
    spans_dir.mkdir(exist_ok=True)
    tracer.dump(spans_dir / f"{workload.name}-seed{seed}.json", workload=workload.name, seed=seed)
    metrics = layer_metrics(tracer, traced_s=walls[2], untraced_s=walls[1])
    ess = 0.0
    if workload.is_fit:
        globals_ = checks.retained_globals(workload, work / "out0")
        ess = min(bulk_ess(chains) for chains in globals_.values())
    metrics["sampler.min_ess"] = ess
    metrics["sampler.ess_per_s"] = ess / walls[1]
    return result(outputs.correct(), attempted, failed, metrics, PER_LAYER_UNITS)


def result(correct, attempted, failed, values, units) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mixanchor" / "cli.py").is_file():
        print(f"error: no mixanchor source under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outputs = Outputs(workload, prepare_inputs(workload, work, args.seed), args.seed)
        if args.trace:
            payload = traced_run(workload, args.seed, root, work, outputs)
        else:
            payload = timed_run(workload, args.seed, args.seconds, root, work, outputs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
