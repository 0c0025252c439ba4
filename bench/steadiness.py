"""Run the benchmark over several seeds and report how far each metric spreads.

Run from the root of a source checkout::

    python3 bench/steadiness.py --workloads fit-k3-n50 summarize-k5 --seeds 1-10

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the metric's bound from ``BENCHMARK.json``.
Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        shares = set()
        for seed in args.seeds:
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if not out["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect\n{proc.stderr}",
                      file=sys.stderr)
            shares.add(out["failed"] / out["attempted"])
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        print(f"\n| {workload} | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
        print("| --- | --- | --- | --- | --- | --- |")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {bounds[name]} |")
        print(f"failed share per run: {sorted(shares)}\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
