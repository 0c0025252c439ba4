"""In-process tracing of one CLI command, from the benchmark's own files.

The tracer replaces module attributes that each layer is called through
with timing wrappers, so a call is caught at the boundary where the caller
looks the name up.  Every call leaves one span (group, start, end, parent)
in memory; self time is a span minus its direct children.  Counts are taken
by the same wrappers, so per-sweep ratios are measured where the work
happens.  Peak memory is traced with ``tracemalloc`` inside the wrapped
call only.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import tracemalloc

# group -> attributes ("module:name") the group's calls go through
WRAPPED = {
    "sampler": ["mixanchor.cli:mwg_gaussian", "mixanchor.cli:mwg_gaussian_k2",
                "mixanchor.cli:mwg_exponential", "mixanchor.cli:mwg_poisson"],
    "target": ["mixanchor.sampler:_gaussian_logpost", "mixanchor.sampler:_k2_logpost",
               "mixanchor.sampler:_rate_logpost"],
    "loglik": ["mixanchor.likelihood:loglik_gaussian_arrays",
               "mixanchor.likelihood:loglik_exponential_arrays",
               "mixanchor.likelihood:loglik_poisson_arrays",
               "mixanchor.sampler:loglik_gaussian_arrays"],
    "from_angular": ["mixanchor.likelihood:standard_arrays_from_angular",
                     "mixanchor.sampler:standard_arrays_from_angular"],
    "basis_rows": ["mixanchor.transforms:basis_rows"],
    "prior": ["mixanchor.likelihood:_log_dirichlet", "mixanchor.likelihood:_log_beta",
              "mixanchor.likelihood:log_varpi_density", "mixanchor.likelihood:log_xi_density",
              "mixanchor.likelihood:log_prior", "mixanchor.sampler:_log_dirichlet",
              "mixanchor.sampler:_log_beta"],
    "write": ["mixanchor.cli:chain_to_csv"],
    "read": ["mixanchor.cli:chain_from_csv"],
    "relabel": ["mixanchor.cli:relabel_map"],
    "kmeans": ["mixanchor.cli:kmeans_summary"],
    "density": ["mixanchor.cli:density_curve"],
    "summarise": ["mixanchor.cli:summarise"],
    "switch": ["mixanchor.cli:detect_switching"],
}
MEMORY_GROUPS = {"relabel", "density"}


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.group = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = []
        self.peak_bytes = {g: 0 for g in MEMORY_GROUPS}
        self.sweeps = 0
        self.accepted = 0
        self.proposed = 0
        self.rows_written = 0
        self.bytes_written = 0
        self.rows_read = 0
        self.kmeans_iters = 0
        self.missing = []
        self._saved = []

    def _wrap(self, group, fn):
        clock = time.perf_counter
        tracing_memory = group in MEMORY_GROUPS

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.group.append(group)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            if tracing_memory:
                tracemalloc.start()
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
                if tracing_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[group] = max(self.peak_bytes[group], peak)
            self._count(group, args, result)
            return result

        return wrapper

    def _count(self, group, args, result):
        if group == "sampler":
            for chain in result.chains:
                self.sweeps += len(chain)
                for flags in chain.accepts.values():
                    self.accepted += int(flags.sum())
                    self.proposed += len(flags)
        elif group == "write":
            self.rows_written += len(args[0])
            self.bytes_written += os.path.getsize(args[1])
        elif group == "read":
            self.rows_read += len(result)
        elif group == "kmeans":
            self.kmeans_iters = len(result["history"])

    def install(self):
        for group, names in WRAPPED.items():
            for name in names:
                module_name, attr = name.split(":")
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(name)
                    continue
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(group, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def missing_groups(self) -> set:
        return {g for g, names in WRAPPED.items() if any(n in self.missing for n in names)}

    def dump(self, path, **meta) -> None:
        """Write every span as JSON columns; times in seconds from the first span."""
        names = list(WRAPPED)
        origin = self.start[0] if self.start else 0.0
        spans = {
            "group": [names.index(g) for g in self.group],
            "start_s": [round(t - origin, 7) for t in self.start],
            "end_s": [round(t - origin, 7) for t in self.end],
            "parent": self.parent,
        }
        payload = {**meta, "groups": names, "wrapped": WRAPPED, "missing": self.missing,
                   "spans": spans}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))

    def totals(self):
        """Per group: call count, inclusive seconds, self seconds, top-level seconds."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        out = {g: {"calls": 0, "total": 0.0, "self": 0.0} for g in WRAPPED}
        top_level = 0.0
        for i in range(n):
            row = out[self.group[i]]
            row["calls"] += 1
            row["total"] += duration[i]
            row["self"] += duration[i] - child[i]
            if self.parent[i] < 0:
                top_level += duration[i]
        return out, top_level


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Per-layer figures of one traced command, keyed by metric name.

    A metric that rests on a wrapped name the program no longer has reads
    ``None`` (missing), never zero.
    """
    t, top_level = tracer.totals()
    sweeps = tracer.sweeps
    targets = t["target"]["calls"]

    def per(value, count, scale=1.0):
        return scale * value / count if count else 0.0

    us = 1e6
    sweep = ("sampler",)
    # name -> (value, groups whose wrappers it needs)
    figures = {
        "cli.other_s": (traced_s - top_level, tuple(WRAPPED)),
        "sampler.run_s": (t["sampler"]["total"], sweep),
        "sampler.sweep_us": (per(t["sampler"]["total"], sweeps, us), sweep),
        "sampler.self_us_per_sweep": (per(t["sampler"]["self"], sweeps, us),
                                      ("sampler", "target", "from_angular", "prior")),
        "sampler.target_calls_per_sweep": (per(targets, sweeps), ("sampler", "target")),
        "sampler.accept_ratio": (per(tracer.accepted, tracer.proposed), sweep),
        "likelihood.target_us": (per(t["target"]["total"], targets, us), ("target",)),
        "likelihood.target_self_us": (per(t["target"]["self"], targets, us),
                                      ("target", "loglik", "from_angular", "prior")),
        "likelihood.loglik_us": (per(t["loglik"]["total"], t["loglik"]["calls"], us),
                                 ("loglik",)),
        "likelihood.loglik_calls_per_sweep": (per(t["loglik"]["calls"], sweeps),
                                              ("sampler", "loglik")),
        "transforms.from_angular_us": (per(t["from_angular"]["total"],
                                           t["from_angular"]["calls"], us), ("from_angular",)),
        "transforms.from_angular_calls_per_sweep": (per(t["from_angular"]["calls"], sweeps),
                                                    ("sampler", "from_angular")),
        "transforms.basis_rows_calls_per_sweep": (per(t["basis_rows"]["calls"], sweeps),
                                                  ("sampler", "basis_rows")),
        "priors.density_us_per_target": (per(t["prior"]["total"], targets, us),
                                         ("target", "prior")),
        "chainio.write_s": (t["write"]["total"], ("write",)),
        "chainio.write_us_per_row": (per(t["write"]["total"], tracer.rows_written, us),
                                     ("write",)),
        "chainio.write_mb": (tracer.bytes_written / 1e6, ("write",)),
        "chainio.read_s": (t["read"]["total"], ("read",)),
        "chainio.read_us_per_row": (per(t["read"]["total"], tracer.rows_read, us), ("read",)),
        "postprocess.relabel_s": (t["relabel"]["total"], ("relabel",)),
        "postprocess.relabel_peak_mb": (tracer.peak_bytes["relabel"] / 1e6, ("relabel",)),
        "postprocess.kmeans_s": (t["kmeans"]["total"], ("kmeans",)),
        "postprocess.kmeans_best_iters": (tracer.kmeans_iters, ("kmeans",)),
        "postprocess.density_s": (t["density"]["total"], ("density",)),
        "postprocess.density_peak_mb": (tracer.peak_bytes["density"] / 1e6, ("density",)),
        "postprocess.summarise_s": (t["summarise"]["total"], ("summarise",)),
        "postprocess.switch_s": (t["switch"]["total"], ("switch",)),
        "trace.overhead_s": (traced_s - untraced_s, ()),
    }
    gone = tracer.missing_groups()
    return {
        name: None if gone.intersection(groups) else value
        for name, (value, groups) in figures.items()
    }
