"""Command-line entry point: simulate, fit, prior-sample, summarize, oracle-check.

Configuration is one declarative JSON file; command-line flags override it.
Every effective setting is echoed into the run manifest so no default stays
implicit.  Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .chainio import CHAIN_FORMAT_VERSION, chain_from_csv, chain_to_csv, write_table
from .likelihood import Dataset
from .oracles import gaussian_pair_closed, gaussian_pair_quad, marginal_one_obs_mc, n1_divergence_probe
from .params import FAMILIES, StandardParams
from .postprocess import (
    density_curve,
    detect_switching,
    find_map,
    kmeans_summary,
    pool_draws,
    relabel_map,
    summarise,
)
from .priors import PriorSpec, prior_quantile_study, sample_prior
from .sampler import RunConfig, chain_columns, gelman_rubin
from .sampler import mwg_exponential, mwg_gaussian, mwg_gaussian_k2, mwg_poisson

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _load_config(path) -> dict:
    cfg = {} if path is None else json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object, got {type(cfg).__name__}")
    return cfg


def _object(cfg: dict, name: str) -> dict:
    """The config's ``name`` entry, ``{}`` when absent; anything but a JSON object is refused."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be a JSON object, got {section!r}")
    return section


def _section(cfg: dict, name: str, cls, **overrides):
    """The config's ``name`` object with the non-``None`` flag ``overrides`` laid
    over it, as a ``cls``, which holds the defaults and checks the values."""
    section = _object(cfg, name)
    values = {**section, **{key: value for key, value in overrides.items() if value is not None}}
    fields = dataclasses.fields(cls)
    unknown = set(values) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown {name} options: {sorted(unknown)}")
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in values]
    if missing:
        raise ValueError(f"the {name} configuration must set {missing[0]!r}")
    try:
        return cls(**values)
    except TypeError as exc:  # numpy cannot read an object, or a list of them, as numbers
        raise ValueError(f"{name} options: {exc}") from None


def _component_count(cfg: dict, args, default=None) -> int:
    """``--k``, else the config's ``k``: an integer >= 2, checked like the run options."""
    k = args.k if args.k is not None else cfg.get("k", default)
    if type(k) is not int or k < 2:
        raise ValueError(f"{args.command} needs a component count k, an integer >= 2, got {k!r}")
    return k


@contextlib.contextmanager
def _removed_on_failure(*paths):
    """Run the block; if it raises, remove what of ``paths`` and their parents
    did not exist before it, deepest first: files, and directories only while
    they are empty, so a table already written into one is kept."""
    made = {p for path in map(Path, paths) for p in (path, *path.parents) if not p.exists()}
    try:
        yield
    except BaseException:
        for path in sorted(made, key=lambda p: len(p.parts), reverse=True):
            with contextlib.suppress(OSError):  # never made, or a directory not empty
                if path.is_dir():
                    path.rmdir()
                else:
                    path.unlink()
        raise


def _read_data_csv(path) -> Dataset:
    """One observation per non-empty line; only the first such line may be a header."""
    values = []
    header_allowed = True
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        for row in reader:
            cells = [cell for cell in row if cell.strip()]
            if not cells:
                continue
            if len(cells) > 1:
                raise ValueError(f"{path}, line {reader.line_num}: expected one value per row")
            try:
                values.append(float(cells[0]))
            except ValueError:
                if not header_allowed:
                    raise ValueError(
                        f"{path}, line {reader.line_num}: not a number: {cells[0]!r}"
                    ) from None
            header_allowed = False
    if not values:
        raise ValueError(f"no observations found in {path}")
    return Dataset(np.array(values))


# --------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    family = args.family or _object(cfg, "model").get("family") or cfg.get("family")
    model = _section(cfg, "model", StandardParams, family=family)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    if args.n < 0:
        raise ValueError(f"simulate needs --n >= 0, got {args.n}")
    comp = rng.choice(model.k, size=args.n, p=model.weights)
    if model.family == "gaussian":
        values = rng.normal(model.locs[comp], model.scales[comp])
    elif model.family == "poisson":
        values = rng.poisson(model.locs[comp]).astype(float)
    else:
        values = rng.exponential(model.locs[comp])
    write_table(args.out, [("value", values)])
    return EXIT_OK


# --------------------------------------------------------------------------
# fit


def _select_sampler(family: str, k: int, config: RunConfig):
    """Name and runner of the kernel.  A ``config.proposal`` of 1 or 2, by flag
    or config, runs the two-component Gaussian kernel and is refused for any
    other fit; ``None`` runs the family's general kernel."""
    if config.proposal is not None:
        if (family, k) != ("gaussian", 2):
            raise ValueError(
                "run option 'proposal' selects the two-component Gaussian kernel; "
                f"it applies only to a gaussian fit with k = 2, not {family} with k = {k}"
            )
        return "gaussian_k2", lambda data, spec: mwg_gaussian_k2(data, spec, config)
    kernels = {"gaussian": mwg_gaussian, "poisson": mwg_poisson, "exponential": mwg_exponential}
    return family, lambda data, spec: kernels[family](data, k, spec, config)


def _summary_payload(pooled) -> dict:
    map_params, map_index = find_map(pooled)
    relabelled, trace = relabel_map(pooled, map_params)
    report = detect_switching(trace)
    km = kmeans_summary(pooled)
    return {
        "parameters": summarise(pooled),
        "map_relabelled": {
            "parameters": summarise(relabelled),
            "map_index": map_index,
            "switching": dataclasses.asdict(report),
        },
        "kmeans": {
            "columns": km["columns"],
            "centres": np.asarray(km["centres"]).tolist(),
            "medians": np.asarray(km["medians"]).tolist(),
        },
        "family": pooled.family,
    }


def _density_grid(pooled) -> np.ndarray:
    if pooled.family == "poisson":
        top = int(np.ceil(pooled.locs.max() * 3 + 10))
        return np.arange(0, top + 1, dtype=float)
    if pooled.family == "exponential":
        return np.linspace(1e-9, float(pooled.locs.max() * 6), 512)
    spread = float(pooled.scales.max())
    lo = float(pooled.locs.min()) - 4 * spread
    hi = float(pooled.locs.max()) + 4 * spread
    return np.linspace(lo, hi, 512)


def _write_summary(pooled, out_dir: Path) -> tuple[list, dict]:
    """Write ``summary.json`` (strict JSON) and ``density.csv``, both computed
    before either is written.

    Returns both paths and the wall time in seconds of the summary (MAP
    relabelling, switch detection, k-means and the tables) and of the density.
    """
    clock = time.perf_counter
    start = clock()
    summary = _summary_payload(pooled)
    summary_s = clock() - start
    start = clock()
    grid = _density_grid(pooled)
    density = density_curve(pooled, grid)
    density_s = clock() - start
    text = json.dumps(summary, indent=2, allow_nan=False)
    summary_path, density_path = out_dir / "summary.json", out_dir / "density.csv"
    summary_path.write_text(text, encoding="utf-8")
    write_table(density_path, [("x", grid), ("density", density)])
    return [summary_path, density_path], {"summary_s": summary_s, "density_s": density_s}


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    family = args.family or cfg.get("family")
    if family not in FAMILIES:
        raise ValueError(f"fit needs a family ({', '.join(FAMILIES)})")
    k = _component_count(cfg, args)
    prior = _section(cfg, "prior", PriorSpec)
    config = _section(cfg, "run", RunConfig, iterations=args.iters, burn_in=args.burnin,
                      n_chains=args.chains, seed=args.seed, proposal=args.proposal)
    data = _read_data_csv(args.data)

    sampler_name, runner = _select_sampler(family, k, config)
    out_dir = Path(args.out)
    # made before sampling, so an unusable path is refused first, and removed
    # again if the sampler refuses the data
    with _removed_on_failure(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        result = runner(data, prior)
    wall = time.perf_counter() - start

    start = time.perf_counter()
    chain_paths = []
    for i, chain in enumerate(result.chains):
        path = out_dir / f"chain_{i}.csv"
        chain_to_csv(chain, path)
        chain_paths.append(str(path))
    write_s = time.perf_counter() - start

    summary_paths, summary_timings = _write_summary(pool_draws(result.chains), out_dir)

    psrf = {}
    if config.n_chains >= 2:
        names = ("mu", "sigma") if family == "gaussian" else ("lam",)
        psrf = {name: gelman_rubin(result.chains, name) for name in names}

    manifest = {
        "chain_format_version": CHAIN_FORMAT_VERSION,
        "package_version": __version__,
        "family": family,
        "k": k,
        "sampler": sampler_name,
        "seed": config.seed,
        "config": {
            "prior": dataclasses.asdict(prior),
            "run": dataclasses.asdict(config),
        },
        "wall_clock_s": wall,
        "timings": {"sample_s": wall, "chain_s": result.chain_s, "workers": result.workers,
                    "write_s": write_s, **summary_timings},
        "n_observations": data.n,
        "chains": [
            {
                "file": path,
                "final_scales": result.final_scales[i],
                "acceptance_rates": rates,
            }
            for i, (path, rates) in enumerate(zip(chain_paths, result.acceptance_rates()))
        ],
        "psrf": psrf,
        "outputs": chain_paths + [str(path) for path in summary_paths],
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, allow_nan=False), encoding="utf-8")
    for path in manifest["outputs"]:
        if not Path(path).exists():
            raise RuntimeError(f"declared output missing: {path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# prior-sample


def cmd_prior_sample(args) -> int:
    cfg = _load_config(args.config)
    family = args.family or cfg.get("family", "gaussian")
    k = _component_count(cfg, args, default=2)
    prior = _section(cfg, "prior", PriorSpec, kind=args.kind)
    if args.n < 0:
        raise ValueError(f"prior-sample needs --n >= 0, got {args.n}")
    if args.quantiles:
        if family != "gaussian":
            raise ValueError(f"--quantiles studies the gaussian prior only, not {family!r}")
        try:
            levels = [float(q) for q in args.quantiles.split(",")]
            if not all(0.0 < q < 1.0 for q in levels):
                raise ValueError
        except ValueError:
            raise ValueError("--quantiles needs comma-separated levels strictly inside (0, 1), "
                             f"got {args.quantiles!r}") from None
    seed = args.seed if args.seed is not None else 0
    draws = sample_prior(prior, k, family, args.n, seed)
    out = Path(args.out)
    tables = [(out, list(chain_columns(draws)))]
    if args.quantiles:
        table = prior_quantile_study(prior, k, args.n, levels, seed)
        qpath = args.quantile_out or out.with_name(out.stem + "_quantiles.csv")
        tables.append((qpath, [(f"q{level}", table[:, j]) for j, level in enumerate(levels)]))
    with _removed_on_failure(*(path for path, _ in tables)):
        for path, _ in tables:  # an unusable path is refused before a table is overwritten
            open(path, "a").close()
        for path, columns in tables:
            write_table(path, columns, integers={"phi_sign"})
    return EXIT_OK


# --------------------------------------------------------------------------
# summarize


def cmd_summarize(args) -> int:
    family, burn_in = args.family, args.burnin
    if args.manifest:
        manifest = _load_config(args.manifest)
        family = family or manifest.get("family")
        if burn_in is None:
            burn_in = _section(_object(manifest, "config"), "run", RunConfig).burn_in
    if not args.data:
        raise ValueError("summarize needs at least one chain CSV via --data")
    chains = [chain_from_csv(path, family=family, burn_in=burn_in or 0) for path in args.data]
    first = chains[0]
    for path, chain in zip(args.data, chains):
        if (chain.family, chain.k) != (first.family, first.k):
            raise ValueError(f"{path} holds a {chain.family} chain with k = {chain.k}, but "
                             f"{args.data[0]} a {first.family} one with k = {first.k}: "
                             "summarize pools chains of one family and k")
    out_dir = Path(args.out)
    with _removed_on_failure(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_summary(pool_draws(chains), out_dir)
    return EXIT_OK


# --------------------------------------------------------------------------
# oracle-check


def cmd_oracle_check(args) -> int:
    rng = np.random.default_rng(33)
    worst_rel = 0.0
    for _ in range(20):
        ti, tj = rng.uniform(0.1, 2.0, 2)
        ai, aj = rng.uniform(-3.0, 3.0, 2)
        dx = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        x1 = rng.uniform(-5.0, 5.0)
        pi_, pj_ = rng.dirichlet([1.0, 1.0])
        closed = gaussian_pair_closed(pi_, pj_, ai, aj, ti, tj, x1, x1 - dx)
        quad = gaussian_pair_quad(pi_, pj_, ai, aj, ti, tj, x1, x1 - dx)
        worst_rel = max(worst_rel, abs(quad.value - closed) / closed)
    checks = {
        "gaussian_pair_agreement": {
            "pass": bool(worst_rel < 1e-5),
            "worst_relative_error": worst_rel,
            "cases": 20,
        }
    }

    marginal = {"pass": True, "cases": []}
    for family, points in (("poisson", (1.0, 3.0, 7.0)), ("exponential", (0.5, 2.0))):
        for x1 in points:
            for k in (2, 5):
                est = marginal_one_obs_mc(family, k, x1, n_mc=args.n_mc, seed=5)
                ok = abs(est.estimate - 1.0 / x1) < 3.0 * est.std_error + 1e-12
                marginal["pass"] = marginal["pass"] and bool(ok)
                marginal["cases"].append(
                    {
                        "family": family,
                        "k": k,
                        "x1": x1,
                        "estimate": est.estimate,
                        "std_error": est.std_error,
                        "target": 1.0 / x1,
                        "pass": bool(ok),
                    }
                )
    checks["rate_marginal_identity"] = marginal

    growth_ok = all(
        n1_divergence_probe(L * L) / n1_divergence_probe(L) == 2.0 for L in (2.0, 10.0, 1e3)
    )
    checks["single_observation_divergence"] = {
        "pass": bool(growth_ok),
        "probe_at_e": n1_divergence_probe(math.e),
    }

    payload = {"all_pass": all(c["pass"] for c in checks.values()), "checks": checks}
    text = json.dumps(payload, indent=2, allow_nan=False)
    print(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK if payload["all_pass"] else EXIT_NUMERICAL


# --------------------------------------------------------------------------
# argument wiring


def _add_common(parser, *names):
    if "config" in names:
        parser.add_argument("--config", help="declarative JSON configuration file")
    if "data" in names:
        parser.add_argument("--data", help="input CSV of observations")
    if "out" in names:
        parser.add_argument("--out", required=True, help="output file or directory")
    if "seed" in names:
        parser.add_argument("--seed", type=int, default=None)
    if "family" in names:
        parser.add_argument("--family", choices=FAMILIES, default=None)
    if "k" in names:
        parser.add_argument("--k", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixanchor",
        description="Moment-anchored mixture estimation with weakly informative priors",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a dataset from a mixture model")
    _add_common(sim, "config", "out", "seed", "family")
    sim.add_argument("--n", type=int, required=True)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="run the posterior sampler on a dataset")
    _add_common(fit, "config", "data", "out", "seed", "family", "k")
    fit.add_argument("--chains", type=int, default=None)
    fit.add_argument("--iters", type=int, default=None)
    fit.add_argument("--burnin", type=int, default=None)
    fit.add_argument("--proposal", type=int, choices=(1, 2), default=None)
    fit.set_defaults(func=cmd_fit)

    pri = sub.add_parser("prior-sample", help="draw from the weakly informative prior")
    _add_common(pri, "config", "out", "seed", "family", "k")
    pri.add_argument("--n", type=int, required=True)
    pri.add_argument("--kind", choices=("single_uniform", "double_uniform"), default=None)
    pri.add_argument("--quantiles", help="comma-separated levels for the quantile table")
    pri.add_argument("--quantile-out", dest="quantile_out", default=None)
    pri.set_defaults(func=cmd_prior_sample)

    summ = sub.add_parser("summarize", help="summarise previously written chains")
    summ.add_argument("--data", nargs="+", help="chain CSV files")
    summ.add_argument("--manifest", help="run manifest to read family and burn-in from")
    summ.add_argument("--out", required=True)
    summ.add_argument("--family", choices=FAMILIES)
    summ.add_argument("--burnin", type=int, default=None)
    summ.set_defaults(func=cmd_summarize)

    orc = sub.add_parser("oracle-check", help="run the propriety verification suite")
    orc.add_argument("--out", default=None)
    orc.add_argument("--n-mc", dest="n_mc", type=int, default=200_000)
    orc.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, ArithmeticError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
