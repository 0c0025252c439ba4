"""End-to-end command-line tests: files, schemas, exit codes, determinism."""

import csv
import dataclasses
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixanchor.chainio import chain_from_csv, chain_to_csv, write_table
from mixanchor.cli import _removed_on_failure, main
from mixanchor.likelihood import Dataset
from mixanchor.params import FAMILIES, StandardParams
from mixanchor.priors import PriorSpec
from mixanchor.sampler import (
    Chain,
    RunConfig,
    mwg_exponential,
    mwg_gaussian,
    mwg_gaussian_k2,
    mwg_poisson,
)


@pytest.fixture()
def gaussian_config(tmp_path):
    config = {
        "family": "gaussian",
        "k": 2,
        "model": {
            "family": "gaussian",
            "weights": [0.65, 0.35],
            "locs": [-8.0, -0.5],
            "scales": [2.0, 1.0],
        },
        "prior": {"kind": "double_uniform"},
        "run": {"iterations": 1200, "burn_in": 200, "n_chains": 2, "seed": 7},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# (id, config file contents, what the error must name); json.dumps writes
# math.inf as Infinity, which json.load reads back
MALFORMED_CONFIGS = [
    ("unknown-key", {"prior": {"alpah0": 5}}, "unknown prior options: ['alpah0']"),
    ("bool", {"prior": {"alpha0": True}}, "'alpha0'"),
    ("nan-string", {"prior": {"alpha0": "nan"}}, "'alpha0'"),
    ("infinity", {"prior": {"gamma_dirichlet_alpha": math.inf}}, "'gamma_dirichlet_alpha'"),
    ("phi-beta-triple", {"prior": {"phi_beta": [1, 1, 1]}}, "'phi_beta'"),
    ("phi-beta-string", {"prior": {"phi_beta": [1, "x"]}}, "'phi_beta'"),
    ("1e307", {"prior": {"alpha0": 1e307}}, "'alpha0'"),
    ("prior-string", {"prior": "double_uniform"}, "section 'prior'"),
    ("run-list", {"run": [200, 50]}, "section 'run'"),
    ("file-list", [{"run": {"iterations": 200}}], "must hold a JSON object"),
]

README_MODEL = {"family": "gaussian", "weights": [0.65, 0.35], "locs": [-8.0, -0.5],
                "scales": [2.0, 1.0]}

# (id, simulate config, what the error must name); the model is read as a
# StandardParams, whose checks name the offending key
MALFORMED_MODELS = [
    ("model-list", {"model": [1, 2]}, "section 'model'"),
    ("short-locs", {"model": {**README_MODEL, "locs": [-8.0]}}, "locs length"),
    ("no-scales", {"model": {k: v for k, v in README_MODEL.items() if k != "scales"}}, "scales"),
    ("unknown-key", {"model": {**README_MODEL, "colour": "red"}},
     "unknown model options: ['colour']"),
    ("weights-object", {"model": {**README_MODEL, "weights": {"a": 1}}}, "model options"),
    ("zero-scale", {"model": {**README_MODEL, "scales": [0.0, 1.0]}}, "scales"),
    ("rate-scales", {"model": {"family": "poisson", "weights": [0.5, 0.5], "locs": [1.0, 4.0],
                               "scales": [1.0, 1.0]}}, "poisson mixtures carry no scales"),
    ("nan-loc", {"model": {**README_MODEL, "locs": ["nan", 1.0]}}, "locs must be finite"),
    ("infinite-scale", {"model": {**README_MODEL, "scales": [math.inf, 1.0]}},
     "scales must be finite"),
    ("infinite-rate", {"model": {"family": "exponential", "weights": [0.5, 0.5],
                                 "locs": [math.inf, 4.0]}}, "locs must be finite"),
    ("string-weights", {"model": {**README_MODEL, "weights": "ab"}}, "weights must be"),
    ("boolean-weights", {"model": {**README_MODEL, "weights": [True, False]}},
     "weights must hold numbers, not booleans"),
]

# (id, manifest contents, what the error must name); a manifest is read the
# way `fit --config` reads a config
MALFORMED_MANIFESTS = [
    ("list", [], "must hold a JSON object"),
    ("string-burn-in", {"family": "gaussian",
                        "config": {"run": {"iterations": 200, "burn_in": "50"}}}, "'burn_in'"),
    ("config-string", {"family": "gaussian", "config": "run"}, "section 'config'"),
    ("removed-run-key", {"family": "gaussian",
                         "config": {"run": {"iterations": 200, "burn_in": 50, "batch_size": 50}}},
     "unknown run options: ['batch_size']"),
]


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestSimulate:
    def test_empty_dataset_keeps_header(self, gaussian_config, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["simulate", "--config", str(gaussian_config), "--n", "0",
                     "--out", str(out)]) == 0
        assert read_rows(out) == [["value"]]

    def test_seed_makes_output_reproducible(self, gaussian_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", "--config", str(gaussian_config), "--n", "40",
                         "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_poisson_sample_mean_obeys_clt(self, tmp_path):
        config = tmp_path / "poisson.json"
        config.write_text(json.dumps({
            "model": {"family": "poisson", "weights": [0.6, 0.4], "locs": [1.0, 5.0]},
        }))
        out = tmp_path / "poisson.csv"
        assert main(["simulate", "--config", str(config), "--n", "1000000",
                     "--seed", "3", "--out", str(out)]) == 0
        values = np.array([float(r[0]) for r in read_rows(out)[1:]])
        # mixture variance: mean 2.6, second moment 0.6*(1+1) + 0.4*(25+5)
        var = 0.6 * 2.0 + 0.4 * 30.0 - 2.6**2
        se = math.sqrt(var / len(values))
        assert abs(values.mean() - 2.6) < 3 * se

    def test_invalid_model_is_a_validation_failure(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "model": {"family": "gaussian", "weights": [0.7, 0.7],
                      "locs": [0, 1], "scales": [1, 1]},
        }))
        code = main(["simulate", "--config", str(config), "--n", "5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("config, named", [
        pytest.param(config, named, id=name) for name, config, named in MALFORMED_MODELS
    ])
    def test_malformed_model_refused(self, tmp_path, capsys, config, named):
        # the first two crashed with a traceback; unknown keys, zero scales,
        # scales on a rate model, non-finite locations and scales, and boolean
        # weights were simulated; an unreadable vector did not name its key
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", str(path), "--n", "5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_family_from_top_level_keeps_the_draws(self, tmp_path):
        # the family may come from --family, the model or the config's top
        # level; each draws the components, then the values, from one generator
        model = {"weights": [0.3, 0.7], "locs": [0.5, 4.0]}
        sources = {
            "top": ({"family": "exponential", "model": model}, []),
            "model": ({"family": "gaussian", "model": {**model, "family": "exponential"}}, []),
            "flag": ({"family": "gaussian", "model": model}, ["--family", "exponential"]),
        }
        for name, (config, flags) in sources.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            assert main(["simulate", "--config", str(path), "--n", "500", "--seed", "3",
                         "--out", str(tmp_path / f"{name}.csv"), *flags]) == 0
        rng = np.random.default_rng(3)
        comp = rng.choice(2, size=500, p=np.array(model["weights"]))
        write_table(tmp_path / "reference.csv",
                    [("value", rng.exponential(np.array(model["locs"])[comp]))])
        reference = (tmp_path / "reference.csv").read_bytes()
        for name in sources:
            assert (tmp_path / f"{name}.csv").read_bytes() == reference, name

    def test_readme_lists_exactly_the_model_options(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("The `model` section accepts exactly these keys")[1].split("\n\n")[1]
        keys = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
        assert keys == [field.name for field in dataclasses.fields(StandardParams)]


class TestFit:
    def test_end_to_end_outputs(self, gaussian_config, tmp_path):
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "50",
              "--seed", "22", "--out", str(data)])
        out = tmp_path / "run"
        assert main(["fit", "--config", str(gaussian_config), "--data", str(data),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("package_version", "config", "seed", "wall_clock_s",
                    "chains", "psrf", "outputs"):
            assert key in manifest
        for path in manifest["outputs"]:
            assert (tmp_path / path).exists() or __import__("pathlib").Path(path).exists()
        assert len(manifest["chains"]) == 2
        assert set(manifest["chains"][0]["final_scales"])
        assert "mu" in manifest["psrf"]
        summary = json.loads((out / "summary.json").read_text())
        for key in ("parameters", "map_relabelled", "kmeans"):
            assert key in summary
        for row in summary["parameters"].values():
            assert set(row) == {"mean", "median", "q025", "q975"}
        assert set(summary["map_relabelled"]["switching"]) == {
            "distinct_permutations", "transitions", "longest_constant_run"}

    def test_manifest_times_each_stage(self, gaussian_config, tmp_path):
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "40",
              "--seed", "5", "--out", str(data)])
        out = tmp_path / "run"
        assert main(["fit", "--config", str(gaussian_config), "--data", str(data),
                     "--iters", "200", "--burnin", "50", "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
        timings = manifest["timings"]
        assert set(timings) == {"sample_s", "chain_s", "render_s", "workers", "write_s",
                                "summary_s", "density_s"}
        # one sampling and one rendering wall time per chain, and the number of
        # processes they ran in
        chain_s = timings.pop("chain_s")
        render_s = timings.pop("render_s")
        assert len(chain_s) == len(render_s) == 2
        workers = timings.pop("workers")
        assert type(workers) is int and 1 <= workers <= 2
        for value in [*timings.values(), *chain_s, *render_s]:
            assert isinstance(value, float) and math.isfinite(value) and value >= 0.0
        assert timings["sample_s"] == manifest["wall_clock_s"]
        assert "workers" not in manifest["config"]["run"]

    def test_single_observation_refused_with_propriety_message(self, gaussian_config, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("value\n1.5\n")
        code = main(["fit", "--config", str(gaussian_config), "--data", str(data),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "at least two observations" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("value\n1.0\nabc\n2.5\n3,x\n4.0\n", 3),
        ("value\n1.0\n\n2.5\n3,x\n4.0\n", 5),
        ("1.0\n2.5\nvalue\n", 3),
    ])
    def test_malformed_data_rows_refused_with_line_number(self, tmp_path, capsys, text, line):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        code = main(["fit", "--family", "gaussian", "--k", "2", "--iters", "100",
                     "--burnin", "10", "--data", str(data), "--out", str(tmp_path / "r")])
        assert code == 2
        assert f"line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("batch_size", 50), ("adapt_throughout", True), ("lambda_proposal", "random_walk"),
        ("target_scalar", 0.44), ("target_vector", 0.234),
    ])
    def test_removed_run_options_refused(self, gaussian_config, tmp_path, capsys, key, value):
        config = json.loads(gaussian_config.read_text())
        config["run"][key] = value
        path = tmp_path / "removed.json"
        path.write_text(json.dumps(config))
        data = tmp_path / "data.csv"
        data.write_text("value\n1.0\n2.5\n")
        code = main(["fit", "--config", str(path), "--data", str(data),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown run options" in err and key in err

    @pytest.mark.parametrize("key, value", [
        ("iterations", "120"), ("iterations", 120.5), ("n_chains", 1.5), ("burn_in", True),
        ("adapt_horizon", "x"), ("proposal", True), ("init_scales", [1]),
        ("init_scales", {"p": "1"}), ("init_scales", {"p": math.nan}),
        ("init_scales", {"p": math.inf}), ("init_scales", {"p": 0.0}),
        ("init_scales", {"bogus": 1.0}), ("init_scales", {"xi_ind": 1.0}),
    ])
    def test_invalid_run_values_refused_before_sampling(
        self, gaussian_config, tmp_path, capsys, key, value
    ):
        config = json.loads(gaussian_config.read_text())
        config["run"].update(iterations=200, burn_in=50)
        config["run"][key] = value
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(config))
        data = tmp_path / "data.csv"
        data.write_text("value\n1.0\n2.5\n")
        out = tmp_path / "r"
        code = main(["fit", "--config", str(path), "--data", str(data), "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (out / "chain_0.csv").exists()

    @pytest.mark.parametrize("family, k, by_flag", [
        ("gaussian", 3, True), ("poisson", 2, True), ("exponential", 2, False),
    ])
    def test_proposal_refused_without_specialised_kernel(
        self, tmp_path, capsys, family, k, by_flag
    ):
        data = tmp_path / "data.csv"
        data.write_text("value\n1\n2\n5\n")
        run = {"iterations": 100, "burn_in": 10}
        if not by_flag:
            run["proposal"] = 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"run": run}))
        code = main(["fit", "--config", str(config), "--family", family, "--k", str(k),
                     "--data", str(data), "--out", str(tmp_path / "r"),
                     *(["--proposal", "2"] if by_flag else [])])
        assert code == 2
        assert "proposal" in capsys.readouterr().err

    def test_readme_lists_exactly_the_run_options(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("The `run` section accepts exactly these keys")[1].split("\n\n")[1]
        keys = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
        assert keys == [field.name for field in dataclasses.fields(RunConfig)]

    def test_readme_lists_exactly_the_prior_options(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("The `prior` section accepts exactly these keys")[1].split("\n\n")[1]
        keys = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
        assert keys == [field.name for field in dataclasses.fields(PriorSpec)]

    @pytest.mark.parametrize("command, config, named", [
        pytest.param(command, config, named, id=f"{command}-{name}")
        for name, config, named in MALFORMED_CONFIGS
        for command in ("fit", "prior-sample")
        if command == "fit" or "run" not in config
    ])
    def test_malformed_config_refused_before_sampling(self, tmp_path, capsys, command, config,
                                                       named):
        # each of these was ignored, fitted, crashed with a traceback or exited 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        data = tmp_path / "data.csv"
        data.write_text("value\n1.0\n2.5\n4.0\n")
        out = tmp_path / "r"
        if command == "fit":
            argv = ["--data", str(data), "--iters", "200", "--burnin", "50", "--out", str(out)]
        else:
            argv = ["--n", "20", "--out", str(out / "prior.csv")]
        code = main([command, *argv, "--config", str(path), "--family", "gaussian", "--k", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_refused_fit_leaves_no_directory_it_made(self, tmp_path, capsys, monkeypatch):
        # the data check refused the fit after --out was made, which stayed behind;
        # a refusal raised in a worker process, after the pool started, cleans up too
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        data = tmp_path / "data.csv"
        data.write_text("value\n-1\n2\n3\n")
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps({"prior": {"alpha0": 1e-300}}))
        kept = tmp_path / "kept"
        kept.mkdir()
        cases = [
            (["--family", "poisson"], "nonnegative integers"),
            (["--family", "gaussian", "--chains", "2", "--config", str(tiny)],
             "no prior draw of the initial state"),
        ]
        for flags, refusal in cases:
            for out in (tmp_path / "new", tmp_path / "a" / "b", kept):
                code = main(["fit", *flags, "--k", "2", "--data", str(data),
                             "--iters", "200", "--burnin", "50", "--out", str(out)])
                assert code == 2
                assert refusal in capsys.readouterr().err
                assert multiprocessing.active_children() == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv", "kept", "tiny.json"]
        assert not any(kept.iterdir())

    def test_refused_pooled_k2_fit_writes_no_table(self, gaussian_config, tmp_path, capsys,
                                                   monkeypatch):
        # chain 0 is sampled and rendered in its worker, then chain 1 fails: the
        # tables are written only once every chain has succeeded, so none is
        from mixanchor import sampler

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        run_chain = sampler._run_chain

        def second_chain_fails(kernel, family, k, config, rng):
            result = run_chain(kernel, family, k, config, rng)
            if rng.bit_generator.seed_seq.spawn_key == (1,):
                raise sampler._NoInitialState("refused after sampling")
            return result

        monkeypatch.setattr(sampler, "_run_chain", second_chain_fails)
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "50",
              "--seed", "22", "--out", str(data)])
        kept = tmp_path / "kept"
        kept.mkdir()
        for out in (tmp_path / "new", kept):
            code = main(["fit", "--config", str(gaussian_config), "--data", str(data),
                         "--proposal", "1", "--chains", "2", "--iters", "300",
                         "--burnin", "100", "--out", str(out)])
            assert code == 2
            assert "no prior draw of the initial state" in capsys.readouterr().err
            assert multiprocessing.active_children() == []
        assert not (tmp_path / "new").exists()
        assert not any(kept.iterdir())

    @pytest.mark.parametrize("chains", (1, 2))
    def test_fit_out_of_memory_exits_2_and_removes_its_output(self, chains, tmp_path, capsys,
                                                              monkeypatch):
        # a chain's storage too large to allocate exits 2 with a message, not a numpy
        # traceback; in a pooled fit the error is raised in a worker
        from mixanchor import sampler

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def no_memory(kernel, family, k, config, rng):
            raise MemoryError("Unable to allocate 931. GiB for an array")

        monkeypatch.setattr(sampler, "_run_chain", no_memory)
        data = tmp_path / "data.csv"
        data.write_text("value\n-1\n2\n3\n")
        out = tmp_path / "run"
        code = main(["fit", "--family", "gaussian", "--k", "2", "--data", str(data),
                     "--chains", str(chains), "--iters", "200", "--burnin", "50",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory") and "931. GiB" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_failure_keeps_a_made_directory_that_holds_a_file(self, tmp_path):
        # a chain CSV written before a later step fails is never deleted
        out = tmp_path / "a" / "b"
        with pytest.raises(RuntimeError):
            with _removed_on_failure(out):
                out.mkdir(parents=True)
                (out / "chain_0.csv").write_text("iteration\n")
                raise RuntimeError("a later step")
        assert (out / "chain_0.csv").read_text() == "iteration\n"

    def test_too_few_retained_draws_refused_before_sampling(self, tmp_path, capsys,
                                                             monkeypatch):
        # the PSRF refused this run after sampling, and the chain tables, summary.json
        # and density.csv stayed behind without a manifest
        from mixanchor import cli

        def never_sampled(*args):
            raise AssertionError("sampled a run that was to be refused")

        monkeypatch.setattr(cli, "mwg_gaussian", never_sampled)
        data = tmp_path / "data.csv"
        write_table(data, [("value", np.random.default_rng(1).normal(size=20))])
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("unrelated")
        for out in (tmp_path / "new", kept):
            code = main(["fit", "--family", "gaussian", "--k", "2", "--iters", "2",
                         "--burnin", "1", "--chains", "2", "--data", str(data),
                         "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert all(flag in err for flag in ("--iters 2", "--burnin 1", "--chains 2"))
        assert not (tmp_path / "new").exists()
        assert [path.name for path in kept.iterdir()] == ["notes.txt"]

    def test_failure_after_sampling_removes_every_table(self, tmp_path, capsys, monkeypatch):
        # a refusal computed after sampling comes before the first table is written,
        # and removes only what the fit made
        from mixanchor import cli

        def refused(chains, name):
            raise ValueError("zero within-chain variance")

        monkeypatch.setattr(cli, "gelman_rubin", refused)
        data = tmp_path / "data.csv"
        write_table(data, [("value", np.random.default_rng(2).normal(size=20))])
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("unrelated")
        for out in (tmp_path / "new", kept):
            code = main(["fit", "--family", "gaussian", "--k", "2", "--iters", "40",
                         "--burnin", "10", "--chains", "2", "--data", str(data),
                         "--out", str(out)])
            assert code == 2
            assert "zero within-chain variance" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        assert [path.name for path in kept.iterdir()] == ["notes.txt"]
        assert (kept / "notes.txt").read_text() == "unrelated"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_prior_draws_outside_the_support_exit_2(self, tmp_path, capsys, monkeypatch, cpus):
        # Dirichlet(1e-300) weights fall below MIN_WEIGHT in every draw; this exited 3
        # with "could not find a finite initial log-posterior"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        data = tmp_path / "data.csv"
        write_table(data, [("value", np.random.default_rng(1).normal([-8.0, -0.5], 1.0, (25, 2))
                                      .ravel())])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"prior": {"alpha0": 1e-300}, "run": {
            "iterations": 200, "burn_in": 50, "n_chains": 2}}))
        code = main(["fit", "--family", "gaussian", "--k", "2", "--config", str(config),
                     "--data", str(data), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "error: no prior draw of the initial state lay inside the support under the prior "
            "settings {'kind': 'double_uniform', 'alpha0': 1e-300, 'phi_beta': (1.0, 1.0), "
            "'gamma_dirichlet_alpha': 1.0}: extreme hyperparameters put the draws on its "
            "boundary (a weight below 1e-12, or a squared radius at 0 or 1)\n")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("flags", [[], ["--proposal", "1"]], ids=["general", "proposal1"])
    def test_outputs_do_not_depend_on_the_worker_count(self, gaussian_config, tmp_path,
                                                       monkeypatch, flags):
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "50",
              "--seed", "22", "--out", str(data)])
        names = [f"chain_{i}.csv" for i in range(4)] + ["summary.json", "density.csv"]
        outputs, workers = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            out = tmp_path / f"cpus{cpus}"
            assert main(["fit", "--config", str(gaussian_config), "--data", str(data),
                         "--chains", "4", "--iters", "400", "--burnin", "100",
                         "--out", str(out), *flags]) == 0
            assert multiprocessing.active_children() == []
            outputs.append([(out / name).read_bytes() for name in names])
            manifest = json.loads((out / "manifest.json").read_text())
            workers.append(manifest["timings"]["workers"])
        assert workers == [1, 2]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("family, k, flags", [
        ("gaussian", 3, []), ("gaussian", 2, []), ("gaussian", 2, ["--proposal", "2"]),
        ("exponential", 2, []), ("poisson", 3, []),
    ], ids=["gaussian-k3", "gaussian-k2-general", "gaussian-k2-proposal2", "exponential-k2",
            "poisson-k3"])
    def test_manifest_config_replays_its_fit(self, tmp_path, family, k, flags):
        # the manifest's family, k and config, fed back as a config, rerun the
        # same kernel with the same settings to the same bytes
        rng = np.random.default_rng(5)
        if family == "gaussian":
            values = rng.normal([-4.0, 3.0, 10.0][:k], 1.0, size=(15, k)).ravel()
        elif family == "poisson":
            values = rng.poisson([2.0, 9.0, 20.0], size=(15, k)).ravel().astype(float)
        else:
            values = rng.exponential([1.0, 5.0], size=(20, k)).ravel()
        data = tmp_path / "data.csv"
        data.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["fit", "--family", family, "--k", str(k), "--iters", "300", "--burnin",
                     "50", "--chains", "2", "--seed", "5", "--data", str(data),
                     "--out", str(first), *flags]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(
            {"family": manifest["family"], "k": manifest["k"], **manifest["config"]}))
        assert main(["fit", "--config", str(replay), "--data", str(data),
                     "--out", str(again)]) == 0
        replayed = json.loads((again / "manifest.json").read_text())
        assert replayed["sampler"] == manifest["sampler"]
        assert replayed["config"] == manifest["config"]
        for name in ("chain_0.csv", "chain_1.csv", "summary.json", "density.csv"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_all_zero_poisson_refused(self, tmp_path, capsys):
        data = tmp_path / "zeros.csv"
        data.write_text("value\n0\n0\n0\n")
        code = main(["fit", "--family", "poisson", "--k", "2", "--iters", "100",
                     "--burnin", "10", "--data", str(data), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["1000000", "1e18"])
    def test_poisson_density_grid_is_bounded(self, tmp_path, capsys, count):
        # a grid of one point per count held 5.4 million rows at 1e6, and at
        # 1e18 could not be allocated
        data = tmp_path / "counts.csv"
        data.write_text(f"value\n{count}\n3\n")
        out = tmp_path / "r"
        code = main(["fit", "--family", "poisson", "--k", "2", "--iters", "20",
                     "--burnin", "5", "--data", str(data), "--out", str(out)])
        if code == 2 and count == "1e18":
            assert "data" in capsys.readouterr().err
            return
        assert code == 0
        header, *rows = read_rows(out / "density.csv")
        grid = [float(row[header.index("x")]) for row in rows]
        assert len(grid) <= 512
        assert grid[0] == 0.0 and all(np.diff(grid) > 0) and all(np.mod(grid, 1) == 0)
        assert grid[-1] > float(count)

    def test_identical_seeds_give_byte_identical_chains(self, gaussian_config, tmp_path):
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "30",
              "--seed", "4", "--out", str(data)])
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["fit", "--config", str(gaussian_config), "--data", str(data),
                         "--out", str(out)]) == 0
            outs.append(out)
        for i in range(2):
            a = (outs[0] / f"chain_{i}.csv").read_bytes()
            b = (outs[1] / f"chain_{i}.csv").read_bytes()
            assert a == b

    def test_chain_csv_round_trips(self, gaussian_config, tmp_path):
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "30",
              "--seed", "4", "--out", str(data)])
        out = tmp_path / "run"
        main(["fit", "--config", str(gaussian_config), "--data", str(data),
              "--out", str(out)])
        chain = chain_from_csv(out / "chain_0.csv", burn_in=200)
        rewritten = tmp_path / "rewritten.csv"
        chain_to_csv(chain, rewritten)
        assert rewritten.read_bytes() == (out / "chain_0.csv").read_bytes()

    @pytest.mark.parametrize("family, k, run", [
        ("gaussian", 3, lambda data, spec, config: mwg_gaussian(data, 3, spec, config)),
        ("gaussian", 2, mwg_gaussian_k2),
        ("poisson", 3, lambda data, spec, config: mwg_poisson(data, 3, spec, config)),
        ("exponential", 2, lambda data, spec, config: mwg_exponential(data, 2, spec, config)),
    ], ids=["gaussian-k3", "gaussian-k2-proposal", "poisson-k3", "exponential-k2"])
    def test_chain_round_trips_for_every_kernel(self, tmp_path, capsys, family, k, run):
        rng = np.random.default_rng(5)
        if family == "gaussian":
            values = rng.normal([-4.0, 3.0, 10.0][:k], 1.0, size=(15, k)).ravel()
        elif family == "poisson":
            values = rng.poisson([2.0, 9.0, 20.0], size=(15, k)).ravel().astype(float)
        else:
            values = rng.exponential([1.0, 5.0], size=(20, k)).ravel()
        config = RunConfig(iterations=200, burn_in=50, seed=3)
        chain = run(Dataset(values), PriorSpec(), config).chains[0]
        path = tmp_path / "chain.csv"
        chain_to_csv(chain, path)

        read = chain_from_csv(path, family=family, burn_in=chain.burn_in)
        rewritten = tmp_path / "rewritten.csv"
        chain_to_csv(read, rewritten)
        assert rewritten.read_bytes() == path.read_bytes()
        for field in dataclasses.fields(Chain):
            ours, theirs = getattr(read, field.name), getattr(chain, field.name)
            if field.name == "accepts":
                assert list(ours) == list(theirs)
                for name in theirs:
                    assert ours[name].dtype == np.uint8
                    assert np.array_equal(ours[name], theirs[name])
            elif isinstance(theirs, np.ndarray):
                # C order, as the sampler builds it, so reductions add in the fit's order
                assert ours.flags.c_contiguous
                assert ours.shape == theirs.shape
                assert np.array_equal(ours, theirs)
            else:
                assert ours == theirs
        if family == "gaussian":
            assert read.varpi.shape == (len(chain), k - 2)
        header = path.read_text().splitlines()[0].split(",")
        names = [name for name, _ in read.columns()]
        assert names == [h for h in header if h != "iteration" and not h.startswith("acc_")]
        for name, values in read.columns():
            assert np.array_equal(read.column(name), values)

        header_only = tmp_path / "header_only.csv"
        header_only.write_text(",".join(header) + "\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["summarize", "--data", str(header_only), "--family", family,
                         "--out", str(tmp_path / "summ")])
        assert code == 2
        assert "no draws in" in capsys.readouterr().err

    def test_config_proposal_selects_k2_kernel(self, gaussian_config, tmp_path):
        # a proposal variant set in the config picks the kernel as the flag does
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "30",
              "--seed", "4", "--out", str(data)])
        config = json.loads(gaussian_config.read_text())
        config["run"].update(iterations=200, burn_in=50, proposal=2)
        path = tmp_path / "proposal.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["fit", "--config", str(path), "--data", str(data), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sampler"] == "gaussian_k2"
        assert manifest["config"]["run"]["proposal"] == 2

    def test_manifest_is_strict_json_when_adapting_throughout(self, gaussian_config, tmp_path):
        # adapting to the end leaves no post-horizon window to measure
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "30",
              "--seed", "4", "--out", str(data)])
        config = tmp_path / "throughout.json"
        config.write_text(json.dumps({
            "family": "gaussian", "k": 2,
            "run": {"iterations": 200, "burn_in": 50, "adapt_horizon": 200},
        }))
        out = tmp_path / "run"
        assert main(["fit", "--config", str(config), "--data", str(data),
                     "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
        for chain in manifest["chains"]:
            assert all(rate is None for rate in chain["acceptance_rates"].values())

    @pytest.mark.parametrize("values", [[1.0, 1.0], [0.0, 1e-300], [1e200, -1e200, 3e199]])
    @pytest.mark.parametrize("proposal", [[], ["--proposal", "1"]])
    def test_zero_spread_data_refused_with_propriety_message(
        self, tmp_path, capsys, values, proposal
    ):
        data = tmp_path / "tied.csv"
        data.write_text("value\n" + "".join(f"{v!r}\n" for v in values))
        code = main(["fit", "--family", "gaussian", "--k", "2", "--iters", "100",
                     "--burnin", "10", "--data", str(data), "--out", str(tmp_path / "r"),
                     *proposal])
        assert code == 2
        assert "at least two distinct observations" in capsys.readouterr().err


    @pytest.mark.parametrize("k", [2.7, True, "3", 1, None])
    def test_non_integer_k_refused(self, gaussian_config, tmp_path, capsys, k):
        # 2.7 used to fit k = 2 and "3" or true to pass as counts
        config = json.loads(gaussian_config.read_text())
        config["k"] = k
        path = tmp_path / "k.json"
        path.write_text(json.dumps(config))
        data = tmp_path / "data.csv"
        data.write_text("value\n1.0\n2.5\n")
        code = main(["fit", "--config", str(path), "--data", str(data),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "integer >= 2" in capsys.readouterr().err

    def test_wide_logit_walk_fits(self, gaussian_config, tmp_path):
        # at scale 1000 the logit walk's exp overflowed and the fit exited 3
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "30",
              "--seed", "4", "--out", str(data)])
        config = json.loads(gaussian_config.read_text())
        config["run"].update(iterations=300, burn_in=50, init_scales={"p": 1000})
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(config))
        assert main(["fit", "--config", str(path), "--data", str(data), "--proposal", "2",
                     "--out", str(tmp_path / "r")]) == 0


class TestPriorSampleAndSummarize:
    def test_prior_sample_row_count(self, tmp_path):
        out = tmp_path / "prior.csv"
        assert main(["prior-sample", "--family", "gaussian", "--k", "3",
                     "--n", "20000", "--seed", "1", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 20001
        assert rows[0] == ["p1", "p2", "p3", "phi_sq", "phi_sign", "xi1", "xi2", "varpi1"]
        assert {row[4] for row in rows[1:]} <= {"1", "-1"}

    def test_quantile_table_written(self, tmp_path):
        out = tmp_path / "prior.csv"
        assert main(["prior-sample", "--family", "gaussian", "--k", "2", "--n", "50",
                     "--seed", "1", "--out", str(out), "--quantiles", "0.5,0.99"]) == 0
        qrows = read_rows(tmp_path / "prior_quantiles.csv")
        assert qrows[0] == ["q0.5", "q0.99"]
        assert len(qrows) == 51

    @pytest.mark.parametrize("argv, named", [
        (["--family", "gaussian", "--n", "-3"], "--n >= 0, got -3"),
        (["--family", "poisson", "--n", "5", "--quantiles", "0.5"], "gaussian prior only"),
        (["--family", "gaussian", "--n", "5", "--quantiles", "1.5"], "--quantiles"),
        (["--family", "gaussian", "--n", "5", "--quantiles", "0.5,abc"], "--quantiles"),
        (["--family", "gaussian", "--n", "5", "--quantiles", "0.5",
          "--quantile-out", "{tmp}/nodir/q.csv"], "nodir/q.csv"),
    ], ids=["negative-n", "rate-quantiles", "level-above-one", "level-not-a-number",
            "quantile-table-unwritable"])
    def test_prior_sample_refuses_bad_flags(self, tmp_path, capsys, argv, named):
        # a negative --n ended in numpy's "negative dimensions", a rate family's
        # quantile study sampled the gaussian prior, and bad levels were refused
        # only after the draws table was written, "abc" without naming the flag;
        # a quantile table that could not be written left the draws table behind
        out = tmp_path / "prior.csv"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(["prior-sample", "--k", "2", *argv, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_refusal_keeps_an_existing_draws_table(self, tmp_path, capsys):
        # the draws table was overwritten before the quantile table was refused
        out = tmp_path / "prior.csv"
        out.write_text("kept\n")
        assert main(["prior-sample", "--family", "gaussian", "--k", "2", "--n", "5",
                     "--out", str(out), "--quantiles", "0.5",
                     "--quantile-out", str(tmp_path / "nodir" / "q.csv")]) == 2
        assert "nodir" in capsys.readouterr().err
        assert out.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == [out]

    def test_no_draws_give_header_only_tables(self, tmp_path):
        # --n 0 with --quantiles ended in "zero-size array to reduction operation"
        out = tmp_path / "prior.csv"
        assert main(["prior-sample", "--family", "gaussian", "--k", "3", "--n", "0",
                     "--out", str(out), "--quantiles", "0.5,0.9"]) == 0
        assert read_rows(out) == [["p1", "p2", "p3", "phi_sq", "phi_sign", "xi1", "xi2",
                                   "varpi1"]]
        assert read_rows(tmp_path / "prior_quantiles.csv") == [["q0.5", "q0.9"]]

    @pytest.mark.parametrize("k", [2.7, True, "3", 1])
    def test_prior_sample_refuses_non_integer_k(self, tmp_path, capsys, k):
        config = tmp_path / "k.json"
        config.write_text(json.dumps({"family": "gaussian", "k": k}))
        code = main(["prior-sample", "--config", str(config), "--n", "5",
                     "--out", str(tmp_path / "prior.csv")])
        assert code == 2
        assert "integer >= 2" in capsys.readouterr().err

    def test_summarize_matches_fit_summary(self, gaussian_config, tmp_path):
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "40",
              "--seed", "9", "--out", str(data)])
        run = tmp_path / "run"
        main(["fit", "--config", str(gaussian_config), "--data", str(data),
              "--out", str(run)])
        summ = tmp_path / "summ"
        assert main(["summarize",
                     "--data", str(run / "chain_0.csv"), str(run / "chain_1.csv"),
                     "--manifest", str(run / "manifest.json"),
                     "--out", str(summ)]) == 0
        original = json.loads((run / "summary.json").read_text())
        recreated = json.loads((summ / "summary.json").read_text())
        assert recreated == original
        assert (summ / "density.csv").read_bytes() == (run / "density.csv").read_bytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "1e200"])
    def test_summarize_refuses_unrelabellable_draws(self, gaussian_config, tmp_path, bad):
        # a non-finite or huge location makes the draw's matching cost NaN or
        # infinite; summarize exits 2 naming the pooled draw, without a traceback
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "40",
              "--seed", "9", "--out", str(data)])
        run = tmp_path / "run"
        main(["fit", "--config", str(gaussian_config), "--data", str(data), "--iters", "200",
              "--burnin", "50", "--chains", "1", "--out", str(run)])
        rows = read_rows(run / "chain_0.csv")
        column = rows[0].index("loc1")
        lp = rows[0].index("log_posterior")
        target = min(range(51, len(rows)), key=lambda i: float(rows[i][lp]))
        rows[target][column] = bad
        broken = tmp_path / "broken.csv"
        broken.write_text("".join(",".join(row) + "\n" for row in rows))
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-m", "mixanchor.cli", "summarize", "--data", str(broken),
             "--family", "gaussian", "--burnin", "50", "--out", str(tmp_path / "s")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert f"cannot relabel pooled draw {target - 51}:" in out.stderr


def _fit_one_chain(tmp_path, family):
    """Fit one 200-sweep chain with burn-in 50; returns the run directory."""
    rng = np.random.default_rng(9)
    if family == "gaussian":
        values = rng.normal([-8.0, -0.5], [2.0, 1.0], size=(20, 2)).ravel()
    else:
        values = rng.exponential([1.0, 5.0], size=(20, 2)).ravel()
    data = tmp_path / "data.csv"
    data.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
    run = tmp_path / "run"
    assert main(["fit", "--family", family, "--k", "2", "--data", str(data), "--iters", "200",
                 "--burnin", "50", "--seed", "9", "--out", str(run)]) == 0
    return run


def _broken_copy(tmp_path, run, column, value):
    """The run's chain with ``column`` set to ``value`` in iteration 99 (pooled draw 49)."""
    rows = read_rows(run / "chain_0.csv")
    rows[100][rows[0].index(column)] = value
    broken = tmp_path / "broken.csv"
    broken.write_text("".join(",".join(row) + "\n" for row in rows))
    return broken


@pytest.fixture(scope="module")
def gaussian_run(tmp_path_factory):
    """One 200-sweep Gaussian chain with burn-in 50, shared by the refusal tests."""
    return _fit_one_chain(tmp_path_factory.mktemp("gaussian"), "gaussian")


@pytest.fixture(scope="module")
def exponential_run(tmp_path_factory):
    """One 200-sweep exponential chain with burn-in 50, shared by the refusal tests."""
    return _fit_one_chain(tmp_path_factory.mktemp("exponential"), "exponential")


class TestSummarizeRefusals:
    @pytest.mark.parametrize("manifest, named", [
        pytest.param(manifest, named, id=name) for name, manifest, named in MALFORMED_MANIFESTS
    ])
    def test_malformed_manifest_refused(self, gaussian_run, tmp_path, capsys, manifest, named):
        # the first three crashed with a traceback; the last was summarised
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "s"
        code = main(["summarize", "--data", str(gaussian_run / "chain_0.csv"),
                     "--manifest", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("burn_in", [-5, 200, 250])
    def test_burn_in_outside_the_chain_refused(self, gaussian_run, tmp_path, capsys, burn_in):
        # -5 summarised the last five draws; 200 and more said only "empty chain"
        chain = gaussian_run / "chain_0.csv"
        code = main(["summarize", "--data", str(chain), "--burnin", str(burn_in),
                     "--out", str(tmp_path / "s")])
        assert code == 2
        assert f"{chain} holds 200 draws" in capsys.readouterr().err
        with pytest.raises(ValueError, match=r"in \[0, 200\), got"):
            chain_from_csv(chain, burn_in=burn_in)

    def test_rate_chain_needs_its_family(self, tmp_path, capsys):
        # a chain without a mu column used to be summarised as Poisson
        run = _fit_one_chain(tmp_path, "exponential")
        out = tmp_path / "s"
        assert main(["summarize", "--data", str(run / "chain_0.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--family" in err and "--manifest" in err
        assert main(["summarize", "--data", str(run / "chain_0.csv"), "--manifest",
                     str(run / "manifest.json"), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["family"] == "exponential"

    @pytest.mark.parametrize("order, family, refused", [
        (("gaussian",), "exponential", "gaussian"),
        (("exponential",), "gaussian", "exponential"),
        (("exponential", "gaussian"), "exponential", "gaussian"),
    ], ids=["gaussian-as-exponential", "exponential-as-gaussian", "mixed-pair"])
    def test_family_contradicting_the_columns_refused(self, gaussian_run, exponential_run,
                                                      tmp_path, capsys, order, family, refused):
        # the first and last were summarised (the pair with 396 non-finite
        # densities in 512), the second ended in a TypeError traceback
        runs = {"gaussian": gaussian_run, "exponential": exponential_run}
        chains = [str(runs[name] / "chain_0.csv") for name in order]
        out = tmp_path / "s"
        assert main(["summarize", "--data", *chains, "--family", family,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        held = "a gaussian chain" if refused == "gaussian" else "a rate chain"
        assert f"{runs[refused] / 'chain_0.csv'} holds {held}" in err
        assert f"not a {family} one" in err
        assert not out.exists()

    def test_chains_of_different_k_refused(self, gaussian_run, tmp_path, capsys):
        # numpy's "all the input array dimensions ... must match" left an empty --out
        run3 = tmp_path / "run3"
        assert main(["fit", "--family", "gaussian", "--k", "3", "--data",
                     str(gaussian_run.parent / "data.csv"), "--iters", "60", "--burnin", "10",
                     "--chains", "1", "--seed", "9", "--out", str(run3)]) == 0
        first, second = gaussian_run / "chain_0.csv", run3 / "chain_0.csv"
        out = tmp_path / "s"
        assert main(["summarize", "--data", str(first), str(second), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{second} holds a gaussian chain with k = 3, but {first}" in err
        assert "k = 2" in err
        assert not out.exists()

    def test_refusal_removes_only_the_directories_it_made(self, gaussian_run, tmp_path, capsys):
        # the MAP refusal came after --out and its parents were made, which stayed
        # behind empty
        broken = _broken_copy(tmp_path, gaussian_run, "log_posterior", "nan")
        kept = tmp_path / "kept"
        kept.mkdir()
        for out in (kept / "sumout" / "deeper", kept):
            assert main(["summarize", "--data", str(broken), "--family", "gaussian",
                         "--burnin", "50", "--out", str(out)]) == 2
            assert "cannot pick the MAP draw" in capsys.readouterr().err
            assert kept.is_dir() and not any(kept.iterdir())

    def test_rounded_map_weights_summarize(self, tmp_path):
        # the MAP draw alone was rebuilt as validated parameters, so weights of
        # 0.3333333 three times were refused for summing to 0.9999999
        data = tmp_path / "data.csv"
        write_table(data, [("value", np.random.default_rng(3).normal([-6.0, 0.0, 6.0], 1.0,
                                                                     (15, 3)).ravel())])
        run = tmp_path / "run"
        assert main(["fit", "--family", "gaussian", "--k", "3", "--data", str(data),
                     "--iters", "60", "--burnin", "10", "--seed", "4", "--out", str(run)]) == 0
        rows = read_rows(run / "chain_0.csv")
        lp = rows[0].index("log_posterior")
        best = max(range(11, len(rows)), key=lambda i: float(rows[i][lp]))
        for name in ("p1", "p2", "p3"):
            rows[best][rows[0].index(name)] = "0.3333333"
        rounded = tmp_path / "rounded.csv"
        rounded.write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "s"
        assert main(["summarize", "--data", str(rounded), "--burnin", "10",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["map_relabelled"]["map_index"] == best - 11

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_log_posterior_is_not_the_map_draw(self, tmp_path, capsys, value):
        # argmax took the first NaN as the MAP draw and relabelled toward it
        broken = _broken_copy(tmp_path, _fit_one_chain(tmp_path, "gaussian"),
                              "log_posterior", value)
        code = main(["summarize", "--data", str(broken), "--family", "gaussian",
                     "--burnin", "50", "--out", str(tmp_path / "s")])
        assert code == 2
        assert f"pooled draw 49 has log_posterior {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("family, column, value", [
        ("gaussian", "mu", "nan"), ("gaussian", "sigma", "inf"), ("gaussian", "phi_sq", "nan"),
        ("exponential", "lam", "nan"),
    ])
    def test_non_finite_global_column_named(self, tmp_path, capsys, family, column, value):
        # these ended in json's "Out of range float values are not JSON compliant"
        broken = _broken_copy(tmp_path, _fit_one_chain(tmp_path, family), column, value)
        code = main(["summarize", "--data", str(broken), "--family", family,
                     "--burnin", "50", "--out", str(tmp_path / "s")])
        assert code == 2
        assert f"column {column!r}: pooled draw 49 is {value}" in capsys.readouterr().err


class TestOracleCheck:
    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_too_few_draws_refused(self, tmp_path, capsys, n_mc):
        # the standard error needs two draws: these printed and wrote NaN
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--n-mc", str(n_mc), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"n_mc >= 2 draws, got {n_mc}" in captured.err
        assert "NaN" not in captured.out
        assert not out.exists()

    def test_default_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code = main(["oracle-check", "--n-mc", "100000", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["all_pass"]
        assert set(payload["checks"]) == {
            "gaussian_pair_agreement",
            "rate_marginal_identity",
            "single_observation_divergence",
        }


def _refuse_constant(token):
    raise ValueError(f"not strict JSON: {token}")


_NUMBERS = st.one_of(st.integers(0, 6).map(str), st.floats(0.01, 20.0).map(repr),
                     st.floats(-20.0, 20.0).map(repr))
_ODD_VALUES = st.sampled_from(["nan", "inf", "-1", "1e300", "1e-300", "x", "", "2.5"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(family=st.sampled_from(FAMILIES), k=st.integers(2, 3),
       values=st.lists(_NUMBERS, max_size=8), odd=st.lists(_ODD_VALUES, max_size=1),
       iters=st.integers(1, 30), kept=st.integers(-1, 29), chains=st.integers(1, 2),
       seed=st.integers(0, 3), proposal=st.sampled_from([None, None, None, 1, 2]))
def test_fit_then_summarize_exit_0_or_2(family, k, values, odd, iters, kept, chains, seed,
                                        proposal):
    # every small data file and run either fits, leaving strict JSON, or is
    # refused with exit 2, leaving nothing it made; and so does its summarize
    with tempfile.TemporaryDirectory() as tmp:
        data, out, summ = Path(tmp, "data.csv"), Path(tmp, "run"), Path(tmp, "summ")
        data.write_text("value\n" + "".join(f"{v}\n" for v in values + odd))
        flags = [] if proposal is None else ["--proposal", str(proposal)]
        code = main(["fit", "--family", family, "--k", str(k), "--iters", str(iters),
                     "--burnin", str(max(iters - kept, 0)), "--chains", str(chains),
                     "--seed", str(seed), "--data", str(data), "--out", str(out), *flags])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
            return
        for name in ("manifest.json", "summary.json"):
            json.loads((out / name).read_text(), parse_constant=_refuse_constant)
        code = main(["summarize", "--manifest", str(out / "manifest.json"), "--data",
                     *sorted(map(str, out.glob("chain_*.csv"))), "--out", str(summ)])
        assert code in (0, 2)
        if code == 2:
            assert not summ.exists()
        else:
            json.loads((summ / "summary.json").read_text(), parse_constant=_refuse_constant)


@pytest.mark.parametrize("command", ["simulate", "fit", "summarize"])
def test_unusable_paths_refused(tmp_path, capsys, command):
    # a directory where a file is read, or a file where a directory is made,
    # ended in an OSError traceback
    data, existing = tmp_path / "data.csv", tmp_path / "existing"
    data.write_text("value\n1.0\n2.5\n4.0\n")
    existing.write_text("")
    argv, named = {
        "simulate": (["--config", str(tmp_path), "--n", "5", "--out", str(tmp_path / "x.csv")],
                     tmp_path),
        "fit": (["--family", "gaussian", "--k", "2", "--iters", "100", "--burnin", "10",
                 "--data", str(data), "--out", str(existing)], existing),
        "summarize": (["--data", str(tmp_path), "--family", "gaussian",
                       "--out", str(tmp_path / "s")], tmp_path),
    }[command]
    assert main([command, *argv]) == 2
    assert f"{named}'" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize", "scipy.special"])
def test_cli_import_leaves_slow_scipy_modules_unloaded(module):
    # scipy.stats costs about 0.6 s and 25 MB at every CLI start, scipy.optimize
    # and scipy.special together about 0.45 s
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", f"import mixanchor.cli, sys; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_gaussian_and_exponential_fits_and_summarize_load_no_scipy(tmp_path):
    # relabelling runs its own assignment solver and the proposal and prior
    # densities use math.lgamma, so these commands never import scipy; nor
    # numpy.ma, which np.unique loads (about 25 ms)
    gauss, expo = tmp_path / "g.csv", tmp_path / "e.csv"
    gauss.write_text("value\n" + "".join(f"{v}\n" for v in (-4.1, -3.2, 0.3, 1.1, 9.8, 10.4)))
    expo.write_text("value\n" + "".join(f"{v}\n" for v in (0.2, 0.9, 1.3, 4.0, 6.5, 7.1)))
    common = ["--iters", "120", "--burnin", "20", "--chains", "2", "--seed", "3"]
    g, e = str(tmp_path / "g"), str(tmp_path / "e")
    runs = [
        ["fit", "--family", "gaussian", "--k", "3", "--data", str(gauss), "--out", g, *common],
        ["fit", "--family", "exponential", "--k", "2", "--data", str(expo), "--out", e, *common],
        ["summarize", "--data", f"{g}/chain_0.csv", f"{g}/chain_1.csv",
         "--manifest", f"{g}/manifest.json", "--out", str(tmp_path / "s")],
    ]
    script = (
        "import json, sys\nfrom mixanchor.cli import main\n"
        f"codes = [main(argv) for argv in json.loads({json.dumps(runs)!r})]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "      'numpy.ma' in sys.modules)"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0] [] False"


def test_cli_import_and_one_chain_fit_load_no_process_pool(tmp_path):
    # the pool's modules cost about 30 ms of import, paid only by fits that use it
    data = tmp_path / "data.csv"
    data.write_text("value\n" + "".join(f"{v}\n" for v in (-4.1, -3.2, 0.3, 1.1, 9.8, 10.4)))
    argv = ["fit", "--family", "gaussian", "--k", "2", "--data", str(data), "--iters", "100",
            "--burnin", "10", "--chains", "1", "--out", str(tmp_path / "r")]
    script = (
        "import sys\nfrom mixanchor.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"


def test_interrupt_ends_a_pooled_fit_and_its_workers_at_once(tmp_path):
    # an interrupted worker used to take the next queued chain and run it to the end
    # (a minute or more per chain here) before the command could exit
    data = tmp_path / "data.csv"
    write_table(data, [("value", np.random.default_rng(1).normal([-8.0, -0.5], 1.0, (25, 2))
                                  .ravel())])
    out = tmp_path / "r"
    src = Path(__file__).resolve().parents[1] / "src"
    fit = subprocess.Popen(
        [sys.executable, "-m", "mixanchor.cli", "fit", "--family", "gaussian", "--k", "2",
         "--data", str(data), "--iters", "200000", "--burnin", "10", "--chains", "8",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not out.exists() and fit.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(1.0)  # the chains are running
        start = time.monotonic()
        os.killpg(fit.pid, signal.SIGINT)  # as a terminal's Ctrl-C does
        fit.wait(timeout=60.0)
        assert time.monotonic() - start < 5.0
        assert fit.returncode != 0
        assert not out.exists()
        # nothing is left in the command's process group
        with pytest.raises(ProcessLookupError):
            os.killpg(fit.pid, 0)
    finally:
        if fit.poll() is None:
            os.killpg(fit.pid, signal.SIGKILL)
            fit.wait()
