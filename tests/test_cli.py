"""End-to-end command-line tests: files, schemas, exit codes, determinism."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mixanchor.chainio import chain_from_csv, chain_to_csv
from mixanchor.cli import main
from mixanchor.likelihood import Dataset
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

    def test_all_zero_poisson_refused(self, tmp_path, capsys):
        data = tmp_path / "zeros.csv"
        data.write_text("value\n0\n0\n0\n")
        code = main(["fit", "--family", "poisson", "--k", "2", "--iters", "100",
                     "--burnin", "10", "--data", str(data), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "strictly positive" in capsys.readouterr().err

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


class TestOracleCheck:
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


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_cli_import_leaves_slow_scipy_modules_unloaded(module):
    # scipy.stats costs about 0.6 s and 25 MB at every CLI start, scipy.optimize about
    # 0.2 s; commands that never relabel should not pay for scipy.optimize
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", f"import mixanchor.cli, sys; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
