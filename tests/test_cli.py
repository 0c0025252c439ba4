"""End-to-end command-line tests: files, schemas, exit codes, determinism."""

import csv
import json
import math

import numpy as np
import pytest

from mixanchor.chainio import chain_from_csv, chain_to_csv
from mixanchor.cli import main


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

    def test_manifest_is_strict_json_when_adapting_throughout(self, gaussian_config, tmp_path):
        # adapting to the end leaves no post-horizon window to measure
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gaussian_config), "--n", "30",
              "--seed", "4", "--out", str(data)])
        config = tmp_path / "throughout.json"
        config.write_text(json.dumps({
            "family": "gaussian", "k": 2,
            "run": {"iterations": 200, "burn_in": 50, "adapt_throughout": True},
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


class TestPriorSampleAndSummarize:
    def test_prior_sample_row_count(self, tmp_path):
        out = tmp_path / "prior.csv"
        assert main(["prior-sample", "--family", "gaussian", "--k", "3",
                     "--n", "20000", "--seed", "1", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 20001
        assert rows[0] == ["p1", "p2", "p3", "phi_sq", "phi_sign", "varpi1", "xi1", "xi2"]

    def test_quantile_table_written(self, tmp_path):
        out = tmp_path / "prior.csv"
        assert main(["prior-sample", "--family", "gaussian", "--k", "2", "--n", "50",
                     "--seed", "1", "--out", str(out), "--quantiles", "0.5,0.99"]) == 0
        qrows = read_rows(tmp_path / "prior_quantiles.csv")
        assert qrows[0] == ["q0.5", "q0.99"]
        assert len(qrows) == 51

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
