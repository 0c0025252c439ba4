"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Desk-scale posterior checks reuse the session fixtures from
``conftest.py`` (their wall-clock time is recorded at creation, so the
runtime bounds refer to the actual sampling work).
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _criterion_reporting(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield

from mixanchor import (
    GlobalMoments,
    StandardParams,
    angular_from_standard,
    build_basis,
    mixture_moments,
    standard_from_angular,
)
from mixanchor.cli import main as cli_main
from mixanchor.likelihood import Dataset
from mixanchor.oracles import (
    gaussian_pair_closed,
    gaussian_pair_quad,
    marginal_one_obs_mc,
    n1_divergence_probe,
)
from mixanchor.postprocess import (
    detect_switching,
    find_map,
    kmeans_summary,
    pool_draws,
    relabel_map,
)
from mixanchor.priors import (
    PriorSpec,
    mixture_normal_quantiles,
    sample_prior,
    standard_arrays_from_draws,
)
from mixanchor.sampler import RunConfig, gelman_rubin, mwg_gaussian, mwg_poisson

from conftest import TWO_COMP_TRUTH, THREE_COMP_TRUTH


def _report(number: int, checks: list, extra: str = ""):
    ok = all(flag for flag, _ in checks)
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(msg for flag, msg in checks if not flag) or extra
    line = f"[ACCEPTANCE] criterion {number}: {status} {detail}".rstrip()
    # step around pytest's capture so the line always reaches the terminal
    suspend = (
        _CAPTURE_MANAGER.global_and_fixture_disabled()
        if _CAPTURE_MANAGER is not None
        else contextlib.nullcontext()
    )
    with suspend:
        print(line, flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_transform_round_trips():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checks = []
    worst_round, worst_constraint = 0.0, 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        while True:
            p = rng.dirichlet(np.ones(k))
            if p.min() >= 1e-3:
                break
        params = StandardParams(
            "gaussian", p, rng.normal(0, 4, k), np.exp(rng.normal(0, 0.5, k))
        )
        g, weights, coords = angular_from_standard(params)
        back = standard_from_angular(g, weights, coords)
        worst_round = max(
            worst_round,
            float(np.max(np.abs(back.locs - params.locs))),
            float(np.max(np.abs(back.scales - params.scales))),
        )
        alpha = (params.locs - g.mu) / g.sigma
        tau = params.scales / g.sigma
        gamma = np.sqrt(p) * alpha
        eta = np.sqrt(p) * tau
        worst_constraint = max(
            worst_constraint,
            abs(float(p @ alpha)),
            abs(float(p @ (tau**2 + alpha**2)) - 1.0),
            abs(float(np.sqrt(p) @ gamma)),
            abs(float(np.sum(gamma**2) + np.sum(eta**2)) - 1.0),
        )
    elapsed = time.perf_counter() - start
    checks.append((worst_round < 1e-10, f"round-trip error {worst_round:.2e}"))
    checks.append((worst_constraint < 1e-12, f"constraint error {worst_constraint:.2e}"))
    checks.append((elapsed < 5.0, f"runtime {elapsed:.1f}s"))
    _report(1, checks, f"worst round-trip {worst_round:.1e}, {elapsed:.1f}s")


def test_criterion_2_basis_orthonormality():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        while True:
            p = rng.dirichlet(np.ones(k))
            if p.min() >= 1e-6:
                break
        basis = build_basis(p).vectors
        gram = basis @ basis.T
        worst = max(
            worst,
            float(np.max(np.abs(gram - np.eye(k - 1)))),
            float(np.max(np.abs(basis @ np.sqrt(p)))),
        )
    _report(2, [(worst < 1e-12, f"orthogonality error {worst:.2e}")],
            f"worst {worst:.1e}")


def test_criterion_3_pair_oracle_agreement():
    rng = np.random.default_rng(33)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        ti, tj = rng.uniform(0.1, 2.0, 2)
        ai, aj = rng.uniform(-3.0, 3.0, 2)
        dx = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        x1 = rng.uniform(-5.0, 5.0)
        pi_, pj_ = rng.dirichlet([1.0, 1.0])
        closed = gaussian_pair_closed(pi_, pj_, ai, aj, ti, tj, x1, x1 - dx)
        quad = gaussian_pair_quad(pi_, pj_, ai, aj, ti, tj, x1, x1 - dx)
        worst = max(worst, abs(quad.value - closed) / closed)
    elapsed = time.perf_counter() - start
    checks = [
        (worst < 1e-5, f"relative error {worst:.2e}"),
        (elapsed < 30.0, f"runtime {elapsed:.1f}s"),
    ]
    _report(3, checks, f"worst rel {worst:.1e}, {elapsed:.1f}s")


def test_criterion_4_rate_marginal_identity():
    start = time.perf_counter()
    checks = []
    for family, points in (("poisson", (1.0, 3.0, 7.0)), ("exponential", (0.5, 2.0))):
        for x1 in points:
            for k in (2, 5):
                est = marginal_one_obs_mc(family, k, x1, n_mc=10**6, seed=5)
                # the 1e-12 floor guards the zero-variance degeneracy; the
                # genuine Monte Carlo spread dominates it by nine decades
                ok = abs(est.estimate - 1.0 / x1) < 3.0 * est.std_error + 1e-12
                checks.append(
                    (ok, f"{family} k={k} x1={x1}: {est.estimate:.6f} vs {1 / x1:.6f}")
                )
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 60.0, f"runtime {elapsed:.1f}s"))
    _report(4, checks, f"{len(checks) - 1} cases, {elapsed:.1f}s")


def test_criterion_5_two_component_reproduction(example1_k2_run):
    chains = example1_k2_run.chains
    checks = []
    mu = np.concatenate([c.post_burn("mu") for c in chains])
    sigma_sq = np.concatenate([c.post_burn("sigma") for c in chains]) ** 2
    phi_sq = np.concatenate([c.post_burn("phi_sq") for c in chains])
    for name, series, truth in (
        ("mu", mu, TWO_COMP_TRUTH["mean"]),
        ("sigma^2", sigma_sq, TWO_COMP_TRUTH["var"]),
        ("phi_sq", phi_sq, TWO_COMP_TRUTH["phi_sq"]),
    ):
        lo, hi = np.percentile(series, [5.0, 95.0])
        checks.append((lo <= truth <= hi, f"{name} interval ({lo:.3f},{hi:.3f}) misses {truth:.3f}"))
    # scale coordinates compared without component order
    xi = np.concatenate([c.post_burn("xi1") for c in chains])
    r = np.sqrt(1.0 - phi_sq)
    eta = np.sort(np.stack([r * np.cos(xi), r * np.sin(xi)], axis=1), axis=1)
    truth_eta = np.sort(TWO_COMP_TRUTH["eta"])
    for j, name in enumerate(("eta_min", "eta_max")):
        lo, hi = np.percentile(eta[:, j], [5.0, 95.0])
        checks.append(
            (lo <= truth_eta[j] <= hi, f"{name} interval ({lo:.3f},{hi:.3f}) misses {truth_eta[j]:.3f}")
        )
    for param in ("mu", "sigma"):
        psrf = gelman_rubin(chains, param)
        checks.append((psrf < 1.15, f"PSRF({param}) = {psrf:.3f}"))
    for rates in example1_k2_run.acceptance_rates():
        for block, rate in rates.items():
            checks.append(
                (0.15 <= rate <= 0.6, f"acceptance {block} = {rate:.3f} outside [0.15, 0.6]")
            )
    checks.append((example1_k2_run.elapsed < 120.0, f"runtime {example1_k2_run.elapsed:.0f}s"))
    _report(5, checks, f"4 chains x 2e4, {example1_k2_run.elapsed:.0f}s")


def test_criterion_6_three_component_relabelling(example3_run):
    chain = example3_run.chains[0]
    draws = pool_draws([chain])
    map_params, _ = find_map(draws)
    relabelled, trace = relabel_map(draws, map_params)
    report = detect_switching(trace)

    med_locs = np.median(relabelled.locs, axis=0)
    med_weights = np.median(relabelled.weights, axis=0)
    order = np.argsort(med_locs)
    truth_order = np.argsort(THREE_COMP_TRUTH["locs"])
    truth_locs = THREE_COMP_TRUTH["locs"][truth_order]
    truth_weights = THREE_COMP_TRUTH["weights"][truth_order]

    checks = []
    loc_err = np.abs(med_locs[order] - truth_locs)
    weight_err = np.abs(med_weights[order] - truth_weights)
    checks.append((np.all(loc_err < 0.75), f"loc medians off by {loc_err.round(3)}"))
    checks.append((np.all(weight_err < 0.1), f"weight medians off by {weight_err.round(3)}"))

    km = kmeans_summary(draws, seed=1)
    km_locs = km["medians"][:, 0]
    agreement = np.abs(np.sort(km_locs) - np.sort(med_locs))
    checks.append((np.all(agreement < 0.1), f"kmeans vs MAP medians differ by {agreement.round(3)}"))
    checks.append(
        (report.distinct_permutations >= 2, f"only {report.distinct_permutations} permutation(s)")
    )
    checks.append((example3_run.elapsed < 300.0, f"runtime {example3_run.elapsed:.0f}s"))
    _report(
        6,
        checks,
        f"1e5 iterations, {report.distinct_permutations} permutations, "
        f"{example3_run.elapsed:.0f}s",
    )


def test_criterion_7_poisson_reproduction(model1_poisson_run):
    chain = model1_poisson_run.chains[0]
    draws = pool_draws([chain])
    checks = []
    lam_mean = float(draws.extras["lam"].mean())
    checks.append((abs(lam_mean - 2.6) < 0.05, f"lam mean {lam_mean:.4f}"))

    map_params, _ = find_map(draws)
    relabelled, _ = relabel_map(draws, map_params)
    med_rates = np.median(relabelled.locs, axis=0)
    med_weights = np.median(relabelled.weights, axis=0)
    order = np.argsort(med_rates)
    rate_err = np.abs(med_rates[order] - np.array([1.0, 5.0]))
    weight_err = np.abs(med_weights[order] - np.array([0.6, 0.4]))
    checks.append((np.all(rate_err < 0.3), f"rate medians off by {rate_err.round(3)}"))
    checks.append((np.all(weight_err < 0.05), f"weight medians off by {weight_err.round(3)}"))
    checks.append((model1_poisson_run.elapsed < 180.0, f"runtime {model1_poisson_run.elapsed:.0f}s"))
    _report(7, checks, f"n=1e4, 5e4 iterations, {model1_poisson_run.elapsed:.0f}s")


def test_criterion_8_prior_study():
    checks = []
    iqr = {}
    for k in (3, 20):
        for kind in ("single_uniform", "double_uniform"):
            spec = PriorSpec(kind=kind)
            draws = sample_prior(spec, k, "gaussian", 20000, seed=80)
            locs, scales = standard_arrays_from_draws(draws)
            w = draws.weights
            means = np.sum(w * locs, axis=1)
            variances = np.sum(w * (scales**2 + locs**2), axis=1) - means**2
            worst = max(float(np.abs(means).max()), float(np.abs(variances - 1.0).max()))
            checks.append((worst < 1e-10, f"k={k} {kind}: moment error {worst:.2e}"))
            if k == 20:
                table = mixture_normal_quantiles(w, locs, scales, [0.99])
                iqr[kind] = float(
                    np.percentile(table[:, 0], 75) - np.percentile(table[:, 0], 25)
                )
    checks.append(
        (
            iqr["double_uniform"] > iqr["single_uniform"],
            f"IQR double {iqr['double_uniform']:.3f} <= single {iqr['single_uniform']:.3f}",
        )
    )
    _report(
        8,
        checks,
        f"0.99-quantile IQR: double {iqr['double_uniform']:.3f} > "
        f"single {iqr['single_uniform']:.3f}",
    )


def test_criterion_9_guard_rails(tmp_path):
    checks = []
    try:
        mwg_gaussian(Dataset([1.0]), 2, PriorSpec(), RunConfig(iterations=10, burn_in=0))
        checks.append((False, "single-observation gaussian fit was not refused"))
    except ValueError:
        checks.append((True, ""))
    try:
        mwg_poisson(Dataset([0.0, 0.0]), 2, PriorSpec(), RunConfig(iterations=10, burn_in=0))
        checks.append((False, "all-zero poisson fit was not refused"))
    except ValueError:
        checks.append((True, ""))

    one = tmp_path / "one.csv"
    one.write_text("value\n3.0\n")
    code = cli_main(["fit", "--family", "gaussian", "--k", "2", "--iters", "100",
                     "--burnin", "10", "--data", str(one), "--out", str(tmp_path / "r")])
    checks.append((code == 2, f"cli exit code {code} for n=1 gaussian"))

    exact = all(
        n1_divergence_probe(L * L) / n1_divergence_probe(L) == 2.0
        for L in (2.0, 10.0, 1e6)
    )
    checks.append((exact, "divergence probe is not exactly 2 log L"))
    checks.append((n1_divergence_probe(math.e) == pytest.approx(2.0, abs=1e-15), ""))
    _report(9, checks, "refusals + exact 2 log L growth")


def test_criterion_10_fit_determinism(tmp_path):
    config = {
        "family": "gaussian",
        "k": 2,
        "model": {
            "family": "gaussian",
            "weights": [0.65, 0.35],
            "locs": [-8.0, -0.5],
            "scales": [2.0, 1.0],
        },
        "run": {"iterations": 800, "burn_in": 100, "n_chains": 2, "seed": 77},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    data = tmp_path / "data.csv"
    assert cli_main(["simulate", "--config", str(cfg), "--n", "40", "--seed", "6",
                     "--out", str(data)]) == 0
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["fit", "--config", str(cfg), "--data", str(data),
                         "--out", str(out)]) == 0
        blobs.append(tuple((out / f"chain_{i}.csv").read_bytes() for i in range(2)))
    identical = blobs[0] == blobs[1]
    _report(10, [(identical, "repeated fits differ")], "byte-identical chain CSVs")
