"""End-to-end acceptance checks.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to
see them on success).  The heavier Monte-Carlo runs are shared through
session fixtures so the whole module stays within its runtime budgets.
"""

import json
import math
import time

import numpy as np
import pytest

from covsel.cli import _write_summary, main, read_estimate_csv, read_results_csv, read_risk_table, write_results_csv
from covsel.cv_engine import VFold, select
from covsel.estimators import (
    EstimatorSpec,
    _adaptive_lasso,
    _band,
    _band_distance,
    _hard,
    _identity_target,
    _inverse_power,
    _scad,
    _shrinkage_components,
    apply,
    build_library,
    library_preset,
)
from covsel.loss_risk import true_risk_difference
from covsel.matrix_core import sample_covariance
from covsel.simulation import (
    CV_ORACLE_SUBJECT,
    SELECTED_SUBJECT,
    CovModelSpec,
    ExperimentConfig,
    build_model_covariance,
    run_benchmark,
    run_experiment,
    sample_gaussian,
    summarize_ratios,
)


def _check(name, condition, detail):
    print(f"[{'PASS' if condition else 'FAIL'}] {name}: {detail}")
    assert condition, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk_experiment():
    config = ExperimentConfig(
        models=(2,),
        sample_sizes=(50, 200),
        ratios=(1.0,),
        replications=50,
        folds=5,
        metrics=("cv_ratio",),
        seed=20260811,
    )
    start = time.monotonic()
    result = run_experiment(config)
    return config, result, time.monotonic() - start


def test_criterion_1_selector_equivalence():
    library = build_library(
        {
            "sample_covariance": {},
            "hard_threshold": {"threshold": [0.1, 0.3]},
            "scad_threshold": {"threshold": [0.2]},
            "adaptive_lasso": {"threshold": [0.2], "exponent": [0.3]},
            "banding": {"bands": [1, 3]},
            "tapering": {"bands": [2, 6]},
            "linear_shrinkage": {},
            "dense_linear_shrinkage": {},
            "poet": {"factors": [2], "threshold": [0.1]},
        }
    )
    assert len(library) >= 10
    assert len({spec.family for spec in library}) >= 4

    rng = np.random.default_rng(7)
    start = time.monotonic()
    agreements = 0
    for trial in range(100):
        n = int(rng.integers(20, 61))
        dim = int(rng.integers(5, 41))
        scale = np.diag(rng.uniform(0.5, 2.0, size=dim))
        data = rng.normal(size=(n, dim)) @ scale
        scheme = VFold(5, seed=trial)
        by_obs = select(library, data, scheme, scaling="one", risk="observation")
        by_mat = select(library, data, scheme, scaling="one", risk="matrix")
        if by_obs.selected_id == by_mat.selected_id and by_obs.tie_ids == by_mat.tie_ids:
            agreements += 1
    elapsed = time.monotonic() - start
    _check(
        "criterion 1 (observation vs matrix risk selection)",
        agreements == 100 and elapsed < 60.0,
        f"{agreements}/100 agreements incl. tie sets in {elapsed:.1f}s",
    )


@pytest.mark.parametrize("scaling", ["one", "inv_J", "inv_J2", "weighted"])
def test_criterion_1_on_every_model(scaling):
    library = library_preset("default")
    disagreements = []
    for model in range(1, 9):
        for dim in (20, 80):
            psi0 = build_model_covariance(CovModelSpec(model, dim, seed=model))
            data = sample_gaussian(psi0, 40, seed=model * dim)
            scheme = VFold(5, seed=model)
            by_obs, by_mat = (select(library, data, scheme, scaling=scaling, risk=risk)
                              for risk in ("observation", "matrix"))
            if (by_obs.selected_id, by_obs.tie_ids) != (by_mat.selected_id, by_mat.tie_ids):
                disagreements.append((model, dim, by_obs.tie_ids, by_mat.tie_ids))
    _check(
        f"criterion 1 on models 1-8 ({scaling})",
        not disagreements,
        f"{16 - len(disagreements)}/16 (model, J) cells agree on the winner and tie set; differ: {disagreements}",
    )


def test_criterion_2_analytic_risk_difference_identity():
    pairs = []
    psi_ar = build_model_covariance(CovModelSpec(2, 4))
    pairs.append((_hard(psi_ar, np.abs(psi_ar), 0.4), psi_ar))
    psi_ma = build_model_covariance(CovModelSpec(4, 4))
    bump = np.full((4, 4), 0.15)
    pairs.append((psi_ma + 0.5 * (bump + bump.T), psi_ma))
    psi_dense = build_model_covariance(CovModelSpec(1, 4))
    pairs.append((np.eye(4), psi_dense))
    psi_factor = build_model_covariance(CovModelSpec(8, 4, seed=3))
    pairs.append((np.diag(np.diag(psi_factor)), psi_factor))
    psi_rand = build_model_covariance(CovModelSpec(5, 4, seed=7))
    pairs.append((0.8 * psi_rand + 0.2 * np.eye(4), psi_rand))

    start = time.monotonic()
    draws = 200_000
    within_3se = 0
    within_4se = 0
    reports = []
    for index, (psi_hat, psi0) in enumerate(pairs):
        data = sample_gaussian(psi0, draws, seed=1000 + index)
        outer = np.einsum("ij,il->ijl", data, data)
        per_draw = ((outer - psi_hat) ** 2).sum(axis=(1, 2)) - ((outer - psi0) ** 2).sum(axis=(1, 2))
        mean = float(np.mean(per_draw))
        se = float(np.std(per_draw, ddof=1)) / math.sqrt(draws)
        z = abs(mean - true_risk_difference(psi_hat, psi0)) / se
        reports.append(f"{z:.2f}")
        within_3se += z < 3.0
        within_4se += z < 4.0
    elapsed = time.monotonic() - start
    _check(
        "criterion 2 (Monte-Carlo vs analytic risk difference)",
        within_3se >= 4 and within_4se == 5 and elapsed < 60.0,
        f"z-scores {reports}; {within_3se}/5 within 3 SE, {within_4se}/5 within 4 SE "
        f"over {draws} draws in {elapsed:.1f}s",
    )


def test_criterion_3_selected_vs_oracle_ratio(desk_experiment):
    _, result, elapsed = desk_experiment
    summary = summarize_ratios(result.rows, metrics=("cv_ratio",))
    ratios = {(cell["n"], cell["J"]): cell["cv_ratio_of_means"] for cell in summary["cells"]}
    ok = ratios[(50, 50)] <= 1.25 and ratios[(200, 200)] <= 1.05 and elapsed < 900.0
    _check(
        "criterion 3 (risk-difference ratio of means)",
        ok,
        f"n=J=50: {ratios[(50, 50)]:.4f} (<= 1.25), n=J=200: {ratios[(200, 200)]:.4f} "
        f"(<= 1.05), runtime {elapsed:.0f}s",
    )


def _dominance_ratios(rows) -> list[float]:
    """Per replication, the ratio of the selection's cv risk difference to the oracle's."""
    picked = {}
    oracle = {}
    for row in rows:
        if row.metric != "cv_risk_diff":
            continue
        key = (row.model, row.n, row.ratio, row.replication)
        if row.subject == SELECTED_SUBJECT:
            picked[key] = row.value
        elif row.subject == CV_ORACLE_SUBJECT:
            oracle[key] = row.value
    assert picked and set(picked) == set(oracle)
    return [picked[k] / oracle[k] for k in picked]


def _bound_sides(config, result, out_dir) -> dict:
    """Per ``(model, n, J)`` cell, the finite-sample ``bound`` of the ``summary.json`` that ``simulate`` writes."""
    _write_summary(out_dir, config, result)
    summary = json.loads((out_dir / "summary.json").read_text())
    return {(cell["model"], cell["n"], cell["J"]): cell["bound"] for cell in summary["cells"]}


def _bound_holds(sides: dict) -> bool:
    """``mean_selected <= rhs`` in every cell; a NaN on either side fails."""
    return all(bound["mean_selected"] <= bound["rhs"] for bound in sides.values())


def test_criterion_4_per_replication_dominance(desk_experiment):
    _, result, _ = desk_experiment
    ratios = _dominance_ratios(result.rows)
    _check(
        "criterion 4 (per-replication oracle dominance)",
        all(ratio >= 1.0 - 1e-12 for ratio in ratios),
        f"minimum per-replication ratio {min(ratios):.15f} over {len(ratios)} replications",
    )


def test_criterion_5_benchmark_no_worse_than_best_family():
    config = ExperimentConfig(
        models=(3,),
        sample_sizes=(200,),
        ratios=(1.0,),
        replications=20,
        folds=5,
        metrics=("frobenius",),
        seed=20260811,
    )
    start = time.monotonic()
    result = run_benchmark(config)
    elapsed = time.monotonic() - start
    means = {e["procedure"]: e["mean"] for e in result.table if e["metric"] == "frobenius"}
    best_single = min(value for name, value in means.items() if name != SELECTED_SUBJECT)
    ratio = means[SELECTED_SUBJECT] / best_single
    _check(
        "criterion 5 (selector vs best tuned family, mean Frobenius error)",
        ratio <= 1.10 and elapsed < 600.0,
        f"selector {means[SELECTED_SUBJECT]:.4f} vs best family {best_single:.4f} "
        f"(ratio {ratio:.4f} <= 1.10), runtime {elapsed:.0f}s",
    )


def test_criterion_6_finite_sample_bound(desk_experiment, tmp_path):
    config, result, _ = desk_experiment
    sides = _bound_sides(config, result, tmp_path)
    _check(
        "criterion 6 (finite-sample bound sanity)",
        _bound_holds(sides),
        "; ".join(f"n={n}: slack {bound['slack']:.3e}" for (_, n, _), bound in sorted(sides.items())),
    )


@pytest.mark.parametrize("scaling", ["one", "inv_J", "inv_J2"])
def test_criteria_4_and_6_on_every_model(scaling, tmp_path):
    config = ExperimentConfig(
        models=tuple(range(1, 9)),
        sample_sizes=(50,),
        ratios=(0.5, 2.0),
        replications=5,
        metrics=("cv_ratio",),
        scaling=scaling,
        seed=20260811,
    )
    result = run_experiment(config)
    assert result.skipped == [] and len(result.cells) == 16
    ratios = _dominance_ratios(result.rows)
    _check(
        f"criterion 4 on models 1-8 ({scaling})",
        all(ratio >= 1.0 - 1e-12 for ratio in ratios),
        f"minimum per-replication ratio {min(ratios):.15f} over {len(ratios)} replications",
    )
    sides = _bound_sides(config, result, tmp_path)
    _check(
        f"criterion 6 on models 1-8 ({scaling})",
        len(sides) == 16 and _bound_holds(sides),
        "; ".join(
            f"model {model} J={dim}: slack {bound['slack']:.3e}" for (model, _, dim), bound in sorted(sides.items())
        ),
    )


def test_criterion_7_estimator_identities():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(40, 8))
    cov = sample_covariance(data)
    dim = cov.shape[0]
    failures = []

    parts = _shrinkage_components(data, cov, _identity_target(cov))
    if abs(parts.dispersion_sq + parts.signal_sq - parts.target_distance_sq) > 1e-12 * parts.target_distance_sq:
        failures.append("shrinkage component sum")
    weights = parts.intensity + parts.signal_sq / parts.target_distance_sq
    if abs(weights - 1.0) > 1e-12:
        failures.append("shrinkage weights")

    distance = _band_distance(dim)
    if not np.array_equal(_band(cov, distance, 0), np.diag(np.diag(cov))):
        failures.append("banding b=0")
    if not np.array_equal(_band(cov, distance, dim - 1), cov):
        failures.append("banding b=J-1")
    if not np.array_equal(apply(EstimatorSpec("tapering", {"bands": 2}), data), _band(cov, distance, 1)):
        failures.append("taper(2) == band(1)")

    poet_full = apply(EstimatorSpec("poet", {"factors": dim, "threshold": 0.2}), data)
    if np.linalg.norm(poet_full - cov) > 1e-8 * np.linalg.norm(cov):
        failures.append("poet L=J")

    soft = np.sign(cov) * np.maximum(np.abs(cov) - 0.25, 0.0)
    magnitude = np.abs(cov)
    if not np.array_equal(_adaptive_lasso(magnitude, np.sign(cov), _inverse_power(magnitude, 0.0), 0.25, 0.0), soft):
        failures.append("adaptive lasso exponent 0")

    big = np.array([[5.0, -4.0], [-4.0, 5.0]])
    if not np.array_equal(_scad(big, np.abs(big), np.sign(big), 0.5, 3.7), big):
        failures.append("scad identity region")

    if not np.all(np.abs(_hard(cov, magnitude, 0.1)) <= magnitude):
        failures.append("hard threshold dominance")

    _check(
        "criterion 7 (estimator unit identities)",
        not failures,
        "all identities hold" if not failures else f"failed: {failures}",
    )


def test_criterion_8_determinism_and_io(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--profile", "smoke", "--seed", "31", "--out", str(out)]) == 0
    identical = (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    rows = read_results_csv(out_a / "results.csv")
    rewritten = tmp_path / "rewritten.csv"
    write_results_csv(rewritten, rows)
    roundtrip = (
        rewritten.read_bytes() == (out_a / "results.csv").read_bytes()
        and read_results_csv(rewritten) == rows
    )

    data_path = tmp_path / "toy.csv"
    rng = np.random.default_rng(0)
    data = rng.normal(size=(20, 3))
    data_path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n", encoding="utf-8"
    )
    sel_out = tmp_path / "sel"
    assert main(["select", "--input", str(data_path), "--out", str(sel_out), "--seed", "2"]) == 0
    estimate, _, selected_id = read_estimate_csv(sel_out / "estimate.csv")
    table = read_risk_table(sel_out / "risk_table.csv")
    report = json.loads((sel_out / "selection_report.json").read_text())
    select_io = (
        selected_id == report["selected_id"]
        and table[0]["selected"] is True
        and estimate.shape == (3, 3)
    )

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
    code_ragged = main(["select", "--input", str(ragged)])
    bad_grid = tmp_path / "bad.ini"
    bad_grid.write_text("[experiment]\nmodels = 12\n", encoding="utf-8")
    code_grid = main(["simulate", "--config", str(bad_grid), "--out", str(tmp_path / "x")])
    bad_candidates = tmp_path / "fail.ini"
    bad_candidates.write_text("[candidate.poet]\nfactors = 50\nthreshold = 0.1\n", encoding="utf-8")
    code_failed = main(["select", "--input", str(data_path), "--config", str(bad_candidates)])
    capsys.readouterr()  # swallow the JSON error records emitted above
    exit_codes = (code_ragged == 2, code_grid == 2, code_failed == 3)

    _check(
        "criterion 8 (determinism, round-trips, exit codes)",
        identical and roundtrip and select_io and all(exit_codes),
        f"byte-identical rerun {identical}, round-trips {roundtrip and select_io}, "
        f"exit codes (2, 2, 3) observed ({code_ragged}, {code_grid}, {code_failed})",
    )
