import logging
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

import covsel._workers as _workers
import covsel.cv_engine as cv_engine
import covsel.estimators as estimators
import covsel.matrix_core as matrix_core
import covsel.simulation as simulation
from covsel.cv_engine import MonteCarloSplit, VFold, make_splits
from covsel.errors import ConfigError, EstimationError
from covsel.estimators import CandidateLibrary, EstimatorSpec, build_library
from covsel.matrix_core import center_columns, sample_covariance
from covsel.simulation import (
    CV_ORACLE_SUBJECT,
    FULL_ORACLE_SUBJECT,
    SELECTED_SUBJECT,
    CovModelSpec,
    ExperimentConfig,
    benchmark_table,
    build_model_covariance,
    expected_row_count,
    run_benchmark,
    run_experiment,
    sample_gaussian,
    summarize_ratios,
)

from forking import assert_no_child_left, count_forks, deadline, forks_regardless, pin_workers  # noqa: F401


def tiny_library():
    return build_library(
        {"sample_covariance": {}, "banding": {"bands": [1]}, "linear_shrinkage": {}}
    )


def tiny_config(**overrides):
    settings = {
        "models": (2,),
        "sample_sizes": (30,),
        "ratios": (0.5,),
        "replications": 2,
        "folds": 5,
        "metrics": ("frobenius",),
        "seed": 123,
        "library": tiny_library(),
    }
    settings.update(overrides)
    return ExperimentConfig(**settings)


def replications(config, cell):
    """Every replication of ``cell``, as a run of ``config`` draws them."""
    models = {}
    return [simulation._replication(config, cell, rep, models) for rep in range(config.replications)]


class TestModels:
    def test_model1_dense(self):
        psi = build_model_covariance(CovModelSpec(1, 5))
        assert psi[0, 0] == 1.0 and psi[0, 3] == 0.5

    def test_model2_ar1(self):
        psi = build_model_covariance(CovModelSpec(2, 6))
        assert psi[2, 3] == pytest.approx(0.7)
        assert psi[0, 3] == pytest.approx(0.7**3)

    def test_model3_banded_where_construction_is_pd(self):
        psi = build_model_covariance(CovModelSpec(3, 3))
        assert psi[0, 1] == pytest.approx(0.7)
        assert psi[0, 2] == 0.0

    def test_model3_repaired_to_pd_in_higher_dimension(self):
        psi = build_model_covariance(CovModelSpec(3, 40))
        eigvals = np.linalg.eigvalsh(psi)
        assert eigvals.min() >= 1e-11

    def test_model4_ma2_bands(self):
        psi = build_model_covariance(CovModelSpec(4, 8))
        assert psi[0, 0] == 1.0
        assert psi[0, 1] == 0.6
        assert psi[0, 2] == 0.3
        assert psi[0, 3] == 0.0

    def test_model5_is_correlation_matrix(self):
        psi = build_model_covariance(CovModelSpec(5, 12, seed=4))
        assert np.array_equal(np.diag(psi), np.ones(12))
        assert np.array_equal(psi, psi.T)
        assert np.linalg.eigvalsh(psi).min() >= -1e-10
        again = build_model_covariance(CovModelSpec(5, 12, seed=4))
        assert np.array_equal(psi, again)
        other = build_model_covariance(CovModelSpec(5, 12, seed=5))
        assert not np.array_equal(psi, other)

    def test_model6_toeplitz_decay(self):
        psi = build_model_covariance(CovModelSpec(6, 6))
        assert psi[0, 2] == pytest.approx(0.6 * 2.0**-1.3, rel=1e-12)
        assert psi[1, 1] == 1.0

    def test_model7_alternating_signs(self):
        m6 = build_model_covariance(CovModelSpec(6, 7))
        m7 = build_model_covariance(CovModelSpec(7, 7))
        idx = np.arange(7)
        signs = (-1.0) ** np.abs(idx[:, None] - idx[None, :])
        expected = m6 * signs
        np.fill_diagonal(expected, 1.0)
        assert np.allclose(m7, expected, atol=1e-14)

    def test_model8_factor_floor(self):
        psi = build_model_covariance(CovModelSpec(8, 15, seed=9))
        assert np.linalg.eigvalsh(psi).min() >= 1.0 - 1e-8

    def test_invalid_model_number(self):
        with pytest.raises(ConfigError):
            CovModelSpec(9, 5)

    @pytest.mark.parametrize("model", range(1, 9))
    def test_every_model_is_built_bit_symmetric(self, model):
        # build_model_covariance makes no symmetrizing pass; each construction must be symmetric by itself.
        for dim in (1, 2, 3, 4, 15, 64, 333):
            for seed in (0, 7):
                psi = build_model_covariance(CovModelSpec(model, dim, seed))
                assert np.array_equal(psi.view(np.uint64), psi.T.view(np.uint64)), (dim, seed)

    @pytest.mark.parametrize("model", range(1, 9))
    def test_cholesky_precheck_repairs_as_eigh_alone(self, model, monkeypatch):
        def eigh_only(matrix):
            eigvals, eigvecs = np.linalg.eigh(matrix)
            if float(eigvals[0]) >= 1e-10:
                return matrix
            out = (eigvecs * np.maximum(eigvals, 1e-10)) @ eigvecs.T
            return 0.5 * (out + out.T)

        for dim in (3, 50, 200):
            spec = CovModelSpec(model, dim, seed=3)
            repaired = build_model_covariance(spec)
            with monkeypatch.context() as patched:
                patched.setattr(simulation, "_repair_psd", lambda matrix: matrix)
                raw = build_model_covariance(spec)
            expected = eigh_only(raw)
            assert np.array_equal(repaired.view(np.uint64), expected.view(np.uint64)), dim


class TestSampler:
    def test_deterministic(self):
        psi = build_model_covariance(CovModelSpec(2, 4))
        a = sample_gaussian(psi, 10, seed=7)
        b = sample_gaussian(psi, 10, seed=7)
        assert np.array_equal(a, b)
        c = sample_gaussian(psi, 10, seed=8)
        assert not np.array_equal(a, c)

    def test_law_of_large_numbers(self):
        draws = sample_gaussian(np.eye(2), 50_000, seed=1)
        cov = draws.T @ draws / draws.shape[0]
        assert np.max(np.abs(cov - np.eye(2))) < 0.05

    def test_column_means_near_zero(self):
        n = 2000
        psi = build_model_covariance(CovModelSpec(1, 5))
        draws = sample_gaussian(psi, n, seed=2)
        assert np.max(np.abs(draws.mean(axis=0))) < 4.0 / np.sqrt(n)

    def test_singular_covariance_sampled_exactly(self):
        psi = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        draws = sample_gaussian(psi, 100, seed=3)
        assert np.max(np.abs(draws[:, 0] - draws[:, 1])) < 1e-12

    def test_indefinite_rejected(self):
        from covsel.errors import EstimationError

        with pytest.raises(EstimationError):
            sample_gaussian(np.diag([1.0, -0.5]), 5, seed=0)


class TestConfig:
    def test_cell_dimension_rounding(self):
        config = ExperimentConfig(models=(2,), sample_sizes=(50,), ratios=(0.3,),
                                  replications=1, library=tiny_library())
        assert config.cells() == [(2, 50, 0, 0.3, 15)]

    def test_too_small_dimension_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(models=(2,), sample_sizes=(4,), ratios=(0.3,), replications=1)

    @pytest.mark.parametrize("ratio", [float("inf"), float("nan"), 1e308])
    def test_a_ratio_without_a_finite_dimension_is_rejected(self, ratio):
        with pytest.raises(ConfigError, match=re.escape(f"ratio {ratio} with n=30")):
            tiny_config(ratios=(0.5, ratio))

    @pytest.mark.parametrize("key, field, values", [
        ("models", "models", (2, 4, 2)),
        ("n", "sample_sizes", (30, 40, 30)),
        ("ratio", "ratios", (0.5, 1.0, 0.5)),
        ("metrics", "metrics", ("frobenius", "spectral", "frobenius")),
    ])
    def test_a_repeated_grid_value_is_rejected(self, key, field, values):
        with pytest.raises(ConfigError, match=f"^{key} lists {values[0]!r} more than once"):
            tiny_config(**{field: values})

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(metrics=("bogus",))

    def test_zero_replications_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(replications=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            tiny_config(seed=-1)

    def test_weighted_scaling_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(scaling="weighted")

    def test_split_count_rule_is_split_schemes(self):
        with pytest.raises(ConfigError) as expected:
            cv_engine.split_scheme(5, None, 3)
        with pytest.raises(ConfigError) as got:
            tiny_config(split_count=3)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("model", [0, 9])
    def test_model_rule_is_cov_model_specs(self, model):
        with pytest.raises(ConfigError) as expected:
            CovModelSpec(model, 1)
        with pytest.raises(ConfigError) as got:
            tiny_config(models=(2, model))
        assert str(got.value) == str(expected.value)

    def test_no_models_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(models=())

    @pytest.mark.parametrize(
        "overrides, scheme, n",
        [
            ({"folds": 1}, VFold(1), 30),
            ({"folds": 31}, VFold(31), 30),
            ({"sample_sizes": (1,), "ratios": (2.0,)}, VFold(5), 1),
            ({"validation_fraction": 0.01}, MonteCarloSplit(1, 0.01), 30),
            ({"validation_fraction": 0.99}, MonteCarloSplit(1, 0.99), 30),
            ({"validation_fraction": 0.2, "split_count": 0}, MonteCarloSplit(0, 0.2), 30),
        ],
        ids=["one-fold", "more-folds-than-rows", "one-row", "no-validation-rows",
             "no-training-rows", "no-splits"],
    )
    def test_rejects_what_make_splits_rejects_at_construction(self, overrides, scheme, n):
        with pytest.raises(ConfigError) as expected:
            make_splits(scheme, n)
        with pytest.raises(ConfigError) as got:
            tiny_config(**overrides)
        assert str(got.value) == str(expected.value)


class TestRunner:
    def test_frobenius_row_count_candidates_plus_selected(self):
        config = tiny_config()  # K = 3, R = 2, frobenius only
        rows = run_experiment(config).rows
        assert len(rows) == 2 * (3 + 1)
        assert expected_row_count(config) == len(rows)
        subjects = {r.subject for r in rows}
        assert SELECTED_SUBJECT in subjects
        assert CV_ORACLE_SUBJECT not in subjects

    def test_full_metric_row_count(self):
        config = tiny_config(metrics=("cv_ratio", "full_ratio", "frobenius", "spectral"))
        rows = run_experiment(config).rows
        per_rep = (3 + 2) + (3 + 2) + (3 + 1) + (3 + 1)
        assert len(rows) == 2 * per_rep
        assert expected_row_count(config) == len(rows)

    @pytest.mark.parametrize("center", [False, True])
    def test_m2_comes_from_psi0_and_the_folds_alone(self, center):
        # The bound's m2 is max(max|psi0|, each training fold's largest variance), whichever
        # metrics run.  A fold's largest variance is its max|S|, up to rounding.
        config = tiny_config(models=(2, 8), metrics=("cv_ratio",), center=center,
                             library=estimators.library_preset("default"))
        stats = run_experiment(config).cells
        every_metric = run_experiment(
            tiny_config(models=(2, 8), center=center, library=config.library,
                        metrics=("cv_ratio", "full_ratio", "frobenius", "spectral"))
        ).cells
        assert [s.max_abs_estimate for s in every_metric] == [s.max_abs_estimate for s in stats]
        for grid_cell, cell in zip(config.cells(), stats):
            want = 0.0
            for _, psi0, data, _, splits in replications(config, grid_cell):
                want = max(want, float(np.max(np.abs(psi0))))
                for mask in splits:
                    train = center_columns(data[~mask]) if center else data[~mask]
                    want = max(want, float(np.max(np.abs(sample_covariance(train)))))
            assert cell.max_abs_estimate == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_rerun_is_identical(self):
        config = tiny_config(metrics=("cv_ratio", "frobenius"))
        assert run_experiment(config).rows == run_experiment(config).rows

    def test_risk_values_finite_nonnegative(self):
        config = tiny_config(metrics=("cv_ratio", "full_ratio"))
        for row in run_experiment(config).rows:
            assert np.isfinite(row.value)
            assert row.value >= 0.0

    def test_per_replication_oracle_dominance(self):
        config = tiny_config(models=(2, 4), replications=5,
                             metrics=("cv_ratio", "full_ratio"))
        rows = run_experiment(config).rows
        for metric, oracle_subject in (("cv_risk_diff", CV_ORACLE_SUBJECT),
                                       ("full_risk_diff", FULL_ORACLE_SUBJECT)):
            picked = {(r.model, r.replication): r.value for r in rows
                      if r.metric == metric and r.subject == SELECTED_SUBJECT}
            oracle = {(r.model, r.replication): r.value for r in rows
                      if r.metric == metric and r.subject == oracle_subject}
            assert set(picked) == set(oracle) and picked
            for key in picked:
                assert picked[key] >= oracle[key] * (1.0 - 1e-12)

    @pytest.mark.parametrize("oracle", ["cv", "full"])
    @pytest.mark.parametrize("scaling", ["inv_J", "one"])
    def test_oracle_rows_are_those_of_the_oracle_functions(self, scaling, oracle):
        # Both risk differences are in the oracle's eta units.  At this
        # model-2 cell, scoring psi0 alone, without the selector's target
        # and its near ties, gives cv values that differ by rounding, so
        # the cv case holds only if oracle_select_cv runs simulate's pass.
        config = ExperimentConfig(models=(2,), sample_sizes=(40,), ratios=(0.5,), replications=1,
                                  metrics=(f"{oracle}_ratio",), seed=2, scaling=scaling)
        rows = run_experiment(config).rows
        library = config.library
        [cell] = config.cells()
        for rep, psi0, data, _, splits in replications(config, cell):
            if oracle == "cv":
                report = cv_engine.oracle_select_cv(library, data, splits, psi0, scaling=scaling)
            else:
                report = cv_engine.oracle_select_full(library, data, psi0, scaling=scaling)
            want = dict(zip(library.ids, report.risk_diffs))
            want[CV_ORACLE_SUBJECT if oracle == "cv" else FULL_ORACLE_SUBJECT] = want[report.id]
            found = {r.subject: r.value for r in rows if r.replication == rep and r.subject != SELECTED_SUBJECT}
            assert None not in report.risk_diffs and found == want

    def test_center_applies_to_the_full_data(self):
        # The folds and the full-data fits both see centred data, as select's refit does.
        library = build_library({"sample_covariance": {}})
        config = tiny_config(replications=1, seed=0, center=True, library=library)
        [cell] = config.cells()
        [(_, psi0, data, _, _)] = replications(config, cell)
        want = float(np.sqrt(np.sum((sample_covariance(center_columns(data)) - psi0) ** 2)))
        assert want == 3.0709154519208517
        simulated = {r.subject: r.value for r in run_experiment(config).rows}
        assert simulated == {SELECTED_SUBJECT: want, "sample_covariance": want}
        benched = {r.subject: r.value for r in run_benchmark(config, tuning_grids={}).rows}
        assert benched == {SELECTED_SUBJECT: want}

        config = tiny_config(metrics=("full_ratio",), center=True)
        rows = run_experiment(config).rows
        library = config.library
        for rep, psi0, data, _, _ in replications(config, cell):
            report = cv_engine.oracle_select_full(library, data, psi0, center=True)
            want = dict(zip(library.ids, report.risk_diffs))
            want[FULL_ORACLE_SUBJECT] = want[report.id]
            found = {r.subject: r.value for r in rows if r.replication == rep and r.subject != SELECTED_SUBJECT}
            assert found == want

    def test_model_redraw_flag(self):
        redrawn = tiny_config(models=(8,), metrics=("cv_ratio",), replications=2)
        fixed = tiny_config(models=(8,), metrics=("cv_ratio",), replications=2, fix_model=True)
        rows_redrawn = run_experiment(redrawn).rows
        rows_fixed = run_experiment(fixed).rows
        assert rows_redrawn != rows_fixed

    def test_random_split_schemes(self):
        single = tiny_config(metrics=("cv_ratio",), validation_fraction=0.25)
        monte = tiny_config(metrics=("cv_ratio",), validation_fraction=0.25, split_count=6)
        rows_single = run_experiment(single).rows
        rows_monte = run_experiment(monte).rows
        assert len(rows_single) == len(rows_monte) == expected_row_count(single)
        assert rows_single != rows_monte
        with pytest.raises(ConfigError):
            tiny_config(split_count=3)  # split_count without a fraction
        with pytest.raises(ConfigError):
            tiny_config(validation_fraction=0.001)  # selects no validation rows


class TestCrossPath:
    def test_benchmark_and_experiment_draw_the_same_replications(self):
        config = tiny_config(models=(2, 8), replications=3)
        simulated = run_experiment(config).rows
        benched = run_benchmark(config, tuning_grids={}).rows

        def seeds(rows):
            out = {}
            for r in rows:
                out.setdefault((r.model, r.n, r.ratio, r.replication), set()).add(r.seed)
            return out

        assert seeds(simulated) == seeds(benched)
        assert all(len(s) == 1 for s in seeds(simulated).values())

        def selected_frobenius(rows):
            return {(r.model, r.n, r.ratio, r.replication): r.value for r in rows
                    if r.subject == SELECTED_SUBJECT and r.metric == "frobenius"}

        sim_frob = selected_frobenius(simulated)
        bench_frob = selected_frobenius(benched)
        assert sim_frob.keys() == bench_frob.keys() and len(sim_frob) == 6
        assert bench_frob == sim_frob

    def test_benchmark_and_experiment_agree_on_lanczos_spectral_norms(self, monkeypatch):
        config = tiny_config(sample_sizes=(40,), ratios=(5.0,), metrics=("frobenius", "spectral"))
        lanczos = matrix_core._lanczos_norm
        converged = []

        def recorded(m):
            converged.append(lanczos(m))
            return converged[-1]

        monkeypatch.setattr(matrix_core, "_lanczos_norm", recorded)

        def selected_spectral(rows):
            return {(r.model, r.n, r.ratio, r.replication): r.value for r in rows
                    if r.subject == SELECTED_SUBJECT and r.metric == "spectral"}

        simulated = selected_spectral(run_experiment(config).rows)
        benched = selected_spectral(run_benchmark(config, tuning_grids={}).rows)
        assert len(simulated) == 2 and all(np.isfinite(v) for v in simulated.values())
        assert benched == simulated
        # J = 200: every norm came from Lanczos, none from the eigvalsh fallback.
        assert converged and None not in converged


class TestSummaries:
    def test_recompute_from_rows_matches(self):
        config = tiny_config(metrics=("cv_ratio", "full_ratio", "frobenius", "spectral"),
                             replications=4)
        rows = run_experiment(config).rows
        summary = summarize_ratios(rows, metrics=config.metrics)
        assert len(summary["cells"]) == 1
        cell = summary["cells"][0]

        # independent recomputation with plain Python accumulators
        def mean_for(subject, metric):
            values = [r.value for r in rows if r.subject == subject and r.metric == metric]
            return sum(values) / len(values)

        expected_cv = mean_for(SELECTED_SUBJECT, "cv_risk_diff") / mean_for(
            CV_ORACLE_SUBJECT, "cv_risk_diff"
        )
        assert cell["cv_ratio_of_means"] == pytest.approx(expected_cv, rel=1e-12)
        expected_full = mean_for(SELECTED_SUBJECT, "full_risk_diff") / mean_for(
            FULL_ORACLE_SUBJECT, "full_risk_diff"
        )
        assert cell["full_ratio_of_means"] == pytest.approx(expected_full, rel=1e-12)
        assert cell["mean_frobenius"][SELECTED_SUBJECT] == pytest.approx(
            mean_for(SELECTED_SUBJECT, "frobenius"), rel=1e-12
        )
        assert cell["mean_spectral"]["sample_covariance"] == pytest.approx(
            mean_for("sample_covariance", "spectral"), rel=1e-12
        )

    def test_ratios_at_least_one(self):
        config = tiny_config(metrics=("cv_ratio", "full_ratio"), replications=6)
        summary = summarize_ratios(run_experiment(config).rows)
        cell = summary["cells"][0]
        assert cell["cv_ratio_of_means"] >= 1.0 - 1e-9
        assert cell["cv_ratio_per_replication_mean"] >= 1.0 - 1e-9
        assert cell["full_ratio_of_means"] >= 1.0 - 1e-9

    def test_identical_selections_give_ratio_one(self):
        rows = run_experiment(tiny_config(
            metrics=("cv_ratio",),
            library=CandidateLibrary((EstimatorSpec("sample_covariance"),)),
        )).rows
        summary = summarize_ratios(rows)
        assert summary["cells"][0]["cv_ratio_of_means"] == pytest.approx(1.0, abs=1e-15)

    def test_missing_metric_rejected(self):
        rows = run_experiment(tiny_config(metrics=("frobenius",))).rows
        with pytest.raises(ConfigError):
            summarize_ratios(rows, metrics=("cv_ratio",))

    def test_synthetic_ratio_arithmetic(self):
        from covsel.simulation import ResultRow

        # selector always lands on a risk difference of 1 while the oracle
        # attains 0.01: the ratio of means is exactly 100
        rows = []
        for rep in range(3):
            rows.append(ResultRow(2, 30, 15, 0.5, rep, SELECTED_SUBJECT, "cv_risk_diff", 1.0, 0))
            rows.append(ResultRow(2, 30, 15, 0.5, rep, CV_ORACLE_SUBJECT, "cv_risk_diff", 0.01, 0))
        summary = summarize_ratios(rows)
        cell = summary["cells"][0]
        assert cell["cv_ratio_of_means"] == pytest.approx(100.0, rel=1e-12)
        assert cell["cv_ratio_per_replication_mean"] == pytest.approx(100.0, rel=1e-12)


class TestBenchmark:
    def test_selector_only_single_cell(self):
        config = tiny_config(metrics=("frobenius", "spectral"),
                             library=CandidateLibrary((EstimatorSpec("sample_covariance"),)))
        result = run_benchmark(config, tuning_grids={})
        assert result.procedures == (SELECTED_SUBJECT,)
        metrics = {entry["metric"] for entry in result.table}
        assert metrics == {"frobenius", "spectral"}
        assert len(result.table) == 2  # one mean per metric

    def test_perfect_candidate_has_zero_error(self):
        psi0 = build_model_covariance(CovModelSpec(2, 15))
        config = tiny_config(metrics=("frobenius",))
        grids = {"fixed": [EstimatorSpec("fixed", {"matrix": psi0}, id="truth")]}
        result = run_benchmark(config, tuning_grids=grids)
        means = {entry["procedure"]: entry["mean"] for entry in result.table
                 if entry["metric"] == "frobenius"}
        assert means["fixed"] == 0.0
        assert means["fixed"] == min(means.values())

    def test_table_matches_rows(self):
        config = tiny_config(metrics=("frobenius",), replications=3)
        result = run_benchmark(config)
        rebuilt = benchmark_table(result.rows)
        assert rebuilt == result.table

    def test_risk_metric_rejected(self):
        with pytest.raises(ConfigError):
            run_benchmark(tiny_config(metrics=("cv_ratio",)))


def test_a_programming_error_in_a_cell_ends_the_run(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a fault in the program, not in its inputs")

    monkeypatch.setattr(simulation, "evaluate_candidates", broken)
    with pytest.raises(TypeError, match="a fault in the program"):
        run_experiment(tiny_config())


def test_cell_failure_skips_cell_not_run(caplog):
    # An impossible candidate library for one model's dimension must not
    # abort the other cells.
    bad_spec = EstimatorSpec("poet", {"factors": 18, "threshold": 0.1})
    config = ExperimentConfig(
        models=(2,),
        sample_sizes=(30,),
        ratios=(0.5, 1.0),  # dimensions 15 (poet fails) and 30 (poet fits)
        replications=1,
        metrics=("frobenius",),
        seed=5,
        library=CandidateLibrary((bad_spec,)),
    )
    result = run_experiment(config)
    dims = {stats.dim for stats in result.cells}
    assert dims == {30}
    assert all(row.dim == 30 for row in result.rows)


def test_a_programming_error_in_a_bench_cell_ends_the_run(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a fault in the program, not in its inputs")

    monkeypatch.setattr(simulation, "evaluate_candidates", broken)
    with pytest.raises(TypeError, match="a fault in the program"):
        run_benchmark(tiny_config())


def test_bench_cell_failure_skips_cell_not_run(monkeypatch):
    real = simulation.evaluate_candidates

    def fails_at_dimension_15(library, data, splits, **kwargs):
        if data.shape[1] == 15:
            raise EstimationError("a failure on this cell's data")
        return real(library, data, splits, **kwargs)

    monkeypatch.setattr(simulation, "evaluate_candidates", fails_at_dimension_15)
    result = run_benchmark(tiny_config(ratios=(0.5, 1.0), replications=1))  # dimensions 15 and 30
    assert result.rows and {row.dim for row in result.rows} == {30}
    assert {entry["J"] for entry in result.table} == {30}


def test_a_non_finite_full_data_fit_is_left_out_and_logged(monkeypatch, caplog):
    real = estimators.apply_with_context

    def nan_on_the_full_data(spec, ctx):
        estimate = real(spec, ctx)
        if spec.family == "linear_shrinkage" and ctx.data.shape[0] == 30:  # training folds have 24 rows
            estimate[0, 0] = np.nan
        return estimate

    monkeypatch.setattr(estimators, "apply_with_context", nan_on_the_full_data)
    config = tiny_config(metrics=("cv_ratio", "full_ratio", "frobenius", "spectral"))
    with caplog.at_level(logging.WARNING, logger="covsel.simulation"):
        rows = run_experiment(config).rows
    # linear_shrinkage loses its own row of each metric in each replication.
    assert len(rows) == expected_row_count(config) - 4 * config.replications
    assert all(row.subject != "linear_shrinkage" and np.isfinite(row.value) for row in rows)
    assert caplog.text.count("excluded linear_shrinkage (full-data fit: non-finite estimate)") == 2


class TestSkippedWork:
    def test_frobenius_only_run_computes_no_oracle_diffs(self, monkeypatch):
        oracle_targets = []
        real = cv_engine._score_fits

        def counted(library, fold, **kwargs):
            # The selector scores against the validation covariance; any
            # further target is the true covariance.
            oracle_targets.append(len(fold.targets) - 1)
            return real(library, fold, **kwargs)

        monkeypatch.setattr(cv_engine, "_score_fits", counted)
        monkeypatch.setattr(_workers, "_worker_count", lambda units: 1)  # the counts live in this process
        frob_only = run_experiment(tiny_config()).rows
        assert oracle_targets == [0] * (2 * 5)  # replications x folds
        oracle_targets.clear()
        with_oracle = run_experiment(tiny_config(metrics=("cv_ratio", "frobenius"))).rows
        assert oracle_targets == [1] * (2 * 5)
        assert frob_only == [r for r in with_oracle if r.metric == "frobenius"]

    def test_benchmark_refits_winners_and_falls_back_on_failure(self, monkeypatch):
        psi0 = build_model_covariance(CovModelSpec(2, 15))
        grids = {
            "fixed": [
                EstimatorSpec("fixed", {"matrix": psi0}, id="truth"),
                EstimatorSpec("fixed", {"matrix": 2.0 * np.eye(15)}, id="far"),
            ]
        }
        config = tiny_config(metrics=("frobenius",))
        refits = []
        real_try_fit = estimators._try_fit

        def failing_truth(spec, ctx):
            if ctx.data.shape[0] < 30:  # a training fold
                return real_try_fit(spec, ctx)
            refits.append(spec.id)
            if spec.id == "truth":
                return None, "forced failure"
            return real_try_fit(spec, ctx)

        monkeypatch.setattr(estimators, "_try_fit", failing_truth)
        monkeypatch.setattr(_workers, "_worker_count", lambda units: 1)  # the refits live in this process
        result = run_benchmark(config, tuning_grids=grids)
        fixed = [r.value for r in result.rows if r.subject == "fixed"]
        assert fixed == [pytest.approx(float(np.linalg.norm(2.0 * np.eye(15) - psi0)))] * 2
        # per replication: the selector's winner, then truth (fails) and far
        assert len(refits) == 2 * 3 and refits.count("truth") == 2


class TestSamplingFactor:
    @pytest.mark.parametrize("model, factorizations", [(2, 1), (8, 3)])
    def test_each_sampled_model_is_factorized_once(self, model, factorizations, monkeypatch):
        config = tiny_config(models=(model,), replications=3)
        calls = []
        real = simulation._sampling_factor

        def counted(psi):
            calls.append(1)
            return real(psi)

        monkeypatch.setattr(simulation, "_sampling_factor", counted)
        monkeypatch.setattr(_workers, "_worker_count", lambda units: 1)  # the calls live in this process
        run_experiment(config)
        assert len(calls) == factorizations
        # The cached factor draws the same bytes as sampling each replication afresh.
        for rep, psi0, data, data_seed, _ in replications(config, config.cells()[0]):
            assert np.array_equal(data, sample_gaussian(psi0, 30, data_seed)), rep

    @forks_regardless
    @pytest.mark.usefixtures("deadline")
    def test_each_process_factorizes_a_model_once_per_cell_it_runs(self, monkeypatch, tmp_path):
        log = tmp_path / "factorizations"
        real = simulation._sampling_factor

        def logged(psi):
            with open(log, "a", encoding="utf-8") as out:
                out.write(f"{os.getpid()} {psi.shape[0]}\n")
            return real(psi)

        monkeypatch.setattr(simulation, "_sampling_factor", logged)
        pin_workers(monkeypatch, 2)
        run_experiment(two_cell_config())
        assert_no_child_left()
        calls = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        # This process runs replications 0 and 2 of the J=30 cell; the child the J=15 cell and replication 1 of J=30.
        assert sorted((int(pid) == os.getpid(), int(dim)) for pid, dim in calls) == [(False, 15), (False, 30), (True, 30)]


#: More factors than either cell has features: every replication logs that it is left out.
TOO_MANY_FACTORS = EstimatorSpec("poet", {"factors": 40, "threshold": 0.1})


def grid_costs(config):
    """The costs of ``config``'s (cell, replication) units that :func:`simulation._run_grid` gives ``_map``."""
    class Stop(Exception):
        pass

    def stop(run, costs):
        raise Stop(costs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_workers, "_map", stop)
        with pytest.raises(Stop) as stopped:
            run_experiment(config)
    return stopped.value.args[0]


def shares_of(costs, workers, monkeypatch):
    """The units of each share that ``_map`` runs at ``workers`` workers: this process's, then each child's."""
    pin_workers(monkeypatch, workers)
    pids = _workers._map(lambda unit: os.getpid(), costs)
    assert_no_child_left()
    order = sorted(set(pids), key=lambda pid: (pid != os.getpid(), pids.index(pid)))
    return [[unit for unit, pid in enumerate(pids) if pid == share] for share in order]


def two_cell_config(**overrides):
    # Dimensions 15 and 30.  Each cell's replications are spread over the shares out of
    # order at 2 or more workers, so a merge that ignores the order shows in the log.
    settings = {"ratios": (0.5, 1.0), "replications": 3, "library": CandidateLibrary((*tiny_library(), TOO_MANY_FACTORS))}
    settings.update(overrides)
    return tiny_config(**settings)


@forks_regardless
@pytest.mark.usefixtures("deadline")
class TestWorkers:
    def run_at(self, workers, monkeypatch, caplog, runner):
        pin_workers(monkeypatch, workers)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="covsel.simulation"):
            result = runner()
        assert_no_child_left()
        return result, [(record.levelname, record.getMessage()) for record in caplog.records]

    def test_experiment_outputs_and_log_are_the_same_at_any_worker_count(self, monkeypatch, caplog):
        config = two_cell_config(metrics=("cv_ratio", "full_ratio", "frobenius", "spectral"))
        runs = [self.run_at(workers, monkeypatch, caplog, lambda: run_experiment(config)) for workers in (1, 2, 3)]
        (serial, log), *parallel = runs
        assert serial.rows and len(serial.cells) == 2 and serial.skipped == []
        assert sum("excluded poet" in message for _, message in log) == 2 * 3
        for result, other_log in parallel:
            assert (result.rows, result.cells, result.skipped) == (serial.rows, serial.cells, serial.skipped)
            assert other_log == log

    def test_benchmark_outputs_and_log_are_the_same_at_any_worker_count(self, monkeypatch, caplog):
        config = two_cell_config(metrics=("frobenius", "spectral"))
        grids = {"poet": [TOO_MANY_FACTORS],
                 "banding": [EstimatorSpec("banding", {"bands": b}) for b in (1, 2)]}
        runs = [self.run_at(workers, monkeypatch, caplog, lambda: run_benchmark(config, grids)) for workers in (1, 2, 3)]
        (serial, log), *parallel = runs
        assert serial.rows and serial.skipped == []
        assert sum("procedure poet has no valid candidate" in message for _, message in log) == 2 * 3
        for result, other_log in parallel:
            assert (result.rows, result.table, result.skipped) == (serial.rows, serial.table, serial.skipped)
            assert other_log == log

    @pytest.mark.parametrize("runner", [run_experiment, lambda config: run_benchmark(config, {"poet": [TOO_MANY_FACTORS]})],
                             ids=["experiment", "benchmark"])
    def test_a_cell_failing_at_rep_1_is_skipped_as_one_process_skips_it(self, runner, monkeypatch, caplog):
        real = simulation._replication
        drawn = []

        def fails_at_odd_reps(config, cell, rep, models):
            drawn.append((cell[4], rep))
            if cell[4] == 15 and rep % 2:
                raise EstimationError(f"injected at rep {rep}")
            return real(config, cell, rep, models)

        monkeypatch.setattr(simulation, "_replication", fails_at_odd_reps)
        # At 4 workers, reps 1 and 3 of the failing cell both raise, in different shares, and
        # rep 2 runs to its end in a third; one process stops at rep 1.
        config = two_cell_config(replications=4, metrics=("frobenius", "spectral"))
        serial, log = self.run_at(1, monkeypatch, caplog, lambda: runner(config))
        assert [rep for dim, rep in drawn if dim == 15] == [0, 1]  # no replication runs after the cell failed
        parallel = [self.run_at(workers, monkeypatch, caplog, lambda: runner(config)) for workers in (2, 3, 4)]
        assert serial.skipped == [{"model": 2, "n": 30, "ratio": 0.5, "reason": "EstimationError: injected at rep 1"}]
        assert {row.dim for row in serial.rows} == {30}
        # rep 0's warning, then the skip
        assert [level for level, message in log if "n=30 J=15" in message or "ratio=0.5" in message] == ["WARNING", "ERROR"]
        assert "Traceback" in log[1][1] and "injected at rep 1" in log[1][1]
        for result, other_log in parallel:
            assert (result.rows, result.skipped) == (serial.rows, serial.skipped)
            assert other_log == log

    @pytest.mark.parametrize("share", [0, 1])
    def test_a_fault_in_a_share_ends_the_run_with_that_error(self, share, monkeypatch):
        config = two_cell_config()
        [target, *_] = shares_of(grid_costs(config), 2, monkeypatch)[share]
        real = simulation._run_rep

        def broken(config, library, cell, replication, warnings):
            if config.cells().index(cell) * config.replications + replication[0] == target:
                raise RuntimeError("a fault in the program")
            return real(config, library, cell, replication, warnings)

        monkeypatch.setattr(simulation, "_run_rep", broken)
        pin_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="a fault in the program") as raised:
            run_experiment(config)
        assert_no_child_left()
        if share == 1:  # raised in the child: its traceback comes along as the cause
            cause = raised.value.__cause__
            assert isinstance(cause, _workers._WorkerTraceback) and "in broken" in str(cause)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_faults_in_two_shares_raise_the_lower_unit_s_error(self, workers, monkeypatch):
        config = two_cell_config()
        if workers > 1:  # unit 3, replication 0 of the J=30 cell, is this process's; unit 1 a child's
            [parent, *children] = shares_of(grid_costs(config), workers, monkeypatch)
            assert 3 in parent and any(1 in share for share in children)
        real = simulation._run_rep

        def broken(config, library, cell, replication, warnings):
            unit = config.cells().index(cell) * config.replications + replication[0]
            if unit in (1, 3):
                raise RuntimeError(f"a fault at unit {unit}")
            return real(config, library, cell, replication, warnings)

        monkeypatch.setattr(simulation, "_run_rep", broken)
        pin_workers(monkeypatch, workers)
        with pytest.raises(RuntimeError, match="^a fault at unit 1$") as raised:
            run_experiment(config)
        assert_no_child_left()
        assert isinstance(raised.value.__cause__, _workers._WorkerTraceback) == (workers > 1)

    def test_a_child_that_dies_is_an_error_naming_its_exit_status(self, monkeypatch):
        parent = os.getpid()
        real = simulation._run_rep

        def dies_in_the_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(simulation, "_run_rep", dies_in_the_child)
        pin_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"ended without a complete result \(exit status 3\)"):
            run_experiment(two_cell_config())
        assert_no_child_left()

    @pytest.mark.parametrize("runner, metrics", [
        (run_experiment, ("cv_ratio", "frobenius")),
        (lambda config: run_benchmark(config, {"poet": [TOO_MANY_FACTORS]}), ("frobenius",)),
    ], ids=["experiment", "benchmark"])
    def test_a_run_on_two_workers_forks_once_and_its_shares_never_fork(self, runner, metrics, monkeypatch, tmp_path):
        forks = count_forks(monkeypatch, tmp_path / "forks")
        pin_workers(monkeypatch, 2)
        runner(two_cell_config(metrics=metrics))
        assert forks() == 1
        assert_no_child_left()

    def test_a_one_unit_grid_scores_its_folds_on_workers(self, monkeypatch, tmp_path):
        config = tiny_config(replications=1, metrics=("cv_ratio", "frobenius"))
        forks = count_forks(monkeypatch, tmp_path / "forks")
        pin_workers(monkeypatch, 2)
        rows = run_experiment(config).rows
        assert forks() == 1  # the odd-numbered folds
        assert_no_child_left()
        pin_workers(monkeypatch, 1)
        assert run_experiment(config).rows == rows
        assert forks() == 1


class TestWorkerCount:
    @pytest.fixture
    def cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(sys, "platform", "linux")

    def test_a_single_threaded_process_uses_each_cpu_up_to_one_per_unit(self, cpus, monkeypatch):
        monkeypatch.setattr(os, "listdir", lambda path: ["1"])
        assert [_workers._worker_count(units) for units in (1, 3, 4, 100)] == [1, 3, 4, 4]

    def test_a_process_with_threads_runs_its_units_itself(self, cpus, monkeypatch):
        monkeypatch.setattr(os, "listdir", lambda path: ["1", "2"])
        assert _workers._worker_count(100) == 1

    def test_a_share_of_a_run_on_workers_runs_its_units_itself(self, cpus, monkeypatch):
        monkeypatch.setattr(os, "listdir", lambda path: ["1"])
        monkeypatch.setattr(_workers, "_sharing", True)
        assert _workers._worker_count(100) == 1

    def test_other_platforms_run_their_units_in_process(self, cpus, monkeypatch):
        monkeypatch.setattr(os, "listdir", lambda path: ["1"])
        monkeypatch.setattr(sys, "platform", "darwin")
        assert _workers._worker_count(100) == 1

    @forks_regardless
    @pytest.mark.usefixtures("deadline")
    def test_the_grid_s_units_balance_cost_longest_first(self, monkeypatch):
        # The desk grid: J=50 and J=200 cells.  Unit 3 * cell + replication at 3 replications.
        config = ExperimentConfig(models=(2,), sample_sizes=(50, 200), ratios=(1.0,), replications=3)
        assert shares_of(grid_costs(config), 2, monkeypatch) == [[3, 5], [0, 1, 2, 4]]
        shares = shares_of(grid_costs(replace(config, replications=5)), 3, monkeypatch)
        assert len(shares) == 3 and sorted(unit for share in shares for unit in share) == list(range(10))
