import json

import numpy as np
import pytest

from covsel.cli import (
    main,
    read_benchmark_table,
    read_estimate_csv,
    read_numeric_csv,
    read_results_csv,
    read_risk_table,
)
from covsel.simulation import ExperimentConfig, expected_row_count
from covsel.estimators import default_library


def write_csv(path, matrix, header=None, delimiter=","):
    lines = []
    if header:
        lines.append(delimiter.join(header))
    for row in matrix:
        lines.append(delimiter.join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(25, 3))
    path = tmp_path / "data.csv"
    write_csv(path, data, header=["a", "b", "c"])
    return path, data


def singleton_config(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(
        "[run]\nfolds = 5\nseed = 3\n\n[candidate.sample_covariance]\n",
        encoding="utf-8",
    )
    return path


class TestReadNumericCsv:
    def test_header_autodetect(self, toy_csv):
        path, data = toy_csv
        values, names = read_numeric_csv(path)
        assert names == ["a", "b", "c"]
        assert np.array_equal(values, data)

    def test_headerless(self, tmp_path):
        path = tmp_path / "plain.csv"
        write_csv(path, [[1.0, 2.0], [3.0, 4.0]])
        values, names = read_numeric_csv(path)
        assert names is None
        assert np.array_equal(values, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_diagnosed(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        from covsel.errors import ConfigError

        with pytest.raises(ConfigError, match="ragged row 2"):
            read_numeric_csv(path)

    def test_bad_field_diagnosed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n", encoding="utf-8")
        from covsel.errors import ConfigError

        with pytest.raises(ConfigError, match="row 2, column 2"):
            read_numeric_csv(path)

    def test_alternate_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("1.0;2.0\n3.0;4.0\n", encoding="utf-8")
        values, _ = read_numeric_csv(path, delimiter=";")
        assert np.array_equal(values, [[1.0, 2.0], [3.0, 4.0]])


class TestSelectCommand:
    def test_singleton_selection_artifacts(self, tmp_path, toy_csv):
        path, data = toy_csv
        out = tmp_path / "out"
        code = main([
            "select", "--input", str(path), "--config", str(singleton_config(tmp_path)),
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "selection_report.json").read_text())
        assert report["schema_version"] == 1
        assert report["selected_id"] == "sample_covariance"
        assert len(report["candidates"]) == 1
        assert report["seed"] == 3
        assert not (out / "scores.csv").exists()

        table = read_risk_table(out / "risk_table.csv")
        assert table[0]["selected"] is True
        assert table[0]["cv_risk"] == report["candidates"][0]["cv_risk"]

        estimate, dim, selected = read_estimate_csv(out / "estimate.csv")
        assert dim == 3 and selected == "sample_covariance"
        centered = data - data.mean(axis=0)
        expected = centered.T @ centered / centered.shape[0]
        assert np.array_equal(estimate, 0.5 * (expected + expected.T))

    def test_pca_scores_variance_identity(self, tmp_path, toy_csv):
        path, data = toy_csv
        out = tmp_path / "out_pca"
        code = main([
            "select", "--input", str(path), "--config", str(singleton_config(tmp_path)),
            "--out", str(out), "--pca", "2",
        ])
        assert code == 0
        scores, names = read_numeric_csv(out / "scores.csv", header="yes")
        assert names == ["pc1", "pc2"]
        assert scores.shape == (25, 2)
        estimate, _, _ = read_estimate_csv(out / "estimate.csv")
        eigvals = np.linalg.eigvalsh(estimate)[::-1]
        # with the sample covariance selected, score variances are its eigenvalues
        centered_scores = scores - scores.mean(axis=0)
        variances = (centered_scores**2).sum(axis=0) / scores.shape[0]
        assert np.allclose(variances, eigvals[:2], atol=1e-8)

    def test_risk_table_sorted(self, tmp_path, toy_csv):
        path, _ = toy_csv
        out = tmp_path / "out_full"
        code = main(["select", "--input", str(path), "--out", str(out), "--seed", "1"])
        assert code == 0
        table = read_risk_table(out / "risk_table.csv")
        assert len(table) == len(default_library())
        risks = [r["cv_risk"] for r in table if r["cv_risk"] is not None]
        assert risks == sorted(risks)
        assert table[0]["selected"] is True

    def test_ragged_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        code = main(["select", "--input", str(path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "invalid_input"
        assert "ragged" in record["message"]

    def test_constant_column_under_weighted_scaling_exits_2(self, tmp_path, capsys):
        data = np.random.default_rng(1).normal(size=(20, 4))
        data[:, 2] = 5.0
        path = tmp_path / "constant.csv"
        write_csv(path, data)
        code = main(["select", "--input", str(path), "--scaling", "weighted", "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "invalid_input"
        assert "column(s) 2" in record["message"]

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["select", "--input", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_all_candidates_failing_exits_3(self, tmp_path, toy_csv, capsys):
        path, _ = toy_csv
        config = tmp_path / "bad.ini"
        config.write_text(
            "[candidate.poet]\nfactors = 50\nthreshold = 0.1\n", encoding="utf-8"
        )
        code = main(["select", "--input", str(path), "--config", str(config)])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "selection_failed"

    def test_pca_larger_than_dim_exits_2(self, tmp_path, toy_csv):
        path, _ = toy_csv
        assert main(["select", "--input", str(path), "--pca", "9"]) == 2

    def test_monte_carlo_split_flags(self, tmp_path, toy_csv):
        path, _ = toy_csv
        out = tmp_path / "out_mc"
        code = main([
            "select", "--input", str(path), "--config", str(singleton_config(tmp_path)),
            "--out", str(out), "--pn", "0.2", "--splits", "4", "--seed", "5",
        ])
        assert code == 0
        report = json.loads((out / "selection_report.json").read_text())
        assert report["scheme"] == {
            "kind": "monte_carlo", "count": 4, "validation_fraction": 0.2, "seed": 5,
        }

    def test_single_split_flag(self, tmp_path, toy_csv):
        path, _ = toy_csv
        out = tmp_path / "out_single"
        code = main([
            "select", "--input", str(path), "--config", str(singleton_config(tmp_path)),
            "--out", str(out), "--pn", "0.25",
        ])
        assert code == 0
        report = json.loads((out / "selection_report.json").read_text())
        assert report["scheme"]["kind"] == "single"

    def test_json_config_equivalent(self, tmp_path, toy_csv):
        path, _ = toy_csv
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "run": {"folds": 5, "seed": 3},
            "candidates": {"sample_covariance": {}},
        }), encoding="utf-8")
        out = tmp_path / "out_json"
        assert main(["select", "--input", str(path), "--config", str(config),
                     "--out", str(out)]) == 0
        report = json.loads((out / "selection_report.json").read_text())
        assert report["selected_id"] == "sample_covariance"


class TestSimulateCommand:
    def test_smoke_profile_rows_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = main(["simulate", "--profile", "smoke", "--seed", "11", "--out", str(out)])
            assert code == 0
        first = (out_a / "results.csv").read_bytes()
        second = (out_b / "results.csv").read_bytes()
        assert first == second
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

        rows = read_results_csv(out_a / "results.csv")
        config = ExperimentConfig(models=(2,), sample_sizes=(50,), ratios=(0.5,),
                                  replications=2, seed=11)
        assert len(rows) == expected_row_count(config)

    def test_results_roundtrip_identical(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--profile", "smoke", "--seed", "4", "--out", str(out)]) == 0
        rows = read_results_csv(out / "results.csv")
        copy = tmp_path / "copy.csv"
        from covsel.cli import write_results_csv

        write_results_csv(copy, rows)
        assert copy.read_bytes() == (out / "results.csv").read_bytes()
        assert read_results_csv(copy) == rows

    def test_summary_bound_section(self, tmp_path):
        out = tmp_path / "run2"
        assert main(["simulate", "--profile", "smoke", "--seed", "2", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["candidates"] == 73
        cell = summary["cells"][0]
        assert cell["bound"]["holds"] is True
        assert cell["cv_ratio_of_means"] >= 1.0 - 1e-9

    def test_invalid_grid_exits_2(self, tmp_path, capsys):
        config = tmp_path / "sim.ini"
        config.write_text("[experiment]\nmodels = 12\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2

    def test_config_file_grid(self, tmp_path):
        config = tmp_path / "sim.ini"
        config.write_text(
            "[experiment]\nmodels = 4\nn = 30\nratio = 0.5\nreplications = 1\n"
            "metrics = frobenius\nseed = 6\n\n"
            "[candidate.sample_covariance]\n[candidate.banding]\nbands = 1 2\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        rows = read_results_csv(out / "results.csv")
        assert len(rows) == 1 * (3 + 1)
        assert {r.model for r in rows} == {4}


def test_full_profile_warns_about_runtime(caplog):
    import logging

    from covsel.cli import _PROFILES, _warn_if_large

    full = _PROFILES["full"]
    config = ExperimentConfig(
        models=full["models"], sample_sizes=full["sample_sizes"],
        ratios=full["ratios"], replications=full["replications"],
    )
    with caplog.at_level(logging.WARNING, logger="covsel.cli"):
        _warn_if_large(config, "full")
    assert any("runtime" in record.message for record in caplog.records)


class TestBenchCommand:
    def test_smoke_bench_artifacts(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--profile", "smoke", "--seed", "9", "--out", str(out)])
        assert code == 0
        table = read_benchmark_table(out / "bench_table.csv")
        procedures = {entry["procedure"] for entry in table}
        assert "cvCovEst" in procedures
        assert "banding" in procedures
        rows = read_results_csv(out / "results.csv")
        assert {r.metric for r in rows} == {"frobenius", "spectral"}

    def test_bench_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["bench", "--profile", "smoke", "--seed", "1", "--out", str(out)]) == 0
        assert (out_a / "bench_table.csv").read_bytes() == (out_b / "bench_table.csv").read_bytes()
