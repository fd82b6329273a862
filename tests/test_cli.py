import csv
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from covsel.cli import (
    _is_dense_bit_symmetric,
    _write_matrix,
    load_config,
    main,
    read_benchmark_table,
    read_estimate_csv,
    read_numeric_csv,
    read_results_csv,
    read_risk_table,
)
import covsel.cv_engine as cv_engine
from covsel.errors import ConfigError
from covsel.simulation import ExperimentConfig, expected_row_count
from covsel.estimators import _FAMILIES, default_library, register_family

from forking import assert_no_child_left, deadline, forks_regardless, pin_workers  # noqa: F401


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

        with pytest.raises(ConfigError, match="ragged row at line 2"):
            read_numeric_csv(path)

    def test_bad_field_diagnosed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n", encoding="utf-8")
        from covsel.errors import ConfigError

        with pytest.raises(ConfigError, match="line 2, column 2"):
            read_numeric_csv(path)

    @pytest.mark.parametrize("text, place", [
        ("a,b\n1,2\n\n3,oops\n", "line 4, column 2"),  # split by str.split
        ('a,b\n1,2\n\n3,"oops"\n', "line 4, column 2"),  # split by csv.reader
        ('a,b\n"1\n",2\n\n3,"oops"\n', "line 5, column 2"),  # a quoted field across two lines
        ("a,b\n1,2\n\n3\n", "ragged row at line 4"),
        ('a,b\n1,2\n\n"3"\n', "ragged row at line 4"),
    ])
    def test_an_error_names_the_line_of_the_file_after_a_blank_line(self, tmp_path, text, place):
        path = tmp_path / "blank.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: {place}")):
            read_numeric_csv(path)

    def test_an_estimate_error_names_the_line_below_its_header(self, tmp_path):
        path = tmp_path / "estimate.csv"
        path.write_text("# J=2 selected=x\n1,2\n2,oops\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 3, column 2"):
            read_estimate_csv(path)

    def test_alternate_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("1.0;2.0\n3.0;4.0\n", encoding="utf-8")
        values, _ = read_numeric_csv(path, delimiter=";")
        assert np.array_equal(values, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("delimiter", ["tab", "\\t"])
    def test_tab_delimiter_selects_as_the_csv_does(self, tmp_path, toy_csv, delimiter):
        path, data = toy_csv
        tsv = tmp_path / "data.tsv"
        write_csv(tsv, data, header=["a", "b", "c"], delimiter="\t")
        assert main(["select", "--input", str(path), "--out", str(tmp_path / "csv")]) == 0
        assert main(["select", "--input", str(tsv), "--delimiter", delimiter, "--out", str(tmp_path / "tsv")]) == 0
        for name in ("selection_report.json", "risk_table.csv", "estimate.csv"):
            assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "tsv" / name).read_bytes(), name

    def test_byte_order_mark_is_not_part_of_the_first_field(self, tmp_path, toy_csv):
        path, data = toy_csv
        for header in (["a", "b", "c"], None):
            plain = tmp_path / "plain.csv"
            write_csv(plain, data, header=header)
            marked = tmp_path / "marked.csv"
            marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
            for mode in ("auto", "no") if header is None else ("auto", "yes"):
                values, names = read_numeric_csv(marked, header=mode)
                expected, expected_names = read_numeric_csv(plain, header=mode)
                assert values.tobytes() == expected.tobytes() and values.shape == data.shape
                assert names == expected_names == header

    @pytest.mark.parametrize("suffix, text", [
        (".ini", "[run]\nfolds = 4\n"),
        (".json", '{"run": {"folds": 4}}'),
    ])
    def test_byte_order_mark_config_loads(self, tmp_path, suffix, text):
        path = tmp_path / f"config{suffix}"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_config(path) == {"run": {"folds": "4" if suffix == ".ini" else 4}}


class TestConfigKeys:
    @pytest.mark.parametrize("command", ["select", "simulate"])
    @pytest.mark.parametrize("suffix, text, section, key", [
        pytest.param(".ini", "[run]\nfold = 3\nscalling = inv_J\n", "run", "fold, scalling", id="ini-run-keys"),
        pytest.param(".ini", "[experiment]\nreplicatons = 1\nmodel = 3\n", "experiment", "model, replicatons",
                     id="ini-experiment-keys"),
        pytest.param(".ini", "[experiement]\nreplications = 1\n", "experiement", None, id="ini-section"),
        pytest.param(".ini", "[library]\npresets = light\n", "library", "presets", id="ini-library-key"),
        pytest.param(".json", '{"experiment": {"replicatons": 1}}', "experiment", "replicatons",
                     id="json-experiment-key"),
        pytest.param(".ini", "[experiment]\nrisk = matrix\n", "experiment", "risk", id="ini-experiment-risk"),
        pytest.param(".json", '{"run": {"fold": 3}}', "run", "fold", id="json-run-key"),
        pytest.param(".json", '{"rnu": {"folds": 3}}', "rnu", None, id="json-section"),
    ])
    def test_an_unknown_section_or_key_exits_2_naming_it(self, tmp_path, toy_csv, capsys, command, suffix,
                                                         text, section, key):
        config = tmp_path / f"config{suffix}"
        config.write_text(text, encoding="utf-8")
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command == "select":
            argv += ["--input", str(toy_csv[0])]
        assert main(argv) == 2
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
        assert f"[{section}]" in message
        assert ("unknown config section" in message) if key is None else message.endswith(key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["run", "candidate.banding"])
    def test_a_section_that_is_not_a_mapping_is_rejected(self, tmp_path, section):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: 5}), encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"\[{section}\] must map"):
            load_config(config)

    @pytest.mark.parametrize("command, suffix, text, named", [
        pytest.param("select", ".ini", "[candidates]\nhard_threshold = 0.05\n", "'hard_threshold'",
                     id="ini-candidates-entry"),
        pytest.param("select", ".json", '{"candidates": {"hard_threshold": 5}}', "'hard_threshold'",
                     id="json-candidates-entry"),
        pytest.param("select", ".json", '{"candidates": [1, 2]}', "[candidates]", id="json-candidates-list"),
        pytest.param("select", ".json", '{"run": {"folds": 2.5}}', "folds", id="json-folds-fraction"),
        pytest.param("select", ".ini", "[run]\nfolds = 2.5\n", "folds", id="ini-folds-fraction"),
        pytest.param("select", ".json", '{"run": {"seed": 7.9}}', "seed", id="json-seed-fraction"),
        pytest.param("select", ".json", '{"run": {"seed": true}}', "seed", id="json-seed-boolean"),
        pytest.param("select", ".json", '{"run": {"pca": 1.5}}', "pca", id="json-pca-fraction"),
        pytest.param("simulate", ".json", '{"experiment": {"replications": 1.5}}', "replications",
                     id="json-replications-fraction"),
        pytest.param("simulate", ".json", '{"experiment": {"models": [2.7]}}', "models", id="json-models-fraction"),
        pytest.param("select", ".json", '{"run": {"seed": -1}}', "seed", id="select-negative-seed"),
        pytest.param("simulate", ".ini", "[experiment]\nseed = -1\n", "seed", id="simulate-negative-seed"),
        pytest.param("bench", ".json", '{"experiment": {"seed": -1}}', "seed", id="bench-negative-seed"),
        pytest.param("simulate", ".ini", "[experiment]\nratio = inf\n", "ratio inf", id="ratio-inf"),
        pytest.param("simulate", ".ini", "[experiment]\nratio = nan\n", "ratio nan", id="ratio-nan"),
        pytest.param("simulate", ".ini", "[experiment]\nratio = 1e308\n", "ratio 1e+308", id="ratio-overflows"),
        pytest.param("simulate", ".ini", "[experiment]\nn = 50 50\n", "n lists 50", id="simulate-repeated-n"),
        pytest.param("bench", ".json", '{"experiment": {"models": [2, 2]}}', "models lists 2",
                     id="bench-repeated-model"),
        pytest.param("bench", ".ini", "[experiment]\nmetrics = cv_ratio\n", "metrics ['cv_ratio']",
                     id="bench-unreported-metric"),
        pytest.param("simulate", ".ini", "[experiment]\nmetrics = frobenius frobenius\n", "metrics lists 'frobenius'",
                     id="simulate-repeated-metric"),
        # A config file that cannot be loaded is named instead; None is a file that does not exist.
        pytest.param("select", ".json", None, "config.json: [Errno 2]", id="config-missing"),
        pytest.param("select", ".json", '{"run": {"folds": 4}', "config.json: invalid JSON", id="config-invalid-json"),
        pytest.param("bench", ".json", "[1, 2]", "config.json: top-level JSON value must be an object",
                     id="config-json-not-an-object"),
        pytest.param("simulate", ".ini", "folds = 4\n[run]\n", "config.ini: invalid config",
                     id="config-ini-key-before-any-section"),
    ])
    def test_a_malformed_value_exits_2_naming_its_key(self, tmp_path, toy_csv, capsys, command, suffix, text,
                                                      named):
        config = tmp_path / f"config{suffix}"
        if text is not None:
            config.write_text(text, encoding="utf-8")
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command == "select":
            argv += ["--input", str(toy_csv[0])]
        assert main(argv) == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "invalid_input" and named in record["message"]
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


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
        assert report["schema_version"] == 3
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

    @pytest.mark.parametrize("special", ["nan", "-inf", "1e999"])
    def test_a_non_finite_value_exits_2_naming_its_place(self, tmp_path, capsys, special):
        # read_numeric_csv parses these as floats; select names where the first one is.
        lines = [",".join(map(repr, row)) for row in np.random.default_rng(2).normal(size=(30, 6)).tolist()]
        fields = lines[3].split(",")
        fields[2] = special
        lines[3] = ",".join(fields)
        path = tmp_path / "special.csv"
        path.write_text("\n".join(["a,b,c,d,e,f", *lines]) + "\n", encoding="utf-8")
        assert main(["select", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "invalid_input"
        assert f"{path}: line 5, column 3:" in record["message"]
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_a_non_finite_value_after_a_blank_line_names_its_line(self, tmp_path, capsys, quote):
        rows = np.random.default_rng(3).normal(size=(12, 3)).tolist()
        lines = ["a,b,c", *(",".join(map(repr, row)) for row in rows[:4]), "", f"{quote}nan{quote},1,2",
                 *(",".join(map(repr, row)) for row in rows[4:])]
        path = tmp_path / "blank.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["select", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert f"{path}: line 7, column 1: nan is not a finite number" == record["message"]

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

    def test_matrix_risk_under_weighted_scaling_selects_as_observation_risk(self, tmp_path, toy_csv):
        path, _ = toy_csv
        picked = {}
        for risk in ("matrix", "observation"):
            out = tmp_path / risk
            argv = ["select", "--input", str(path), "--scaling", "weighted", "--risk", risk, "--out", str(out)]
            assert main(argv) == 0
            picked[risk] = json.loads((out / "selection_report.json").read_text())["selected_id"]
        assert picked["matrix"] == picked["observation"]

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

    def select_ternary(self, tmp_path, library):
        """``(report, risk table)`` of a ``select`` on ternary data, without warnings or non-JSON constants."""
        path = tmp_path / "ternary.csv"
        write_csv(path, np.random.default_rng(0).integers(-1, 2, size=(40, 6)))
        config = tmp_path / "library.ini"
        config.write_text(library, encoding="utf-8")
        out = tmp_path / "out"
        argv = ["select", "--input", str(path), "--config", str(config), "--no-center", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert [str(w.message) for w in caught] == []

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((out / "selection_report.json").read_text(), parse_constant=reject)
        return report, read_risk_table(out / "risk_table.csv")

    def test_a_non_finite_fit_is_a_failed_candidate(self, tmp_path):
        register_family("nan_fit", lambda ctx, params: np.full_like(ctx.cov, np.nan))
        try:
            report, table = self.select_ternary(
                tmp_path,
                "[candidate.nan_fit]\n\n[candidate.adaptive_lasso]\nthreshold = 0.1\nexponent = 0.5\n\n"
                "[candidate.sample_covariance]\n",
            )
        finally:
            _FAMILIES.pop("nan_fit", None)
        nan_fit = report["candidates"][0]
        assert nan_fit["id"] == "nan_fit"
        assert (nan_fit["cv_risk"], nan_fit["failure"]) == (None, "non-finite estimate")
        assert [(r["index"], r["failure"]) for r in table] == [(1, None), (2, None), (0, "non-finite estimate")]

    def test_adaptive_lasso_at_threshold_zero_ties_the_sample_covariance(self, tmp_path):
        # Ternary data has exact zeros in S, where |s|**-e is infinite.
        report, _ = self.select_ternary(
            tmp_path,
            "[candidate.adaptive_lasso]\nthreshold = 0 0.1\nexponent = 0.5\n\n[candidate.sample_covariance]\n",
        )
        zero, _, sample = report["candidates"]
        assert zero["id"] == "adaptive_lasso(threshold=0.0, exponent=0.5)" and zero["failure"] is None
        assert zero["cv_risk"] == sample["cv_risk"] == 15.813671875
        assert report["selected_id"] == "adaptive_lasso(threshold=0.1, exponent=0.5)"

    @pytest.mark.parametrize("risk", ["matrix", "observation"])
    def test_data_whose_risk_overflows_exits_2(self, tmp_path, toy_csv, capsys, risk):
        _, data = toy_csv
        for scale, code in ((1e70, 0), (1e80, 2)):
            path = tmp_path / f"scaled{scale:g}.csv"
            write_csv(path, data * scale)
            argv = ["select", "--input", str(path), "--risk", risk, "--out", str(tmp_path / "out")]
            capsys.readouterr()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv) == code
            assert [str(w.message) for w in caught] == []
        # The overflow is found before any candidate is fitted or scored,
        # so the error record is all that is written.
        err = capsys.readouterr().err
        record = json.loads(err)
        assert err == json.dumps(record, sort_keys=True) + "\n"
        assert record["error"] == "invalid_input"
        assert "overflows" in record["message"]
        assert f"{float(np.max(np.abs(data * 1e80))):.6g}" in record["message"]

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

    def test_splits_without_pn_exits_2(self, tmp_path, toy_csv, capsys):
        path, _ = toy_csv
        assert main(["select", "--input", str(path), "--out", str(tmp_path), "--splits", "3"]) == 2
        assert "split count (--splits) needs a validation fraction (--pn)" in capsys.readouterr().err

    def test_single_split_flag(self, tmp_path, toy_csv):
        path, _ = toy_csv
        out = tmp_path / "out_single"
        code = main([
            "select", "--input", str(path), "--config", str(singleton_config(tmp_path)),
            "--out", str(out), "--pn", "0.25",
        ])
        assert code == 0
        report = json.loads((out / "selection_report.json").read_text())
        assert report["scheme"] == {"kind": "monte_carlo", "count": 1, "validation_fraction": 0.25, "seed": 3}

    @pytest.mark.parametrize("params", [{}, None])
    def test_json_config_equivalent(self, tmp_path, toy_csv, params):
        path, _ = toy_csv
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "run": {"folds": 5, "seed": 3},
            "candidates": {"sample_covariance": params},
        }), encoding="utf-8")
        out = tmp_path / "out_json"
        assert main(["select", "--input", str(path), "--config", str(config),
                     "--out", str(out)]) == 0
        report = json.loads((out / "selection_report.json").read_text())
        assert report["selected_id"] == "sample_covariance"


#: Families whose fits scale exactly with the data: a power-of-two rescale keeps every selection.
SCALE_FREE_LIBRARY = (
    "[candidate.sample_covariance]\n\n[candidate.banding]\nbands = 1 2\n\n[candidate.tapering]\nbands = 2\n"
)


def tree(out):
    """Every file under ``out``, by its relative path, with its bytes."""
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


@forks_regardless
@pytest.mark.usefixtures("deadline")
class TestSelectOnWorkers:
    def run_at(self, workers, argv, monkeypatch, capsys):
        """``(exit code, stderr, warnings)`` of ``main(argv)`` on ``workers`` processes."""
        pin_workers(monkeypatch, workers)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert_no_child_left()
        return code, capsys.readouterr().err, [str(w.message) for w in caught]

    def test_the_outputs_are_the_same_at_one_and_two_workers(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "data.csv"
        write_csv(path, np.random.default_rng(4).standard_normal((40, 12)))
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            code, _, _ = self.run_at(workers, ["select", "--input", str(path), "--pca", "2", "--out", str(out)],
                                     monkeypatch, capsys)
            assert code == 0
            outputs.append(tree(out))
        assert set(outputs[0]) == {"selection_report.json", "risk_table.csv", "estimate.csv", "scores.csv"}
        assert outputs[1] == outputs[0]

    def test_an_overflow_found_by_a_child_exits_2_as_in_one_process(self, tmp_path, monkeypatch, capsys):
        # 23 rows in 5 folds: only splits 3 and 4 validate on 4 rows, and at two
        # workers a child scores split 3 and this process split 4.
        path = tmp_path / "data.csv"
        write_csv(path, np.random.default_rng(4).standard_normal((23, 4)))
        real = cv_engine._observation_offset
        monkeypatch.setattr(cv_engine, "_observation_offset",
                            lambda val, *args: np.inf if val.shape[0] == 4 else real(val, *args))
        argv = ["select", "--input", str(path), "--out", str(tmp_path / "out")]
        runs = [self.run_at(workers, argv, monkeypatch, capsys) for workers in (1, 2)]
        assert runs[0][0] == 2 and "the observation risk overflows" in json.loads(runs[0][1])["message"]
        assert runs[1] == runs[0] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("risk", ["matrix", "observation"])
    @pytest.mark.parametrize("power, code", [(1e80, 2), (2.0**-260, 2), (2.0**-280, 2)], ids=["1e80", "2^-260", "2^-280"])
    def test_data_out_of_range_exit_2_with_one_record_at_any_worker_count(self, power, code, risk, tmp_path, toy_csv,
                                                                          monkeypatch, capsys):
        _, data = toy_csv
        path = tmp_path / "scaled.csv"
        write_csv(path, data * power)
        out = tmp_path / "out"
        argv = ["select", "--input", str(path), "--risk", risk, "--out", str(out)]
        runs = [self.run_at(workers, argv, monkeypatch, capsys) for workers in (1, 2)]
        exit_code, err, caught = runs[0]
        assert (exit_code, caught) == (code, [])
        record = json.loads(err)
        assert err == json.dumps(record, sort_keys=True) + "\n" and record["error"] == "invalid_input"
        if power < 1:
            magnitudes = np.abs(data * power)
            assert record["message"] == (
                f"the {risk} risk underflows the float range: the data's smallest nonzero |x| is "
                f"{float(magnitudes.min()):.6g} and its largest {float(magnitudes.max()):.6g}; "
                f"rescale the data, by 2**{-math.frexp(float(magnitudes.max()))[1]} say"
            )
        assert runs[1] == runs[0] and not out.exists()

    def test_all_zero_data_are_not_out_of_range(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "zeros.csv"
        write_csv(path, np.zeros((20, 4)))
        out = tmp_path / "out"
        code, err, caught = self.run_at(2, ["select", "--input", str(path), "--out", str(out)], monkeypatch, capsys)
        assert (code, err, caught) == (0, "", [])
        report = json.loads((out / "selection_report.json").read_text())
        assert report["selected_id"] == "sample_covariance"
        assert {c["cv_risk"] for c in report["candidates"] if c["cv_risk"] is not None} == {0.0}

    @pytest.mark.parametrize("risk", ["matrix", "observation"])
    def test_data_at_2_to_the_minus_240_select_as_unscaled(self, risk, tmp_path, toy_csv, monkeypatch, capsys):
        _, data = toy_csv
        config = tmp_path / "library.ini"
        config.write_text(SCALE_FREE_LIBRARY, encoding="utf-8")
        reports = []
        for k in (0, -240):
            path = tmp_path / f"scaled{k}.csv"
            write_csv(path, data * 2.0**k)
            out = tmp_path / f"out{k}"
            code, _, caught = self.run_at(2, ["select", "--input", str(path), "--config", str(config), "--risk", risk,
                                              "--out", str(out)], monkeypatch, capsys)
            assert (code, caught) == (0, [])
            reports.append(json.loads((out / "selection_report.json").read_text()))
        unscaled, scaled = reports
        # In 3 features, banding(1) and tapering(2) have equal estimates, as have banding(2) and S.
        assert len(unscaled["tie_ids"]) == 2
        assert (scaled["selected_id"], scaled["tie_ids"]) == (unscaled["selected_id"], unscaled["tie_ids"])
        # Every risk scales by 2**(4k), exactly.
        assert [c["cv_risk"] for c in scaled["candidates"]] == [
            math.ldexp(c["cv_risk"], -960) for c in unscaled["candidates"]
        ]


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

    def test_a_row_of_the_wrong_width_is_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("model,n,J,ratio,replication,subject,metric,value,seed\n2,50,25\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="does not have 9 columns"):
            read_results_csv(path)

    def test_results_roundtrip_identical(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--profile", "smoke", "--seed", "4", "--out", str(out)]) == 0
        rows = read_results_csv(out / "results.csv")
        copy = tmp_path / "copy.csv"
        from covsel.cli import write_results_csv

        write_results_csv(copy, rows)
        assert copy.read_bytes() == (out / "results.csv").read_bytes()
        assert read_results_csv(copy) == rows
        copy.write_bytes(b"\xef\xbb\xbf" + copy.read_bytes())  # as a spreadsheet re-saves it
        assert read_results_csv(copy) == rows

    def test_summary_bound_section(self, tmp_path):
        out = tmp_path / "run2"
        assert main(["simulate", "--profile", "smoke", "--seed", "2", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["candidates"] == 73
        assert (summary["schema_version"], summary["skipped"]) == (5, [])
        assert "selector_risk" not in summary["config"]
        cell = summary["cells"][0]
        bound = cell["bound"]
        assert set(bound) == {"delta", "m1", "m2", "rhs", "mean_selected", "slack"}
        assert bound["mean_selected"] == cell["cv_risk_diff_mean_selected"]
        assert bound["slack"] == bound["rhs"] / bound["mean_selected"] and bound["slack"] >= 1.0
        assert cell["cv_ratio_of_means"] >= 1.0 - 1e-9

    def test_a_cell_that_fails_on_its_data_is_listed_as_skipped(self, tmp_path, monkeypatch):
        import covsel.simulation as simulation

        run_rep = simulation._run_rep

        def fail_at_n_40(config, library, cell, *args):
            if cell[1] == 40:
                raise np.linalg.LinAlgError("injected")
            return run_rep(config, library, cell, *args)

        monkeypatch.setattr(simulation, "_run_rep", fail_at_n_40)
        config = tmp_path / "sim.ini"
        config.write_text(
            "[experiment]\nmodels = 4\nn = 30 40\nratio = 0.5\nreplications = 1\nmetrics = frobenius\n\n"
            "[candidate.sample_covariance]\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["skipped"] == [{"model": 4, "n": 40, "ratio": 0.5, "reason": "LinAlgError: injected"}]
        assert [(cell["model"], cell["n"]) for cell in summary["cells"]] == [(4, 30)]
        assert {r.n for r in read_results_csv(out / "results.csv")} == {30}

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



class _Stop(Exception):
    pass


@pytest.mark.parametrize("command, runner", [("simulate", "run_experiment"), ("bench", "run_benchmark")])
def test_full_profile_from_a_config_file_warns(tmp_path, monkeypatch, caplog, command, runner):
    import logging

    import covsel.cli as cli

    def stop(config):
        raise _Stop

    monkeypatch.setattr(cli, runner, stop)
    config = tmp_path / "full.ini"
    config.write_text("[experiment]\nprofile = full\n", encoding="utf-8")
    args = cli.build_parser().parse_args([command, "--config", str(config), "--out", str(tmp_path)])
    with caplog.at_level(logging.WARNING, logger="covsel.cli"), pytest.raises(_Stop):
        args.func(args)
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

    def test_a_cell_that_fails_on_its_data_exits_4(self, tmp_path, monkeypatch):
        import covsel.simulation as simulation

        replications = simulation._replications

        def fail_at_n_40(config, model, n, *cell):
            if n == 40:
                raise np.linalg.LinAlgError("injected")
            return replications(config, model, n, *cell)

        monkeypatch.setattr(simulation, "_replications", fail_at_n_40)
        config = tmp_path / "bench.ini"
        config.write_text(
            "[experiment]\nmodels = 4\nn = 30 40\nratio = 0.5\nreplications = 1\nmetrics = frobenius\n\n"
            "[candidate.sample_covariance]\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["bench", "--config", str(config), "--out", str(out)]) == 4
        assert {r.n for r in read_results_csv(out / "results.csv")} == {30}
        assert {entry["n"] for entry in read_benchmark_table(out / "bench_table.csv")} == {30}

    def test_bench_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["bench", "--profile", "smoke", "--seed", "1", "--out", str(out)]) == 0
        assert (out_a / "bench_table.csv").read_bytes() == (out_b / "bench_table.csv").read_bytes()


def dense_symmetric(dim, seed=0):
    """A random matrix that equals its transpose bit for bit, with no zero entries."""
    a = np.random.default_rng([seed, dim]).standard_normal((dim, dim))
    return np.triu(a) + np.triu(a, 1).T


def signed_zero_pair_with_nans():
    """Dense and symmetric by value, but a -0.0/0.0 mirror pair breaks bit symmetry."""
    m = dense_symmetric(6)
    m[0, 1], m[1, 0] = -0.0, 0.0
    m[2, 4] = m[4, 2] = np.nan
    m[3, 5] = m[5, 3] = np.nan
    return m


def near_density_cut(above):
    """A 20 x 20 banded matrix with 100 nonzeros, the cut of a quarter, or 98."""
    m = dense_symmetric(20)
    distance = np.abs(np.subtract.outer(np.arange(20), np.arange(20)))
    m[distance > 2] = 0.0  # 94 nonzeros
    for k in range(3 if above else 2):
        m[0, 10 + k] = m[10 + k, 0] = 0.5 + k
    assert np.count_nonzero(m) == (100 if above else 98)
    return m


@pytest.mark.parametrize(
    "matrix",
    [
        [[1.0, -0.0], [0.0, 2.0]],
        [[-0.0, 1e22, 5e-324], [1e22, np.nan, -0.0], [5e-324, -0.0, 0.1]],
        [[0.1, 0.2, 0.3], [0.2, 0.5, 0.6], [0.3, 0.7, 0.9]],
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        dense_symmetric(2),
        dense_symmetric(3),
        dense_symmetric(70),
        dense_symmetric(300),
        signed_zero_pair_with_nans(),
        near_density_cut(above=True),
        near_density_cut(above=False),
    ],
    ids=[
        "signed-zero-pair", "symmetric-special-values", "nonsymmetric", "wide",
        "dense-2", "dense-3", "dense-70", "dense-300", "signed-zero-pair-with-nans",
        "at-density-cut", "below-density-cut",
    ],
)
def test_matrix_csv_is_each_entry_repr_row_by_row(tmp_path, matrix):
    matrix = np.array(matrix)
    path = tmp_path / "m.csv"
    _write_matrix(path, matrix, comment="J=3")
    expected = "# J=3\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)
    assert path.read_bytes() == expected.encode("utf-8")


def test_dense_bit_symmetric_matrices_are_the_mirrored_ones():
    for dim in (1, 2, 3, 70, 300):
        assert _is_dense_bit_symmetric(dense_symmetric(dim))
    assert _is_dense_bit_symmetric(near_density_cut(above=True))
    assert not _is_dense_bit_symmetric(near_density_cut(above=False))
    assert not _is_dense_bit_symmetric(signed_zero_pair_with_nans())
    nans = dense_symmetric(5)
    nans[1, 3] = nans[3, 1] = np.nan
    assert _is_dense_bit_symmetric(nans)
    assert not _is_dense_bit_symmetric(dense_symmetric(4).astype(np.float32))
    assert not _is_dense_bit_symmetric(np.ones((2, 3)))


@pytest.mark.parametrize(
    "matrix",
    [
        dense_symmetric(40),
        signed_zero_pair_with_nans(),
        near_density_cut(above=False),
        np.array([[-0.0, np.inf], [np.inf, -np.inf]]),
        np.arange(9.0).reshape(3, 3),
    ],
    ids=["dense", "signed-zero-pair-with-nans", "banded", "infinities", "nonsymmetric"],
)
def test_estimate_csv_round_trips_bit_for_bit(tmp_path, matrix):
    path = tmp_path / "estimate.csv"
    _write_matrix(path, matrix, comment=f"J={matrix.shape[0]} selected=x")
    got, dim, selected = read_estimate_csv(path)
    assert (dim, selected) == (matrix.shape[0], "x")
    assert got.tobytes() == matrix.tobytes()


def test_estimate_csv_with_a_byte_order_mark_reads_the_same(tmp_path):
    matrix = dense_symmetric(3)
    path = tmp_path / "estimate.csv"
    _write_matrix(path, matrix, comment="J=3 selected=x")
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    got, dim, selected = read_estimate_csv(path)
    assert (dim, selected) == (3, "x") and got.tobytes() == matrix.tobytes()


def reference_read_numeric_csv(path, delimiter=",", header="auto"):
    """``read_numeric_csv`` as it read every row with ``csv.reader`` and kept each field stripped.

    Errors name the file line a row starts on.
    """
    if header not in ("auto", "yes", "no"):
        raise ConfigError(f"header must be auto/yes/no, got {header!r}")
    path = Path(path)
    rows: list[list[str]] = []
    lines: list[int] = []
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        start = 1
        for fields in reader:
            line, start = start, reader.line_num + 1
            if not fields or all(not f.strip() for f in fields):
                continue
            rows.append([f.strip() for f in fields])
            lines.append(line)
    if not rows:
        raise ConfigError(f"{path}: no data rows")

    names = None
    first = rows[0]
    if header == "yes":
        names, rows, lines = first, rows[1:], lines[1:]
    elif header == "auto":
        try:
            [float(f) for f in first]
        except ValueError:
            names, rows, lines = first, rows[1:], lines[1:]
    if not rows:
        raise ConfigError(f"{path}: header only, no data rows")

    width = len(rows[0])
    values = np.empty((len(rows), width))
    for i, fields in enumerate(rows):
        if len(fields) != width:
            raise ConfigError(
                f"{path}: ragged row at line {lines[i]}: "
                f"expected {width} columns, got {len(fields)}"
            )
        try:
            values[i] = [float(f) for f in fields]
        except ValueError:
            for j, f in enumerate(fields):
                try:
                    float(f)
                except ValueError:
                    raise ConfigError(
                        f"{path}: line {lines[i]}, column {j + 1}: "
                        f"cannot parse {f!r} as a number"
                    ) from None
            raise
    if names is not None and len(names) != width:
        raise ConfigError(f"{path}: header has {len(names)} columns, data rows have {width}")
    return values, names


def outcome(reader, path, delimiter, header):
    """``(values' shape and bytes, names)`` or the ConfigError message."""
    try:
        values, names = reader(path, delimiter=delimiter, header=header)
    except ConfigError as exc:
        return str(exc)
    return values.shape, values.dtype, values.tobytes(), names


#: Input texts written with "," as the delimiter; each is also read with
#: ";" and tab swapped in.
READER_INPUTS = {
    "crlf": "a,b\r\n1.5,2\r\n3,-4e-3\r\n",
    "lone-cr": "a,b\r1.5,2\r3,4\n5,6\r\n",
    "quoted": '"a","b"\n"1.5",2\n3,"4"\n',
    "quoted-delimiter": 'a,b\n"1,5",2\n',
    "padded": " a ,\tb\t\n 1.5 , 2\t\n\t3,4 \n",
    "blank-and-delimiter-only": "\n , \n,\na,b\n\n1,2\n,\n\t\n3,4\n\n",
    "headerless": "1,2\n3,4\n",
    "numeric-header": "1,2\n",
    "header-only": "\na,b\n,\n",
    "empty": "\n,\n \n",
    "underscores": "1_000,2\n3,4_5.5\n",
    "specials": "nan,-inf\n1e308,-0.0\n",
    "ragged-after-header": "a,b\n\n,\n1,2\n\n3\n",
    "unparsable-after-header": "a,b\n\n \n1,2\n3, oops \n",
    "quoted-across-lines": 'a,b\n"1\n",2\n\n3,"oops"\n',
    "narrow-header": "a\n1,2\n",
    "no-trailing-newline": "a,b\n1,2\n3,4",
}


@pytest.mark.parametrize("name", sorted(READER_INPUTS))
def test_reader_matches_the_csv_reader_reference(tmp_path, name):
    for delimiter in (",", ";", "\t"):
        path = tmp_path / "in.csv"
        path.write_bytes(READER_INPUTS[name].replace(",", delimiter).encode("utf-8"))
        for header in ("auto", "yes", "no"):
            want = outcome(reference_read_numeric_csv, path, delimiter, header)
            assert outcome(read_numeric_csv, path, delimiter, header) == want, (delimiter, header)
