"""Command-line surface: ``select`` on CSV data, ``simulate``, and ``bench``.

Configuration comes from an INI-style file (flat ``key = value`` entries
grouped in sections) or an equivalent JSON document; command-line flags
override file settings.  All outputs are deterministic functions of the
configuration and seed, and every CSV written here can be read back with
the readers in this module.

Exit codes: 0 success, 2 invalid input or configuration, 3 total
estimation failure.  Errors are also emitted as single-line JSON records
on standard error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import itertools
import json
import logging
import math
import sys
from array import array
from pathlib import Path

import numpy as np

from .cv_engine import MonteCarloSplit, SingleSplit, VFold, select
from .errors import ConfigError, DegenerateFeatureError, EstimationError, SelectionError
from .estimators import CandidateLibrary, expand_grid, library_preset
from .loss_risk import BoundParams, finite_sample_bound
from .matrix_core import eigendecompose
from .simulation import (
    ExperimentConfig,
    ResultRow,
    run_benchmark,
    run_experiment,
    summarize_ratios,
)

__all__ = [
    "main",
    "read_numeric_csv",
    "read_estimate_csv",
    "read_results_csv",
    "read_risk_table",
    "read_benchmark_table",
]

logger = logging.getLogger(__name__)

#: Format versions of ``selection_report.json`` (2: ``psd`` is flagged for
#: the winner and its ties only) and of the ``simulate`` ``summary.json``
#: (2: ``full_risk_diff`` is scaled by the oracle's eta, as
#: ``cv_risk_diff`` is).
SCHEMA_VERSION = 2
SUMMARY_SCHEMA_VERSION = 2

_PROFILES = {
    "smoke": {"models": (2,), "sample_sizes": (50,), "ratios": (0.5,), "replications": 2},
    "desk": {"models": (2,), "sample_sizes": (50, 200), "ratios": (1.0,), "replications": 50},
    "full": {
        "models": tuple(range(1, 9)),
        "sample_sizes": (50, 100, 200, 500),
        "ratios": (0.3, 0.5, 1.0, 2.0, 5.0),
        "replications": 200,
    },
}

_BENCH_PROFILES = {
    "smoke": {"models": (3,), "sample_sizes": (50,), "ratios": (0.5,), "replications": 2},
    "desk": {"models": (3,), "sample_sizes": (200,), "ratios": (1.0,), "replications": 20},
    "full": _PROFILES["full"],
}


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _error_record(code: str, message: str, **details) -> None:
    record = {"error": code, "message": message}
    record.update(details)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------


def _normalize_delimiter(value: str) -> str:
    if value in ("\\t", "tab"):
        return "\t"
    if len(value) != 1:
        raise ConfigError(f"delimiter must be a single character, got {value!r}")
    return value


def read_numeric_csv(path, delimiter: str = ",", header: str = "auto"):
    """Read a numeric CSV into ``(matrix, column_names)``.

    Rows are observations.  ``header`` is ``"auto"`` (treat the first row
    as a header when it does not parse as numbers), ``"yes"``, or
    ``"no"``.  Ragged rows and unparsable fields raise
    :class:`ConfigError` with row/column diagnostics.
    """
    if header not in ("auto", "yes", "no"):
        raise ConfigError(f"header must be auto/yes/no, got {header!r}")
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        text = handle.read()
    return _parse_rows(path, _split_rows(text, delimiter), header)


def _split_rows(text: str, delimiter: str):
    """The fields of each line of ``text``, split as ``csv.reader`` splits them.

    Without quotes or carriage returns other than CRLF line ends, that is
    ``str.split``: a CR left at a line's end is whitespace, which
    ``float`` and the blank-row test ignore.  Otherwise ``csv.reader``
    splits the text.
    """
    crs = text.count("\r")
    if '"' in text or (crs and (delimiter == "\r" or crs != text.count("\r\n"))):
        return csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    return (line.split(delimiter) for line in text.split("\n"))


def _parse_rows(path, rows, header: str):
    """``(matrix, column_names)`` from the field lists ``rows``; blank rows are skipped.

    Each data row is converted as it comes, straight into one buffer of
    doubles.  Fields may carry surrounding whitespace, which ``float``
    ignores; header names and error messages show them stripped.
    """
    rows = (fields for fields in rows if any(map(str.strip, fields)))
    first = next(rows, None)
    if first is None:
        raise ConfigError(f"{path}: no data rows")
    names = None
    if header == "yes":
        names = first
    elif header == "auto":
        try:
            [float(f) for f in first]
        except ValueError:
            names = first
    if names is not None:
        names = [f.strip() for f in names]
        first = next(rows, None)
        if first is None:
            raise ConfigError(f"{path}: header only, no data rows")

    width = len(first)
    values = array("d")
    for i, fields in enumerate(itertools.chain([first], rows), start=1 + (names is not None)):
        if len(fields) != width:
            raise ConfigError(f"{path}: ragged row {i}: expected {width} columns, got {len(fields)}")
        try:
            values.extend(map(float, fields))
        except ValueError:
            for j, f in enumerate(fields):
                try:
                    float(f)
                except ValueError:
                    raise ConfigError(
                        f"{path}: row {i}, column {j + 1}: cannot parse {f.strip()!r} as a number"
                    ) from None
            raise
    if names is not None and len(names) != width:
        raise ConfigError(f"{path}: header has {len(names)} columns, data rows have {width}")
    return np.frombuffer(values).reshape(-1, width), names


def _write_csv_rows(path, rows) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerows(rows)


def _write_matrix(path, matrix, column_names=None, comment: str | None = None) -> None:
    """Write ``matrix`` as CSV, each entry its ``repr``, one row per line.

    A square float matrix that is bit-for-bit symmetric and at least a
    quarter nonzero has each pair ``(j, l)``, ``(l, j)`` formatted once
    (:func:`_write_mirrored`); any other matrix is formatted row by row.
    Both write the same bytes.
    """
    matrix = np.atleast_2d(matrix)
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        if comment is not None:
            handle.write(f"# {comment}\n")
        if column_names is not None:
            csv.writer(handle, lineterminator="\n").writerow(column_names)
        if _is_dense_bit_symmetric(matrix):
            _write_mirrored(handle, matrix)
            return
        # repr of a float never needs CSV quoting, so each row is one join.
        for row in matrix:
            handle.write(",".join(map(repr, row.tolist())) + "\n")


def _is_dense_bit_symmetric(matrix: np.ndarray) -> bool:
    """Square float64, at least a quarter nonzero, and equal to its transpose bit for bit.

    Comparing bits, not values, tells ``-0.0`` from ``0.0`` and matches
    NaNs, so mirrored entries have the same ``repr``.
    """
    if matrix.dtype != np.float64 or matrix.shape[0] != matrix.shape[1]:
        return False
    if 4 * np.count_nonzero(matrix) < matrix.size:
        return False  # mostly zeros: the row loop is faster
    bits = matrix.view(np.uint64)
    return bool(np.array_equal(bits, bits.T))


def _write_mirrored(handle, matrix: np.ndarray) -> None:
    """Write a bit-symmetric matrix, formatting each entry at or right of its row band once.

    A band of rows is formatted from its first column on.  Its strings
    right of the band, transposed, become one joined segment per later
    row, which is where that row's line begins.  Bands of about
    ``sqrt(J) / 2`` rows balance what a band formats twice, its own lower
    triangle (about ``J**1.5 / 4`` entries in all), against the number of
    segments (about ``J**1.5``).  The segments held at once cover the
    entries above the current band and right of it, at most ``J**2 / 4``.
    """
    dim = matrix.shape[0]
    band = max(1, math.isqrt(dim) // 2)
    left: list = [[] for _ in range(dim)]  # per row, the joined segments of the bands above it
    for start in range(0, dim, band):
        stop = min(start + band, dim)
        rows = [list(map(repr, row)) for row in matrix[start:stop, start:].tolist()]
        for i, strings in enumerate(rows, start=start):
            head, left[i] = left[i], None
            head.extend(strings)
            handle.write(",".join(head) + "\n")
        segments = map(",".join, zip(*[strings[stop - start :] for strings in rows]))
        for head, segment in zip(left[stop:], segments):
            head.append(segment)


def read_estimate_csv(path):
    """Read an ``estimate.csv`` back into ``(matrix, dim, selected_id)``."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        first = handle.readline().rstrip("\n")
        if not first.startswith("# J="):
            raise ConfigError(f"{path}: missing estimate header line")
        meta = first[2:]
        dim_part, _, selected = meta.partition(" selected=")
        dim = int(dim_part[len("J=") :])
        matrix, _ = _parse_rows(path, _split_rows(handle.read(), ","), "no")
    if matrix.shape != (dim, dim):
        raise ConfigError(f"{path}: expected a {dim}x{dim} matrix, got {matrix.shape}")
    return matrix, dim, selected


_RESULT_COLUMNS = ("model", "n", "J", "ratio", "replication", "subject", "metric", "value", "seed")


def write_results_csv(path, rows) -> None:
    out = [list(_RESULT_COLUMNS)]
    for row in rows:
        out.append(
            [
                str(row.model), str(row.n), str(row.dim), _fmt_float(row.ratio),
                str(row.replication), row.subject, row.metric,
                _fmt_float(row.value), str(row.seed),
            ]
        )
    _write_csv_rows(path, out)


def _read_rows(path, columns: tuple[str, ...], kind: str) -> list[list[str]]:
    """The non-blank rows of a CSV whose header must be ``columns``."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != columns:
            raise ConfigError(f"{path}: unexpected {kind} header {header}")
        return [fields for fields in reader if fields]


def read_results_csv(path) -> list[ResultRow]:
    return [
        ResultRow(
            model=int(fields[0]), n=int(fields[1]), dim=int(fields[2]),
            ratio=float(fields[3]), replication=int(fields[4]),
            subject=fields[5], metric=fields[6],
            value=float(fields[7]), seed=int(fields[8]),
        )
        for fields in _read_rows(path, _RESULT_COLUMNS, "results")
    ]


def _params_string(params: dict) -> str:
    return "; ".join(f"{k}={v}" for k, v in params.items())


_RISK_COLUMNS = ("index", "id", "family", "hyperparameters", "cv_risk", "psd", "selected", "failure")


def write_risk_table(path, report) -> None:
    ranked = sorted(
        report.candidates,
        key=lambda c: (c.cv_risk is None, c.cv_risk if c.cv_risk is not None else 0.0, c.index),
    )
    out = [list(_RISK_COLUMNS)]
    for cand in ranked:
        out.append(
            [
                str(cand.index), cand.id, cand.family, _params_string(cand.params),
                "" if cand.cv_risk is None else _fmt_float(cand.cv_risk),
                "" if cand.psd is None else str(cand.psd).lower(),
                str(cand.index == report.selected_index).lower(),
                cand.failure or "",
            ]
        )
    _write_csv_rows(path, out)


def read_risk_table(path) -> list[dict]:
    return [
        {
            "index": int(fields[0]), "id": fields[1], "family": fields[2],
            "hyperparameters": fields[3],
            "cv_risk": float(fields[4]) if fields[4] else None,
            "psd": None if not fields[5] else fields[5] == "true",
            "selected": fields[6] == "true",
            "failure": fields[7] or None,
        }
        for fields in _read_rows(path, _RISK_COLUMNS, "risk-table")
    ]


_BENCH_COLUMNS = ("model", "n", "J", "ratio", "procedure", "metric", "mean", "replications")


def write_benchmark_table(path, table) -> None:
    out = [list(_BENCH_COLUMNS)]
    for entry in table:
        out.append(
            [
                str(entry["model"]), str(entry["n"]), str(entry["J"]), _fmt_float(entry["ratio"]),
                entry["procedure"], entry["metric"], _fmt_float(entry["mean"]),
                str(entry["replications"]),
            ]
        )
    _write_csv_rows(path, out)


def read_benchmark_table(path) -> list[dict]:
    return [
        {
            "model": int(fields[0]), "n": int(fields[1]), "J": int(fields[2]),
            "ratio": float(fields[3]), "procedure": fields[4], "metric": fields[5],
            "mean": float(fields[6]), "replications": int(fields[7]),
        }
        for fields in _read_rows(path, _BENCH_COLUMNS, "benchmark")
    ]


def _write_json(path, payload) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------


def load_config(path) -> dict:
    """Load an INI-style or JSON config into ``{section: {key: value}}``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    stripped = text.lstrip()
    if path.suffix == ".json" or stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: top-level JSON value must be an object")
        return payload
    parser = configparser.ConfigParser(allow_no_value=True)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: invalid config: {exc}") from exc
    return {
        section: {key: (value if value is not None else "") for key, value in parser[section].items()}
        for section in parser.sections()
    }


def _tokens(value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    return str(value).replace(",", " ").split()


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse {value!r} as a boolean")


def _as_number(token):
    if isinstance(token, (int, float)) and not isinstance(token, bool):
        return token
    text = str(token)
    try:
        if any(c in text for c in ".eE") and not text.lstrip("+-").isdigit():
            return float(text)
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"cannot parse {token!r} as a number") from None


def _setting(cli_value, section: dict, key: str, default):
    if cli_value is not None:
        return cli_value
    if key in section:
        return section[key]
    return default


def library_from_config(config: dict) -> CandidateLibrary | None:
    """Build a candidate library from config sections, or None if absent.

    A ``[library]`` section may name a ``preset`` (default/wide/light);
    ``[candidate.<family>]`` sections append grid expansions, e.g.::

        [candidate.hard_threshold]
        threshold = 0.1 0.2 0.3
    """
    preset_name = None
    library_section = config.get("library", {})
    if "preset" in library_section:
        preset_name = str(library_section["preset"]).strip()
    declarations = []
    for section, body in config.items():
        if not section.startswith("candidate."):
            continue
        family = section[len("candidate.") :]
        params = {key: [_as_number(v) for v in _tokens(value)] for key, value in body.items()}
        declarations.append((family, params))
    if isinstance(config.get("candidates"), dict):
        for family, params in config["candidates"].items():
            declarations.append(
                (family, {key: [_as_number(v) for v in _tokens(value)] for key, value in (params or {}).items()})
            )

    if preset_name is None and not declarations:
        return None
    specs = list(library_preset(preset_name)) if preset_name else []
    for family, params in declarations:
        specs.extend(expand_grid(family, **params))
    return CandidateLibrary(tuple(specs))


def _scheme_from_settings(args, section: dict):
    seed = int(_setting(args.seed, section, "seed", 0))
    pn = _setting(getattr(args, "pn", None), section, "pn", None)
    splits = _setting(getattr(args, "splits", None), section, "splits", None)
    folds = _setting(getattr(args, "folds", None), section, "folds", None)
    if pn is not None:
        fraction = float(pn)
        if splits is not None:
            return MonteCarloSplit(count=int(splits), validation_fraction=fraction, seed=seed)
        return SingleSplit(validation_fraction=fraction, seed=seed)
    if splits is not None:
        raise ConfigError("--splits requires --pn")
    return VFold(folds=int(folds) if folds is not None else 5, seed=seed)


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def cmd_select(args) -> int:
    config = load_config(args.config) if args.config else {}
    run = config.get("run", {})

    input_path = _setting(args.input, run, "input", None)
    if input_path is None:
        raise ConfigError("an input CSV is required (--input or [run] input)")
    delimiter = _normalize_delimiter(str(_setting(args.delimiter, run, "delimiter", ",")))
    header = str(_setting(args.header, run, "header", "auto"))
    scaling = str(_setting(args.scaling, run, "scaling", "one"))
    risk = str(_setting(args.risk, run, "risk", "observation"))
    center = False if args.no_center else _as_bool(run.get("center", True))
    pca = int(_setting(args.pca, run, "pca", 0))
    out_dir = Path(_setting(args.out, run, "out", "."))
    scheme = _scheme_from_settings(args, run)

    library = library_from_config(config)
    if library is None:
        library = library_preset("default")

    data, _ = read_numeric_csv(input_path, delimiter=delimiter, header=header)
    if pca < 0:
        raise ConfigError(f"--pca must be nonnegative, got {pca}")
    if pca > data.shape[1]:
        raise ConfigError(f"--pca {pca} exceeds the number of features {data.shape[1]}")

    report = select(library, data, scheme, scaling=scaling, risk=risk, center=center)

    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "select",
        "n": report.n_obs,
        "J": report.dim,
        "selected_id": report.selected_id,
        "selected_index": report.selected_index,
        "tie_ids": list(report.tie_ids),
        "scheme": report.scheme,
        "seed": report.seed,
        "scaling": report.scaling,
        "risk": report.risk,
        "centered": report.centered,
        "warnings": list(report.warnings),
        "candidates": [
            {
                "index": c.index,
                "id": c.id,
                "family": c.family,
                "hyperparameters": c.params,
                "cv_risk": c.cv_risk,
                "psd": c.psd,
                "failure": c.failure,
                "selected": c.index == report.selected_index,
            }
            for c in report.candidates
        ],
    }
    _write_json(out_dir / "selection_report.json", payload)
    write_risk_table(out_dir / "risk_table.csv", report)
    _write_matrix(
        out_dir / "estimate.csv",
        report.estimate,
        comment=f"J={report.dim} selected={report.selected_id}",
    )
    if pca > 0:
        centered = data - data.mean(axis=0, keepdims=True) if center else data
        eig = eigendecompose(report.estimate)
        scores = centered @ eig.eigenvectors[:, :pca]
        _write_matrix(
            out_dir / "scores.csv",
            scores,
            column_names=[f"pc{j + 1}" for j in range(pca)],
        )
    logger.info("selected %s (cv risk %s)", report.selected_id,
                payload["candidates"][report.selected_index]["cv_risk"])
    return 0


# ---------------------------------------------------------------------------
# simulate / bench
# ---------------------------------------------------------------------------


def _experiment_from_settings(args, config: dict, profiles: dict, default_metrics) -> ExperimentConfig:
    section = config.get("experiment", {})
    profile_name = getattr(args, "profile", None) or section.get("profile")
    grid = dict(profiles["smoke"])
    if profile_name:
        if profile_name not in profiles:
            raise ConfigError(f"unknown profile {profile_name!r}; known: {sorted(profiles)}")
        grid = dict(profiles[profile_name])

    models = tuple(int(v) for v in _tokens(section["models"])) if "models" in section else grid["models"]
    sizes = tuple(int(v) for v in _tokens(section["n"])) if "n" in section else grid["sample_sizes"]
    ratios = tuple(float(v) for v in _tokens(section["ratio"])) if "ratio" in section else grid["ratios"]
    replications = int(section.get("replications", grid["replications"]))
    metrics = tuple(_tokens(section["metrics"])) if "metrics" in section else tuple(default_metrics)
    folds = int(_setting(args.folds, section, "folds", 5))
    fraction = _setting(args.pn, section, "pn", None)
    split_count = _setting(args.splits, section, "splits", None)
    seed = int(_setting(args.seed, section, "seed", 0))
    scaling = str(section.get("scaling", "one"))
    risk = str(section.get("risk", "matrix"))
    center = _as_bool(section.get("center", False))
    fix_model = _as_bool(section.get("fix_model", False))

    return ExperimentConfig(
        models=models,
        sample_sizes=sizes,
        ratios=ratios,
        replications=replications,
        folds=folds,
        validation_fraction=None if fraction is None else float(fraction),
        split_count=None if split_count is None else int(split_count),
        metrics=metrics,
        seed=seed,
        scaling=scaling,
        selector_risk=risk,
        center=center,
        fix_model=fix_model,
        library=library_from_config(config),
    )


def _config_echo(config: ExperimentConfig) -> dict:
    """Every config field, with the library as its candidate count."""
    echo = {f.name: getattr(config, f.name) for f in dataclasses.fields(config) if f.name != "library"}
    echo["candidates"] = len(config.resolve_library())
    return echo


def _warn_if_large(config: ExperimentConfig, profile: str | None) -> None:
    if profile == "full":
        logger.warning(
            "large grid: %d cells x %d replications; expect a long runtime",
            len(config.cells()), config.replications,
        )


def cmd_simulate(args) -> int:
    config_file = load_config(args.config) if args.config else {}
    config = _experiment_from_settings(
        args, config_file, _PROFILES,
        default_metrics=("cv_ratio", "full_ratio", "frobenius", "spectral"),
    )
    _warn_if_large(config, args.profile)
    out_dir = Path(args.out or config_file.get("run", {}).get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run_experiment(config)
    write_results_csv(out_dir / "results.csv", result.rows)

    summary = summarize_ratios(result.rows, metrics=config.metrics)
    stats_by_cell = {(s.model, s.n, s.dim, s.ratio): s for s in result.cells}
    for cell in summary["cells"]:
        stats = stats_by_cell.get((cell["model"], cell["n"], cell["J"], cell["ratio"]))
        if stats is None or "cv_risk_diff_mean_oracle" not in cell:
            continue
        params = BoundParams(
            delta=1.0,
            m1=stats.max_sq_observation,
            m2=stats.max_abs_estimate,
            dim=stats.dim,
            n_candidates=stats.n_candidates,
            n_obs=stats.n,
            validation_fraction=stats.validation_fraction,
        )
        bound = finite_sample_bound(params, cell["cv_risk_diff_mean_oracle"])
        cell["bound"] = {
            "delta": 1.0,
            "m1": stats.max_sq_observation,
            "m2": stats.max_abs_estimate,
            "m_bar": bound.m_bar,
            "c_value": bound.c_value,
            "bound_term": bound.bound_term,
            "rhs": bound.rhs,
            "mean_selected": cell["cv_risk_diff_mean_selected"],
            "holds": cell["cv_risk_diff_mean_selected"] <= bound.rhs,
            "note": "m1/m2 are empirical plug-ins, not almost-sure bounds",
        }
    payload = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "command": "simulate",
        "config": _config_echo(config),
        "cells": summary["cells"],
    }
    _write_json(out_dir / "summary.json", payload)
    logger.info("wrote %d result rows across %d cells", len(result.rows), len(result.cells))
    return 0


def cmd_bench(args) -> int:
    config_file = load_config(args.config) if args.config else {}
    config = _experiment_from_settings(
        args, config_file, _BENCH_PROFILES, default_metrics=("frobenius", "spectral")
    )
    _warn_if_large(config, args.profile)
    out_dir = Path(args.out or config_file.get("run", {}).get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run_benchmark(config)
    write_results_csv(out_dir / "results.csv", result.rows)
    write_benchmark_table(out_dir / "bench_table.csv", result.table)
    logger.info("benchmarked %d procedures over %d cells", len(result.procedures), len(config.cells()))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI or JSON config file")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--folds", type=int, help="V-fold cross-validation (default 5)")
    parser.add_argument("--pn", type=float, help="validation fraction for split-based CV")
    parser.add_argument("--splits", type=int, help="number of random splits (with --pn)")
    parser.add_argument("--out", help="output directory (default current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covsel",
        description="Cross-validated covariance estimator selection, simulation, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="select an estimator for a CSV dataset")
    _add_common(p_select)
    p_select.add_argument("--input", help="input CSV (rows = observations)")
    p_select.add_argument("--delimiter", help="field delimiter (default ',')")
    p_select.add_argument("--header", choices=("auto", "yes", "no"), help="header handling")
    p_select.add_argument("--scaling", choices=("one", "inv_J", "inv_J2", "weighted"))
    p_select.add_argument("--risk", choices=("observation", "matrix"))
    p_select.add_argument("--pca", type=int, help="export this many PCA score columns")
    p_select.add_argument("--no-center", action="store_true", help="skip column centering")
    p_select.set_defaults(func=cmd_select)

    p_sim = sub.add_parser("simulate", help="run the Monte-Carlo experiment grid")
    _add_common(p_sim)
    p_sim.add_argument("--profile", choices=("smoke", "desk", "full"))
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="norm benchmark against per-family tuning")
    _add_common(p_bench)
    p_bench.add_argument("--profile", choices=("smoke", "desk", "full"))
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except SelectionError as exc:
        _error_record("selection_failed", str(exc))
        return 3
    except EstimationError as exc:
        _error_record("estimation_failed", str(exc))
        return 3
    except (ConfigError, DegenerateFeatureError) as exc:
        _error_record("invalid_input", str(exc))
        return 2
    except (OSError, ValueError) as exc:
        _error_record("invalid_input", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
