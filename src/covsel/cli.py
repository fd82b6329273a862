"""Command-line surface: ``select`` on CSV data, ``simulate``, and ``bench``.

Configuration comes from an INI-style file (flat ``key = value`` entries
grouped in sections) or an equivalent JSON document; command-line flags
override file settings.  All outputs are deterministic functions of the
configuration and seed, and every CSV written here can be read back with
the readers in this module.

Exit codes: 0 success, 2 invalid input or configuration, 3 total
estimation failure, 4 a ``simulate`` or ``bench`` run that skipped a cell
which failed on its data (the other cells' outputs are written).  Errors
are also emitted as single-line JSON records on standard error.
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

from .cv_engine import scheme_description, select, split_scheme, validation_fraction
from .errors import ConfigError, DegenerateFeatureError, EstimationError, SelectionError
from .estimators import CandidateLibrary, expand_grid, library_preset
from .loss_risk import SCALING_POLICIES, BoundParams, finite_sample_bound
from .matrix_core import center_columns, eigendecompose
from .simulation import (
    _BENCH_METRICS,
    _METRICS,
    ExperimentConfig,
    ResultRow,
    _check_metrics,
    _safe_ratio,
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
#: the winner and its ties only; 3: one random split is a ``monte_carlo``
#: scheme with ``count`` 1) and of the ``simulate`` ``summary.json``
#: (2: ``full_risk_diff`` is scaled by the oracle's eta, as
#: ``cv_risk_diff`` is; 3: ``skipped`` lists the cells that failed on their
#: data; 4: the config echo has no ``selector_risk``; 5: a cell's ``bound``
#: is ``{delta, m1, m2, rhs, mean_selected, slack}``).
SCHEMA_VERSION = 3
SUMMARY_SCHEMA_VERSION = 5

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
    :class:`ConfigError` naming their line of the file and column.
    """
    if header not in ("auto", "yes", "no"):
        raise ConfigError(f"header must be auto/yes/no, got {header!r}")
    path = Path(path)
    return _parse_rows(path, _split_rows(_read_text(path), delimiter), header)


def _read_text(path) -> str:
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
    with Path(path).open("r", encoding="utf-8-sig", newline="") as handle:
        return handle.read()


def _split_rows(text: str, delimiter: str, first_line: int = 1):
    """``(line, fields)`` for each non-blank row of ``text``, ``line`` its number in the file.

    ``text`` starts at line ``first_line`` of its file.  The fields are
    split as ``csv.reader`` splits them.  Without quotes or carriage
    returns other than CRLF line ends, that is ``str.split``: a CR left at
    a line's end is whitespace, which ``float`` and the blank-row test
    ignore.  Otherwise ``csv.reader`` splits the text, and a row whose
    quoted field spans lines is numbered by its first line.
    """
    crs = text.count("\r")
    if '"' in text or (crs and (delimiter == "\r" or crs != text.count("\r\n"))):
        rows = _numbered(csv.reader(io.StringIO(text, newline=""), delimiter=delimiter), first_line)
    else:
        rows = enumerate((line.split(delimiter) for line in text.split("\n")), first_line)
    return ((line, fields) for line, fields in rows if any(map(str.strip, fields)))


def _numbered(reader, first_line: int):
    """``(line, fields)`` for each row of a ``csv.reader``, ``line`` the first line of the row."""
    line = first_line
    for fields in reader:
        yield line, fields
        line = first_line + reader.line_num


def _parse_rows(path, rows, header: str):
    """``(matrix, column_names)`` from the ``(line, fields)`` pairs ``rows`` of :func:`_split_rows`.

    Each data row is converted as it comes, straight into one buffer of
    doubles.  Fields may carry surrounding whitespace, which ``float``
    ignores; header names and error messages show them stripped.  An
    error names the line of the file it is on.
    """
    line, first = next(rows, (None, None))
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
        line, first = next(rows, (None, None))
        if first is None:
            raise ConfigError(f"{path}: header only, no data rows")

    width = len(first)
    values = array("d")
    for line, fields in itertools.chain([(line, first)], rows):
        if len(fields) != width:
            raise ConfigError(f"{path}: ragged row at line {line}: expected {width} columns, got {len(fields)}")
        try:
            values.extend(map(float, fields))
        except ValueError:
            for j, f in enumerate(fields):
                try:
                    float(f)
                except ValueError:
                    raise ConfigError(
                        f"{path}: line {line}, column {j + 1}: cannot parse {f.strip()!r} as a number"
                    ) from None
            raise
    if names is not None and len(names) != width:
        raise ConfigError(f"{path}: header has {len(names)} columns, data rows have {width}")
    return np.frombuffer(values).reshape(-1, width), names


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
    with path.open("r", encoding="utf-8-sig", newline="") as handle:
        first = handle.readline().rstrip("\n")
        if not first.startswith("# J="):
            raise ConfigError(f"{path}: missing estimate header line")
        meta = first[2:]
        dim_part, _, selected = meta.partition(" selected=")
        try:
            dim = int(dim_part[len("J=") :])
        except ValueError:
            raise ConfigError(f"{path}: malformed estimate header line {first!r}") from None
        matrix, _ = _parse_rows(path, _split_rows(handle.read(), ",", first_line=2), "no")
    if matrix.shape != (dim, dim):
        raise ConfigError(f"{path}: expected a {dim}x{dim} matrix, got {matrix.shape}")
    return matrix, dim, selected


# Each table is one ``{column: (format, parse)}`` mapping: ``format`` turns
# a record's value into its field, ``parse`` turns the field back.
_INT, _FLOAT, _TEXT = (str, int), (lambda v: repr(float(v)), float), (str, str)

_RESULT_TABLE = {
    "model": _INT, "n": _INT, "J": _INT, "ratio": _FLOAT, "replication": _INT,
    "subject": _TEXT, "metric": _TEXT, "value": _FLOAT, "seed": _INT,
}

_RISK_TABLE = {
    "index": _INT, "id": _TEXT, "family": _TEXT,
    "hyperparameters": (lambda params: "; ".join(f"{k}={v}" for k, v in params.items()), str),
    "cv_risk": (lambda v: "" if v is None else repr(float(v)), lambda f: float(f) if f else None),
    "psd": (lambda v: "" if v is None else str(v).lower(), lambda f: None if not f else f == "true"),
    "selected": (lambda v: str(v).lower(), lambda f: f == "true"),
    "failure": (lambda v: v or "", lambda f: f or None),
}

_BENCH_TABLE = {
    "model": _INT, "n": _INT, "J": _INT, "ratio": _FLOAT, "procedure": _TEXT,
    "metric": _TEXT, "mean": _FLOAT, "replications": _INT,
}


def _write_table(path, table: dict, records) -> None:
    """Write ``table``'s header, then each record, a tuple of values in column order."""
    formats = [fmt for fmt, _ in table.values()]
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(table)
        writer.writerows([fmt(value) for fmt, value in zip(formats, record)] for record in records)


def _read_table(path, table: dict, kind: str) -> list[list]:
    """The parsed values of each non-blank row of a CSV whose header must be ``table``'s columns."""
    path = Path(path)
    parsers = [parse for _, parse in table.values()]
    with path.open("r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != tuple(table):
            raise ConfigError(f"{path}: unexpected {kind} header {header}")
        rows = [fields for fields in reader if fields]
    if any(len(fields) != len(parsers) for fields in rows):
        raise ConfigError(f"{path}: a {kind} row does not have {len(parsers)} columns")
    return [[parse(field) for parse, field in zip(parsers, fields)] for fields in rows]


def write_results_csv(path, rows) -> None:
    _write_table(
        path, _RESULT_TABLE,
        ((r.model, r.n, r.dim, r.ratio, r.replication, r.subject, r.metric, r.value, r.seed) for r in rows),
    )


def read_results_csv(path) -> list[ResultRow]:
    return [ResultRow(*values) for values in _read_table(path, _RESULT_TABLE, "results")]


def write_risk_table(path, candidates) -> None:
    """Write ``candidates``, dicts of ``_RISK_TABLE``'s columns, by risk ascending (failed ones last), then index."""
    ranked = sorted(candidates, key=lambda c: (c["cv_risk"] is None, c["cv_risk"] or 0.0, c["index"]))
    _write_table(path, _RISK_TABLE, (tuple(c.values()) for c in ranked))


def read_risk_table(path) -> list[dict]:
    return [dict(zip(_RISK_TABLE, values)) for values in _read_table(path, _RISK_TABLE, "risk-table")]


def write_benchmark_table(path, table) -> None:
    _write_table(path, _BENCH_TABLE, (tuple(entry[c] for c in _BENCH_TABLE) for entry in table))


def read_benchmark_table(path) -> list[dict]:
    return [dict(zip(_BENCH_TABLE, values)) for values in _read_table(path, _BENCH_TABLE, "benchmark")]


def _write_json(path, payload) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------


#: The keys each section accepts.  ``candidate.<family>`` sections and JSON
#: ``candidates`` hold hyperparameters, which ``EstimatorSpec`` checks.
_CONFIG_KEYS = {
    "run": {"input", "delimiter", "header", "scaling", "risk", "center", "pca", "out", "folds", "pn", "splits", "seed"},
    "experiment": {
        "profile", "models", "n", "ratio", "replications", "metrics", "folds", "pn", "splits", "seed",
        "scaling", "center", "fix_model",
    },
    "library": {"preset"},
}


def load_config(path) -> dict:
    """Load an INI-style or JSON config into ``{section: {key: value}}``.

    An unknown section, an unknown key in ``[run]``, ``[experiment]`` or
    ``[library]``, a section that is not a mapping, or a ``candidates``
    entry that is neither a mapping nor null raises :class:`ConfigError`.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            config = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"{path}: top-level JSON value must be an object")
    else:
        parser = configparser.ConfigParser(allow_no_value=True)
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: invalid config: {exc}") from exc
        config = {
            section: {key: (value if value is not None else "") for key, value in parser[section].items()}
            for section in parser.sections()
        }
    for section, body in config.items():
        if not (section in _CONFIG_KEYS or section == "candidates" or section.startswith("candidate.")):
            raise ConfigError(f"{path}: unknown config section [{section}]")
        if not isinstance(body, dict):
            raise ConfigError(f"{path}: config section [{section}] must map keys to values")
        if section == "candidates":
            for family, params in body.items():
                if params is not None and not isinstance(params, dict):
                    raise ConfigError(
                        f"{path}: candidates entry {family!r} must map its hyperparameters to values, got {params!r}"
                    )
        unknown = sorted(set(body) - _CONFIG_KEYS[section]) if section in _CONFIG_KEYS else None
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) in config section [{section}]: {', '.join(unknown)}")
    return config


def _settings(args, config: dict, section: str) -> dict:
    """``config``'s ``section``, with every flag given on the command line in place of its key."""
    flags = {key: value for key, value in vars(args).items() if key in _CONFIG_KEYS[section] and value is not None}
    return {**config.get(section, {}), **flags}


def _tokens(value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    return str(value).replace(",", " ").split()


# One reader per kind of value.  Each takes the value as the file or flag
# gave it and the key it came from, which an error names.


def _reader(convert, kind: str, *types):
    """A reader that applies ``convert`` to a value whose type is one of ``types``, and names the key otherwise.

    Types match exactly: ``bool`` is a subclass of ``int``, but a boolean
    is read only where ``types`` names ``bool``.
    """

    def read(value, key: str):
        if type(value) in types:
            try:
                return convert(value)
            except (KeyError, ValueError):
                pass
        raise ConfigError(f"{key} must be {kind}, got {value!r}")

    return read


# ``int`` reads integer text exactly, so a seed above 2**53 stays whole,
# and rejects fractional text; a float never reaches it.
_as_int = _reader(int, "an integer", int, str)
_as_float = _reader(float, "a number", int, float, str)
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}
_as_bool = _reader(lambda value: _BOOLEANS[str(value).strip().lower()], "a boolean", bool, int, str)


def _as_number(value, key: str):
    """A hyperparameter: integer text becomes an int, other text a float; the family's spec checks any other value."""
    if not isinstance(value, str):
        return value
    try:
        return int(value)
    except ValueError:
        return _as_float(value, key)


def _split_settings(settings: dict) -> tuple:
    """``(folds, pn, splits, seed)``, the CV design each command reads the same way."""
    pn, splits = settings.get("pn"), settings.get("splits")
    return (
        _as_int(settings.get("folds", 5), "folds"),
        None if pn is None else _as_float(pn, "pn"),
        None if splits is None else _as_int(splits, "splits"),
        _as_int(settings.get("seed", 0), "seed"),
    )


def library_from_config(config: dict) -> CandidateLibrary | None:
    """Build a candidate library from config sections, or None if absent.

    A ``[library]`` section may name a ``preset`` (default/wide/light);
    ``[candidate.<family>]`` sections, then JSON ``candidates`` entries,
    append grid expansions, e.g.::

        [candidate.hard_threshold]
        threshold = 0.1 0.2 0.3
    """
    preset = str(config.get("library", {}).get("preset", "")).strip()
    declarations = [(section[len("candidate.") :], body) for section, body in config.items()
                    if section.startswith("candidate.")]
    declarations += config.get("candidates", {}).items()
    if not preset and not declarations:
        return None
    specs = list(library_preset(preset)) if preset else []
    for family, params in declarations:
        grid = {
            key: [_as_number(v, f"{family} hyperparameter {key!r}") for v in _tokens(value)]
            for key, value in (params or {}).items()
        }
        specs.extend(expand_grid(family, **grid))
    return CandidateLibrary(tuple(specs))


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def cmd_select(args) -> int:
    config = load_config(args.config) if args.config else {}
    run = _settings(args, config, "run")

    if run.get("input") is None:
        raise ConfigError("an input CSV is required (--input or [run] input)")
    delimiter = _normalize_delimiter(str(run.get("delimiter", ",")))
    center = _as_bool(run.get("center", True), "center")
    pca = _as_int(run.get("pca", 0), "pca")
    scaling, risk = str(run.get("scaling", "one")), str(run.get("risk", "observation"))
    scheme = split_scheme(*_split_settings(run))
    library = library_from_config(config) or library_preset("default")

    data, names = read_numeric_csv(str(run["input"]), delimiter=delimiter, header=str(run.get("header", "auto")))
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        # The reader keeps no line numbers; the file's non-blank rows are the header, if any, and the data.
        rows = _split_rows(_read_text(run["input"]), delimiter)
        line, _ = next(itertools.islice(rows, row + (names is not None), None))
        raise ConfigError(f"{run['input']}: line {line}, column {col + 1}: {data[row, col]} is not a finite number")
    if not 0 <= pca <= data.shape[1]:
        raise ConfigError(f"--pca must lie between 0 and the number of features {data.shape[1]}, got {pca}")

    report = select(library, data, scheme, scaling=scaling, risk=risk, center=center)

    out_dir = Path(str(run.get("out", ".")))
    out_dir.mkdir(parents=True, exist_ok=True)
    candidates = [
        dict(zip(_RISK_TABLE, (c.index, c.id, c.family, c.params, c.cv_risk, c.psd,
                               c.index == report.selected_index, c.failure)))
        for c in report.candidates
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "select",
        "n": data.shape[0],
        "J": data.shape[1],
        "selected_id": report.selected_id,
        "selected_index": report.selected_index,
        "tie_ids": list(report.tie_ids),
        "scheme": scheme_description(scheme),
        "seed": scheme.seed,
        "scaling": scaling,
        "risk": risk,
        "centered": center,
        "warnings": list(report.warnings),
        "candidates": candidates,
    }
    _write_json(out_dir / "selection_report.json", payload)
    write_risk_table(out_dir / "risk_table.csv", candidates)
    _write_matrix(out_dir / "estimate.csv", report.estimate, comment=f"J={data.shape[1]} selected={report.selected_id}")
    if pca > 0:
        scores = (center_columns(data) if center else data) @ eigendecompose(report.estimate).eigenvectors[:, :pca]
        _write_matrix(out_dir / "scores.csv", scores, column_names=[f"pc{j + 1}" for j in range(pca)])
    logger.info("selected %s (cv risk %s)", report.selected_id, candidates[report.selected_index]["cv_risk"])
    return 0


# ---------------------------------------------------------------------------
# simulate / bench
# ---------------------------------------------------------------------------


def _experiment_from_settings(settings: dict, profiles: dict, default_metrics, library) -> ExperimentConfig:
    """The experiment ``settings`` describe, on the grid of their profile (``smoke`` if none)."""
    profile = str(settings.get("profile") or "smoke")
    if profile not in profiles:
        raise ConfigError(f"unknown profile {profile!r}; known: {sorted(profiles)}")
    grid = profiles[profile]

    def listed(key: str, read, default) -> tuple:
        return tuple(read(v, key) for v in _tokens(settings[key])) if key in settings else tuple(default)

    folds, fraction, split_count, seed = _split_settings(settings)
    config = ExperimentConfig(
        models=listed("models", _as_int, grid["models"]),
        sample_sizes=listed("n", _as_int, grid["sample_sizes"]),
        ratios=listed("ratio", _as_float, grid["ratios"]),
        replications=_as_int(settings.get("replications", grid["replications"]), "replications"),
        folds=folds,
        validation_fraction=fraction,
        split_count=split_count,
        metrics=listed("metrics", lambda v, key: str(v), default_metrics),
        seed=seed,
        scaling=str(settings.get("scaling", "one")),
        center=_as_bool(settings.get("center", False), "center"),
        fix_model=_as_bool(settings.get("fix_model", False), "fix_model"),
        library=library,
    )
    _warn_if_large(config, profile)
    return config


def _config_echo(config: ExperimentConfig) -> dict:
    """Every config field, with the library as its candidate count."""
    echo = {f.name: getattr(config, f.name) for f in dataclasses.fields(config) if f.name != "library"}
    echo["candidates"] = len(config.library)
    return echo


def _warn_if_large(config: ExperimentConfig, profile: str | None) -> None:
    if profile == "full":
        logger.warning(
            "large grid: %d cells x %d replications; expect a long runtime",
            len(config.cells()), config.replications,
        )


def _grid_command(args, profiles: dict, default_metrics, run, write) -> int:
    """Run ``simulate`` or ``bench``: ``run`` the configured grid, then write ``results.csv`` and ``write`` the rest.

    The grid comes from ``[experiment]`` and the output directory from
    ``[run]``, each with the flags given in place of its keys.  The
    command reports ``default_metrics`` and no other; a config naming
    another fails before the output directory is made.  Returns 4 when a
    cell was skipped, else 0.
    """
    config_file = load_config(args.config) if args.config else {}
    config = _experiment_from_settings(
        _settings(args, config_file, "experiment"), profiles, default_metrics,
        library_from_config(config_file) or library_preset("default"),
    )
    _check_metrics(config.metrics, default_metrics)
    out_dir = Path(str(_settings(args, config_file, "run").get("out", ".")))
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run(config)
    write_results_csv(out_dir / "results.csv", result.rows)
    write(out_dir, config, result)
    return 4 if result.skipped else 0


def _write_summary(out_dir: Path, config: ExperimentConfig, result) -> None:
    summary = summarize_ratios(result.rows, metrics=config.metrics)
    stats_by_cell = {(s.model, s.n, s.dim, s.ratio): s for s in result.cells}
    fraction = validation_fraction(config.scheme(0))
    for cell in summary["cells"]:
        stats = stats_by_cell.get((cell["model"], cell["n"], cell["J"], cell["ratio"]))
        if stats is None or "cv_risk_diff_mean_oracle" not in cell:
            continue
        params = BoundParams(
            delta=1.0, m1=stats.max_sq_observation, m2=stats.max_abs_estimate, dim=stats.dim,
            n_candidates=len(config.library), n_obs=stats.n, validation_fraction=fraction,
        )
        rhs = finite_sample_bound(params, cell["cv_risk_diff_mean_oracle"])
        selected = cell["cv_risk_diff_mean_selected"]
        cell["bound"] = {
            "delta": params.delta, "m1": params.m1, "m2": params.m2,
            "rhs": rhs, "mean_selected": selected, "slack": _safe_ratio(rhs, selected),
        }
    payload = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "command": "simulate",
        "config": _config_echo(config),
        "cells": summary["cells"],
        "skipped": result.skipped,
    }
    _write_json(out_dir / "summary.json", payload)
    logger.info("wrote %d result rows across %d cells", len(result.rows), len(result.cells))


def cmd_simulate(args) -> int:
    return _grid_command(args, _PROFILES, _METRICS, run_experiment, _write_summary)


def _write_bench(out_dir: Path, config: ExperimentConfig, result) -> None:
    write_benchmark_table(out_dir / "bench_table.csv", result.table)
    logger.info("benchmarked %d procedures over %d cells", len(result.procedures), len(config.cells()))


def cmd_bench(args) -> int:
    return _grid_command(args, _BENCH_PROFILES, _BENCH_METRICS, run_benchmark, _write_bench)


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
    p_select.add_argument("--scaling", choices=SCALING_POLICIES)
    p_select.add_argument("--risk", choices=("observation", "matrix"))
    p_select.add_argument("--pca", type=int, help="export this many PCA score columns")
    p_select.add_argument("--no-center", dest="center", action="store_false", default=None,
                          help="skip column centering")
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
    except (ConfigError, DegenerateFeatureError, OSError, ValueError) as exc:
        _error_record("invalid_input", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
