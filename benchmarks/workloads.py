"""The benchmark's workloads: inputs, the covsel command, and output checks.

Every input is generated here from the workload seed with plain numpy, so
a change to ``covsel.simulation`` cannot change what ``select`` is given.
``simulate`` and ``bench`` receive only a seed and a config file; the data
they draw is part of the work being measured.

One operation is one ``covsel`` command.  The desk cells run 3
replications instead of the CLI profile's 50 (simulate) and 20 (bench),
and the ``select`` inputs are smaller than the paper-scale ones, so an
operation takes about two seconds on a shared 2-core host and a run of
twenty seconds holds ten or more of them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An operation's output does not satisfy its check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _gaussian_rows(psi: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, psi.shape[0])) @ np.linalg.cholesky(psi).T


def ar1_data(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Rows with covariance ``0.7 ** |j - l|``."""
    idx = np.arange(dim)
    return _gaussian_rows(0.7 ** np.abs(idx[:, None] - idx[None, :]), n, rng)


def factor_data(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Rows with covariance ``beta @ beta.T + I``, ``beta`` a standard normal ``dim x 3``."""
    beta = rng.standard_normal((dim, 3))
    return _gaussian_rows(beta @ beta.T + np.eye(dim), n, rng)


# The CLI's ``desk`` profiles, with the replication count the benchmark uses.
DESK_REPLICATIONS = 3
SIMULATE_GRID = {"models": (2,), "sample_sizes": (50, 200), "ratios": (1.0,)}
BENCH_GRID = {"models": (3,), "sample_sizes": (200,), "ratios": (1.0,)}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    reps_per_op: int
    #: ``(seed, work_dir) -> argv`` for ``covsel.cli.main``, without ``--out``.
    prepare: Callable[[int, Path], list]
    #: ``(out_dir, seed) -> fingerprint``; raises :class:`CheckFailed`.
    check: Callable[[Path, int], dict]


def _select_workload(name: str, risk: str, make_data, n: int, dim: int, stream: int) -> Workload:
    def prepare(seed: int, work: Path) -> list:
        path = work / "data.csv"
        data = make_data(n, dim, np.random.default_rng([seed, stream]))
        np.savetxt(path, data, delimiter=",", fmt="%.17g")
        return ["select", "--input", str(path), "--folds", "5", "--risk", risk,
                "--scaling", "one", "--seed", str(seed)]

    return Workload(name, "select", 1, prepare, lambda out, seed: check_select(out, n, dim))


def _grid_workload(name: str, command: str) -> Workload:
    def prepare(seed: int, work: Path) -> list:
        path = work / "config.ini"
        path.write_text(f"[experiment]\nreplications = {DESK_REPLICATIONS}\n", encoding="utf-8")
        return [command, "--profile", "desk", "--config", str(path), "--seed", str(seed)]

    check = check_simulate if command == "simulate" else check_bench
    return Workload(name, command, DESK_REPLICATIONS, prepare, check)


def build_library(workload: Workload):
    """The candidate library the workload's command fits (the set-up being timed)."""
    from covsel.estimators import CandidateLibrary, library_preset, wide_library

    library = library_preset("default")
    if workload.command != "bench":
        return library
    specs = {spec.id: spec for spec in library}
    for spec in wide_library():
        specs.setdefault(spec.id, spec)
    return CandidateLibrary(tuple(specs.values()))


# ---------------------------------------------------------------------------
# Output checks; each returns a fingerprint compared against the reference
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> tuple[list, list]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    _require(bool(rows), f"{path.name} is empty")
    return rows[0], [row for row in rows[1:] if row]


def _read_json(path: Path):
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def check_select(out: Path, n: int, dim: int) -> dict:
    """The report's winner and tie set are the risk table's argmin; the estimate is J x J and symmetric."""
    report = _read_json(out / "selection_report.json")
    _require(report["n"] == n and report["J"] == dim, "report shape does not match the input")

    header, rows = _read_csv(out / "risk_table.csv")
    column = {name: i for i, name in enumerate(header)}
    _require(len(rows) == len(report["candidates"]), "risk table and report list different candidates")
    risks = {}
    for r in rows:
        risk = r[column["cv_risk"]]
        risks[int(r[column["index"]])] = (r[column["id"]], float(risk) if risk else None)
    scored = [risk for _, risk in risks.values() if risk is not None]
    _require(bool(scored), "no candidate has a risk")
    best = min(scored)
    ties = [risks[i][0] for i in sorted(risks) if risks[i][1] == best]
    _require(report["selected_id"] == ties[0], f"selected {report['selected_id']}, argmin is {ties[0]}")
    _require(list(report["tie_ids"]) == ties, "tie set differs from the risk table's argmin set")
    flagged = [r[column["id"]] for r in rows if r[column["selected"]] == "true"]
    _require(flagged == [ties[0]], "risk table flags another candidate as selected")

    estimate_path = out / "estimate.csv"
    with estimate_path.open(encoding="utf-8") as handle:
        first = handle.readline().strip()
    _require(first == f"# J={dim} selected={ties[0]}", f"estimate header {first!r}")
    estimate = np.loadtxt(estimate_path, delimiter=",", comments="#", ndmin=2)
    _require(estimate.shape == (dim, dim), f"estimate is {estimate.shape}, expected {(dim, dim)}")
    _require(bool(np.all(np.isfinite(estimate))), "estimate has non-finite entries")
    scale = float(np.max(np.abs(estimate))) or 1.0
    _require(float(np.max(np.abs(estimate - estimate.T))) <= 1e-12 * scale, "estimate is not symmetric")
    return {
        "selected_id": ties[0],
        "tie_ids": ties,
        "cv_risk": {cid: risk for cid, risk in risks.values()},
    }


def _experiment_config(command: str, seed: int):
    from covsel.simulation import ExperimentConfig

    if command == "simulate":
        return ExperimentConfig(replications=DESK_REPLICATIONS, seed=seed, **SIMULATE_GRID)
    return ExperimentConfig(replications=DESK_REPLICATIONS, metrics=("frobenius", "spectral"), seed=seed,
                            **BENCH_GRID)


def _cell_keys(config) -> set:
    return {(model, n, dim, ratio) for model, n, _, ratio, dim in config.cells()}


def check_simulate(out: Path, seed: int) -> dict:
    """``results.csv`` has the expected row count and ``summary.json`` lists every cell."""
    from covsel.simulation import expected_row_count

    config = _experiment_config("simulate", seed)
    _, rows = _read_csv(out / "results.csv")
    expected = expected_row_count(config)
    _require(len(rows) == expected, f"results.csv has {len(rows)} rows, expected {expected}")
    summary = _read_json(out / "summary.json")
    echo = summary["config"]
    _require(
        (tuple(echo["models"]), tuple(echo["sample_sizes"]), tuple(echo["ratios"]), echo["replications"])
        == (config.models, config.sample_sizes, config.ratios, config.replications),
        "summary.json echoes another grid",
    )
    cells = {(c["model"], c["n"], c["J"], c["ratio"]): c for c in summary["cells"]}
    _require(set(cells) == _cell_keys(config), f"summary.json lists cells {sorted(cells)}")
    return {
        "/".join(map(str, key)): {
            field: value for field, value in sorted(cell.items())
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        for key, cell in sorted(cells.items())
    }


def check_bench(out: Path, seed: int) -> dict:
    """``bench_table.csv`` has one row per cell, procedure and metric, each over every replication."""
    from covsel.estimators import wide_library
    from covsel.simulation import SELECTED_SUBJECT

    config = _experiment_config("bench", seed)
    procedures = {SELECTED_SUBJECT} | {spec.family for spec in wide_library()}
    expected = {
        (model, n, dim, ratio, procedure, metric)
        for model, n, dim, ratio in _cell_keys(config)
        for procedure in procedures
        for metric in config.metrics
    }
    header, rows = _read_csv(out / "bench_table.csv")
    column = {name: i for i, name in enumerate(header)}
    table = {}
    for r in rows:
        key = (int(r[column["model"]]), int(r[column["n"]]), int(r[column["J"]]),
               float(r[column["ratio"]]), r[column["procedure"]], r[column["metric"]])
        _require(key not in table, f"duplicate bench_table row {key}")
        _require(int(r[column["replications"]]) == config.replications, f"row {key} misses replications")
        mean = float(r[column["mean"]])
        _require(math.isfinite(mean), f"row {key} has a non-finite mean")
        table[key] = mean
    _require(set(table) == expected, "bench_table.csv lacks or adds (cell, procedure, metric) rows")
    _, result_rows = _read_csv(out / "results.csv")
    _require(len(result_rows) == len(expected) * config.replications,
             f"results.csv has {len(result_rows)} rows, expected {len(expected) * config.replications}")
    return {"/".join(map(str, key)): mean for key, mean in sorted(table.items())}


# Why each workload was chosen, and which layers it stresses and bypasses, is
# recorded with the workload in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        _select_workload("select-obs", "observation", ar1_data, n=100, dim=200, stream=1),
        _select_workload("select-matrix-wide", "matrix", factor_data, n=200, dim=400, stream=2),
        _grid_workload("simulate-desk", "simulate"),
        _grid_workload("bench-desk", "bench"),
    )
}


def compare(found, reference, rtol: float, where: str = "") -> None:
    """Raise :class:`CheckFailed` unless ``found`` matches ``reference``, floats within ``rtol``."""
    if isinstance(reference, dict):
        _require(isinstance(found, dict) and set(found) == set(reference), f"{where}: keys differ")
        for key in reference:
            compare(found[key], reference[key], rtol, f"{where}/{key}")
    elif isinstance(reference, list):
        _require(isinstance(found, list) and len(found) == len(reference), f"{where}: lengths differ")
        for i, (a, b) in enumerate(zip(found, reference)):
            compare(a, b, rtol, f"{where}[{i}]")
    elif isinstance(reference, float) and isinstance(found, (int, float)):
        _require(math.isclose(found, reference, rel_tol=rtol, abs_tol=0.0),
                 f"{where}: {found!r} differs from reference {reference!r}")
    else:
        _require(found == reference, f"{where}: {found!r} differs from reference {reference!r}")
