"""Tests of the benchmark itself: span arithmetic, unwrapping, metric names, repeatable counts.

Run from the repository root with ``python3 -m pytest benchmarks/check_perfbench.py``.
The file name keeps these tests out of the package's default test run:
the repeat check runs every workload twice, about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS, CheckFailed, compare  # noqa: E402


def _declared(kind: str) -> list:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


def _package_bindings() -> dict:
    return {
        (module.__name__, attr): value
        for module in tracing.package_modules()
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_self_time_is_duration_minus_the_interval_children_cover():
    spans = [
        Span("root", 0.0, 10.0, -1, None, False),
        Span("a", 1.0, 3.0, 0, None, False),
        Span("b", 2.0, 5.0, 0, None, False),  # overlaps a: the union counts once
        Span("c", 9.0, 12.0, 0, None, False),  # runs past its parent: clipped at 10
        Span("a.x", 1.5, 2.5, 1, None, False),
        Span("leaf", 6.0, 6.0, 0, None, False),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0, 0.0])


def test_family_fit_times_leave_out_the_shared_cached_steps():
    fit = "estimators.apply_with_context"
    spans = [
        Span("estimators.apply_library", 0.0, 10.0, -1, None, False),
        Span(fit, 0.0, 4.0, 0, "sample_covariance", False),
        Span("matrix_core.sample_covariance", 0.5, 3.0, 1, None, False),  # FitContext.cov
        Span(fit, 4.0, 9.0, 0, "poet", False),
        Span("matrix_core.eigendecompose", 4.0, 7.0, 3, None, False),  # FitContext.eig
        Span(fit, 9.0, 9.5, 0, "hard_threshold", False),
        Span("estimators.hard_threshold", 9.1, 9.4, 5, None, False),  # the family's own work
        Span(fit, 9.5, 10.0, 0, None, True),  # a failed fit counts for no family
    ]
    times = tracing.family_fit_times(spans)
    assert set(times) == set(tracing.FAMILIES)
    assert times["sample_covariance"] == pytest.approx(1.5)
    assert times["poet"] == pytest.approx(2.0)
    assert times["hard_threshold"] == pytest.approx(0.5)
    assert sum(times.values()) == pytest.approx(4.0)


def test_busy_time_counts_nested_calls_of_one_function_once():
    spans = [
        Span("m.f", 0.0, 4.0, -1, None, False),
        Span("m.f", 1.0, 2.0, 0, None, False),
        Span("m.f", 6.0, 7.0, -1, None, False),
    ]
    assert tracing._busy(spans) == pytest.approx(5.0)


def test_install_wraps_every_binding_and_uninstall_restores_the_original_objects():
    import covsel.cli  # noqa: F401  (loads every layer module)
    from covsel import cv_engine, estimators, simulation

    before = _package_bindings()
    originals = {
        "cv_engine.apply_library": cv_engine.apply_library,
        "simulation.apply_library": simulation.apply_library,
        "simulation.evaluate_candidates": simulation.evaluate_candidates,
        "estimators.apply_with_context": estimators.apply_with_context,
        "estimators.eigendecompose": estimators.eigendecompose,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for binding, original in originals.items():
            module, attr = binding.split(".")
            wrapped = getattr(sys.modules[f"covsel.{module}"], attr)
            assert wrapped is not original and wrapped.__wrapped__ is original, binding
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_layer_metrics_of_a_traced_select(tmp_path):
    from covsel.cli import main

    np.savetxt(tmp_path / "data.csv", np.random.default_rng(0).standard_normal((24, 12)), delimiter=",")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["select", "--input", str(tmp_path / "data.csv"), "--folds", "4",
                     "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracing.layer_metrics(tracer.spans)
    assert set(metrics) | {"trace.overhead_s"} == set(_declared("per_layer"))
    k = 73
    assert metrics["loss_risk.row_losses.calls"] == 4 * k
    # Each fold validates 6 of 24 rows; every scored row costs J * J entries.
    assert metrics["loss_risk.row_losses.entries"] == 4 * k * 6 * 12 * 12
    assert metrics["estimators.apply_library.calls"] == 5
    assert metrics["estimators.fits"] == 5 * k
    assert metrics["estimators.fit_ok_ratio"] == 1.0
    assert metrics["estimators.apply_library.result_mb"] == pytest.approx(k * 12 * 12 * 8 / 2**20)
    assert metrics["matrix_core.is_psd.calls"] == k
    assert metrics["simulation.sample_gaussian.calls"] == 0
    assert metrics["cli.main.self_s"] >= 0.0


def test_end_to_end_names_match_benchmark_json():
    assert _declared("end_to_end") == ["wall_s", "reps_per_s", "peak_rss_mb", "setup_s"]
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert names == list(WORKLOADS)


def test_compare_accepts_rounding_and_rejects_a_change():
    reference = {"selected_id": "poet(factors=1, threshold=0.1)", "cv_risk": {"a": 1.0, "b": None}}
    compare({"selected_id": "poet(factors=1, threshold=0.1)", "cv_risk": {"a": 1.0 + 1e-12, "b": None}},
            reference, 1e-9)
    with pytest.raises(CheckFailed):
        compare({"selected_id": "poet(factors=1, threshold=0.1)", "cv_risk": {"a": 1.0 + 1e-6, "b": None}},
                reference, 1e-9)
    with pytest.raises(CheckFailed):
        compare({"selected_id": "banding(bands=1)", "cv_risk": {"a": 1.0, "b": None}}, reference, 1e-9)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/perf.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "select-obs", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_count_metrics_repeat_across_two_traced_runs(workload):
    counts = []
    for _ in range(2):
        done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"], done.stdout
        counts.append({name: result["metrics"][name]["value"] for name in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["estimators.fits"] > 0
