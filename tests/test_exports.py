"""Every exported name resolves, so a deletion cannot leave a stale export behind."""

import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = [
    "covsel",
    "covsel.cli",
    "covsel.cv_engine",
    "covsel.estimators",
    "covsel.loss_risk",
    "covsel.matrix_core",
    "covsel.simulation",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing


def load_tracing():
    """``benchmarks/tracing.py``, the benchmark's span tracer, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("covsel_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_traces_exists():
    tracing = load_tracing()
    functions = tracing.public_functions()
    traced = {*tracing._CALLS, *tracing._BUSY, *tracing._SELF, *tracing.ANNOTATORS, *tracing.SHARED_FIT_STEPS}
    missing = sorted(name for name in traced | {"estimators.apply_with_context"} if name not in functions)
    assert not missing


@pytest.mark.parametrize(
    "binding, function",
    [
        ("cv_engine.apply_library", "estimators.apply_library"),
        ("simulation.apply_library", "estimators.apply_library"),
        ("simulation.evaluate_candidates", "cv_engine.evaluate_candidates"),
        ("estimators.eigendecompose", "matrix_core.eigendecompose"),
    ],
)
def test_the_bindings_the_benchmark_checks_are_the_traced_functions(binding, function):
    functions = load_tracing().public_functions()
    module, attr = binding.split(".")
    assert getattr(importlib.import_module(f"covsel.{module}"), attr) is functions[function]
