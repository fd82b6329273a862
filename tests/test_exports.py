"""Every exported name resolves, so a deletion cannot leave a stale export behind.

README and the top-level namespace name the same calls, and its config
example passes the key check.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import covsel
from covsel.cli import (
    _PROFILES,
    _experiment_from_settings,
    _settings,
    _split_settings,
    build_parser,
    library_from_config,
    load_config,
)

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

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


def test_every_top_level_name_is_in_readme():
    assert [name for name in covsel.__all__ if f"covsel.{name}" not in README] == []


def test_every_name_readme_gives_resolves():
    mentioned = set(re.findall(r"\bcovsel(?:\.\w+)+", README))
    assert "covsel.matrix_core.is_psd" in mentioned and "covsel.estimators.iter_fits" in mentioned
    missing = []
    for name in sorted(mentioned):
        obj = covsel
        for attr in name.split(".")[1:]:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []


def readme_config(tmp_path, kind):
    """The library, the experiment and the ``[run]`` CV design of README's ``kind`` config example."""
    path = tmp_path / f"readme.{kind}"
    path.write_text(re.search(rf"```{kind}\n(.*?)```", README, re.S).group(1), encoding="utf-8")
    config = load_config(path)
    args = build_parser().parse_args(["simulate", "--config", str(path)])
    library = library_from_config(config)
    experiment = _experiment_from_settings(_settings(args, config, "experiment"), _PROFILES, ("cv_ratio",), library)
    return library, experiment, _split_settings(config["run"])


def test_readme_config_example_loads(tmp_path):
    library, experiment, split = readme_config(tmp_path, "ini")
    assert len(library) == 73 + 3
    assert experiment.models == (2, 3) and experiment.replications == 50
    assert split == (5, None, None, 7)
    assert readme_config(tmp_path, "json") == (library, experiment, split)


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
