"""Every exported name resolves, so a deletion cannot leave a stale export behind."""

import importlib

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
