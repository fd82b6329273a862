"""A replication's passes within the memory bound ``FitContext`` states, and the full-data pass's order.

The bound counts the ``J x J`` doubles a pass allocates at its peak
besides its inputs (the data, ``psi0``, a fold's targets and the grid
layout its folds share), as tracemalloc sees numpy's allocations.  The
full-data pass fits grouped by the intermediates candidates share and
releases each after its last reader; its values must be those of fitting
every candidate on its own, in library order.
"""

import math
import tracemalloc

import numpy as np
import pytest

import covsel._workers as _workers
import covsel.estimators as estimators
import covsel.simulation as simulation
from covsel import _grid
from covsel.cv_engine import VFold, _full_data_errors, _residual_norms, make_splits
from covsel.estimators import (
    CandidateLibrary,
    EstimatorSpec,
    FitContext,
    _score_fits,
    _try_fit,
    apply,
    default_library,
    library_preset,
    wide_library,
)
from covsel.loss_risk import _scaling
from covsel.matrix_core import sample_covariance, scaled_frobenius_sq
from covsel.simulation import CovModelSpec, ExperimentConfig, build_model_covariance, run_benchmark, sample_gaussian

#: The bound ``FitContext`` states, in ``J x J`` doubles.
BOUND = 9.0
DIM = 60


def bench_union():
    """The library ``run_benchmark`` fits: the default library, then the wide grids' other candidates."""
    ids = set(default_library().ids)
    return CandidateLibrary(tuple(default_library()) + tuple(s for s in wide_library() if s.id not in ids))


LIBRARIES = {"default": default_library, "bench-union": bench_union}


def traced_peak(run) -> float:
    """The most ``run()`` held at once besides what was live when it started, in ``DIM x DIM`` doubles."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / (8.0 * DIM * DIM)
    finally:
        tracemalloc.stop()


def model_data(n):
    psi0 = build_model_covariance(CovModelSpec(2, DIM))
    return psi0, sample_gaussian(psi0, n, seed=5)


@pytest.mark.parametrize("n", [60, 30], ids=["tall", "wide"])
@pytest.mark.parametrize("library", sorted(LIBRARIES))
class TestPeakMemory:
    def test_the_full_data_pass(self, library, n):
        library = LIBRARIES[library]()
        psi0, data = model_data(n)
        peak = traced_peak(lambda: _full_data_errors(library, data, psi0, 1.0, spectral=True))
        # At least S, one estimate and its square: the trace sees numpy's arrays.
        assert 3.0 < peak <= BOUND

    def test_one_fold_scored_against_two_targets(self, library, n):
        library = LIBRARIES[library]()
        psi0, data = model_data(n)
        mask = make_splits(VFold(5, seed=1), n)[0]
        train, val_cov = data[~mask], sample_covariance(data[mask])
        layout = _grid.Layout(DIM)
        layout.blocks  # built once per pass and shared by its folds
        targets = [(val_cov, 1.0), (psi0, 1.0)]
        peak = traced_peak(lambda: _score_fits(library, _grid.Fold(FitContext(train), targets, layout)))
        assert 2.0 < peak <= BOUND


@pytest.mark.parametrize("n", [60, 30], ids=["tall", "wide"])
def test_a_bench_refit_phase_peaks_within_the_bound(n, monkeypatch):
    """From the fold pass's return to the replication's: every procedure's winner refitted and measured."""
    peaks = []
    real_evaluate, real_grid = simulation.evaluate_candidates, simulation._run_grid

    def evaluate_then_trace(*args, **kwargs):
        ev = real_evaluate(*args, **kwargs)
        tracemalloc.start()
        tracemalloc.reset_peak()
        peaks.append(tracemalloc.get_traced_memory()[0])
        return ev

    def traced_grid(config, run_rep):
        def run(*args):
            out = run_rep(*args)
            peaks[-1] = (tracemalloc.get_traced_memory()[1] - peaks[-1]) / (8.0 * DIM * DIM)
            tracemalloc.stop()
            return out

        return real_grid(config, run)

    monkeypatch.setattr(simulation, "evaluate_candidates", evaluate_then_trace)
    monkeypatch.setattr(simulation, "_run_grid", traced_grid)
    monkeypatch.setattr(_workers, "_worker_count", lambda units: 1)  # the replication runs in this process
    config = ExperimentConfig(models=(3,), sample_sizes=(n,), ratios=(DIM / n,), replications=1,
                              metrics=("frobenius", "spectral"), seed=3)
    result = run_benchmark(config)
    assert len(result.procedures) == 10 and len(result.rows) == 20
    assert len(peaks) == 1 and 2.0 < peaks[0] <= BOUND


def one_fit_at_a_time(library, data, psi0, eta):
    """``_full_data_errors`` from each candidate fitted on its own context, in library order."""
    risk_diffs, frobenius, spectral = (np.full(len(library), np.nan) for _ in range(3))
    failures = {}
    for idx, spec in enumerate(library):
        estimate, failure = _try_fit(spec, FitContext(data))
        if failure is not None:
            failures[idx] = failure
            continue
        assert np.array_equal(estimate, apply(spec, data)), spec.id
        residual = estimate - psi0
        squares, spectral[idx] = _residual_norms(residual, True)
        frobenius[idx] = math.sqrt(squares)
        risk_diffs[idx] = eta * squares if isinstance(eta, float) else scaled_frobenius_sq(residual, eta)
    return risk_diffs, frobenius, spectral, failures


def assert_same_errors(got, expected):
    for got_values, expected_values in zip(got[:3], expected[:3]):
        assert got_values.tobytes() == expected_values.tobytes()
    assert list(got[3].items()) == list(expected[3].items())


class TestGroupedOrder:
    @pytest.mark.parametrize("scaling", ["one", "weighted"])
    @pytest.mark.parametrize("n", [40, 12], ids=["tall", "wide"])
    @pytest.mark.parametrize("preset", ["default", "wide", "light"])
    def test_every_preset_gets_the_values_of_one_fit_at_a_time(self, preset, n, scaling):
        psi0 = build_model_covariance(CovModelSpec(3, 24))
        data = sample_gaussian(psi0, n, seed=8)
        library = library_preset(preset)
        eta = _scaling(scaling, psi0)
        got = _full_data_errors(library, data, psi0, eta, spectral=True)
        assert_same_errors(got, one_fit_at_a_time(library, data, psi0, eta))

    def test_an_interleaved_library_fits_each_candidate_and_builds_each_intermediate_once(self, monkeypatch):
        dim = 20
        psi0 = build_model_covariance(CovModelSpec(2, dim))
        data = sample_gaussian(psi0, 15, seed=9)
        specs = [
            ("adaptive_lasso", {"threshold": 0.1, "exponent": 0.5}),
            ("hard_threshold", {"threshold": 0.2}),
            ("poet", {"factors": 2, "threshold": 0.1}),
            ("adaptive_lasso", {"threshold": 0.2, "exponent": 0.1}),
            ("fixed", {"matrix": np.eye(dim + 1)}),  # fails: the wrong dimension
            ("scad_threshold", {"threshold": 0.1}),
            ("tapering", {"bands": 4}),
            ("adaptive_lasso", {"threshold": 0.1, "exponent": 0.1}),
            ("poet", {"factors": 1, "threshold": 0.2}),
            ("hard_threshold", {"threshold": 0.1}),
            ("poet", {"factors": 2, "threshold": 0.3}),
            ("banding", {"bands": 2}),
            ("adaptive_lasso", {"threshold": 0.3, "exponent": 0.5}),
            ("sample_covariance", {}),
        ]
        library = CandidateLibrary(tuple(EstimatorSpec(family, params) for family, params in specs))
        expected = one_fit_at_a_time(library, data, psi0, 1.0)
        assert list(expected[3]) == [4]

        calls = {"fits": [], "powers": [], "low_ranks": [], "bases": 0}

        def counted(name, real):
            def run(*args):
                calls[name].append(args[0].id if name == "fits" else args[-1])
                return real(*args)

            return run

        monkeypatch.setattr(estimators, "_try_fit", counted("fits", estimators._try_fit))
        monkeypatch.setattr(estimators, "_inverse_power", counted("powers", estimators._inverse_power))
        monkeypatch.setattr(estimators, "_poet_low_rank", counted("low_ranks", estimators._poet_low_rank))
        real_eigendecompose = estimators.eigendecompose

        def counted_eigendecompose(m):
            calls["bases"] += 1
            return real_eigendecompose(m)

        monkeypatch.setattr(estimators, "eigendecompose", counted_eigendecompose)
        assert_same_errors(_full_data_errors(library, data, psi0, 1.0, spectral=True), expected)
        assert sorted(calls["fits"]) == sorted(library.ids)
        assert calls["powers"] == [0.5, 0.1] and calls["low_ranks"] == [2, 1] and calls["bases"] == 1
