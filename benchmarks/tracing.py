"""Span tracing of the covsel layers from outside the package.

The covsel modules import each other's functions by name
(``from .estimators import apply_library``), so replacing
``estimators.apply_library`` alone would miss the call sites in
``cv_engine`` and ``simulation``.  :class:`Tracer` therefore replaces a
traced function at every module attribute bound to it, and
:meth:`Tracer.uninstall` puts the original object back at each of those
bindings, so untraced operations run unmodified code.

A span is ``(name, start, end, parent, extra, failed)``; ``parent`` is the
index of the enclosing span in the same list, or -1.  Spans stay in memory
and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import NamedTuple

#: The traced package, and its modules whose public functions are traced, in layer order.
PACKAGE = "covsel"
LAYER_MODULES = ("cli", "cv_engine", "estimators", "loss_risk", "matrix_core", "simulation")

#: The nine estimator families of the default library, one per-family fit metric each.
FAMILIES = (
    "sample_covariance",
    "hard_threshold",
    "scad_threshold",
    "adaptive_lasso",
    "banding",
    "tapering",
    "linear_shrinkage",
    "dense_linear_shrinkage",
    "poet",
)

#: Steps a fit reaches through the cached ``FitContext`` quantities.  The
#: first fit of an ``apply_library`` call that asks for one pays for every
#: family, so the per-family fit times leave them out.
SHARED_FIT_STEPS = ("matrix_core.sample_covariance", "matrix_core.eigendecompose")

MIB = float(1 << 20)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    extra: object
    failed: bool


def _fit_family(args, kwargs, result):
    spec = kwargs["spec"] if "spec" in kwargs else args[0]
    return spec.family


def _estimate_bytes(args, kwargs, result):
    # Only a materialised list can be sized without consuming it.
    if not isinstance(result, (list, tuple)):
        return None
    return sum(estimate.nbytes for estimate, _ in result if estimate is not None)


def _row_loss_entries(args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else args[0]
    psi = kwargs["psi"] if "psi" in kwargs else args[1]
    shape = getattr(rows, "shape", None) or (len(rows),)
    n_rows = 1 if len(shape) == 1 else shape[0]
    dim = len(psi)
    return n_rows * dim * dim


#: Per-function extra value recorded on each span, computed from the call.
ANNOTATORS = {
    "estimators.apply_with_context": _fit_family,
    "estimators.apply_library": _estimate_bytes,
    "loss_risk.row_losses": _row_loss_entries,
}


def public_functions() -> dict:
    """``{"<module>.<name>": function}`` for the public functions of each layer."""
    found = {}
    for short in LAYER_MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                found[f"{short}.{name}"] = obj
    return found


def package_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records spans for calls into the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        annotate = ANNOTATORS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                extra = None
                if annotate is not None and not failed:
                    extra = annotate(args, kwargs, result)
                spans[index] = Span(name, start, end, parent, extra, failed)

        return traced

    def install(self) -> None:
        """Wrap each public layer function at every package binding of it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions().items()}
        for module in package_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    self._restore.append((namespace, attr, value))
                    namespace[attr] = pair[1]

    def uninstall(self) -> None:
        """Put every original function object back where :meth:`install` found it."""
        while self._restore:
            namespace, attr, original = self._restore.pop()
            namespace[attr] = original

    def reset(self) -> None:
        """Drop recorded spans, so the next operation starts a fresh tree."""
        if self._stack:
            raise RuntimeError("cannot reset while a span is open")
        self.spans.clear()


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def family_fit_times(spans) -> dict:
    """Seconds of the successful fits per family, without the shared steps they trigger."""
    shared: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.name not in SHARED_FIT_STEPS:
            continue
        fit = span.parent
        while fit >= 0 and spans[fit].name != "estimators.apply_with_context":
            fit = spans[fit].parent
        if fit >= 0:
            shared.setdefault(fit, []).append((span.start, span.end))
    times = dict.fromkeys(FAMILIES, 0.0)
    for i, span in enumerate(spans):
        if span.name == "estimators.apply_with_context" and span.extra in times:
            times[span.extra] += (span.end - span.start) - covered(shared.get(i, ()), span.start, span.end)
    return times


def _busy(spans_of_name) -> float:
    """Inclusive busy seconds: the union of one function's span intervals."""
    intervals = [(s.start, s.end) for s in spans_of_name]
    if not intervals:
        return 0.0
    lo = min(start for start, _ in intervals)
    hi = max(end for _, end in intervals)
    return covered(intervals, lo, hi)


# The functions reported with each statistic, named ``<function>.<statistic>``.
_CALLS = (
    "loss_risk.row_losses",
    "estimators.apply_library",
    "matrix_core.is_psd",
    "matrix_core.spectral_norm",
    "matrix_core.eigendecompose",
    "matrix_core.sample_covariance",
    "matrix_core.scaled_frobenius_sq",
    "loss_risk.true_risk_difference",
    "cv_engine.evaluate_candidates",
    "simulation.sample_gaussian",
    "simulation.build_model_covariance",
)
_BUSY = (
    "loss_risk.row_losses",
    "estimators.apply_library",
    "matrix_core.is_psd",
    "matrix_core.spectral_norm",
    "matrix_core.eigendecompose",
    "matrix_core.sample_covariance",
    "matrix_core.scaled_frobenius_sq",
    "loss_risk.true_risk_difference",
    "cv_engine.make_splits",
    "simulation.sample_gaussian",
    "simulation.build_model_covariance",
    "cli.read_numeric_csv",
    "cli.write_results_csv",
)
_SELF = (
    "cv_engine.select",
    "cv_engine.evaluate_candidates",
    "simulation.run_experiment",
    "simulation.run_benchmark",
    "cli.main",
    "cli.cmd_select",
    "cli.cmd_simulate",
    "cli.cmd_bench",
)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced operation, zero where a layer was not called."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    selfs = self_times(spans)
    self_by_name: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + own

    metrics: dict[str, float] = {}
    for name in _CALLS:
        metrics[f"{name}.calls"] = len(by_name.get(name, ()))
    for name in _BUSY:
        metrics[f"{name}.s"] = _busy(by_name.get(name, ()))
    for name in _SELF:
        metrics[f"{name}.self_s"] = self_by_name.get(name, 0.0)

    metrics["loss_risk.row_losses.entries"] = sum(
        s.extra for s in by_name.get("loss_risk.row_losses", ()) if s.extra is not None
    )
    library_bytes = [s.extra for s in by_name.get("estimators.apply_library", ()) if s.extra is not None]
    metrics["estimators.apply_library.result_mb"] = max(library_bytes, default=0) / MIB

    fits = by_name.get("estimators.apply_with_context", ())
    failures = sum(1 for s in fits if s.failed)
    metrics["estimators.fits"] = len(fits)
    metrics["estimators.fit_failures"] = failures
    metrics["estimators.fit_ok_ratio"] = (len(fits) - failures) / len(fits) if fits else 0.0
    for family, seconds in family_fit_times(spans).items():
        metrics[f"estimators.fit.{family}.s"] = seconds
    metrics["trace.spans"] = len(spans)
    return metrics


#: Metrics that are counts of work and must repeat exactly for one seed.
COUNT_METRICS = tuple(f"{name}.calls" for name in _CALLS) + (
    "estimators.fits",
    "estimators.fit_failures",
    "loss_risk.row_losses.entries",
    "estimators.apply_library.result_mb",
    "trace.spans",
)
