"""Covariance models, Gaussian sampling, and the Monte-Carlo experiment runner.

Eight covariance models cover dense, banded, tapered, random-sparse, and
latent-factor structures.  The runner draws mean-zero Gaussian datasets
from each model over a grid of sample sizes and dimension ratios, runs the
cross-validated selector next to the exact oracle selectors, and emits
long-format result rows from which risk-difference ratios and mean norm
errors are summarized.

Seeding: every replication derives independent streams for the model
draw, the data draw, and the CV split from
``SeedSequence([master, model, n, ratio_index, replication, stream])``
with stream tags 0, 1, and 2, so any cell can be reproduced in isolation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cv_engine import (
    _argmin,
    _full_data_errors,
    _residual_norms,
    evaluate_candidates,
    make_splits,
    split_scheme,
    validation_fraction,
)
from .errors import ConfigError, DegenerateFeatureError, EstimationError, SelectionError
# apply_library stays bound here for code that patches or traces it by this name.
from .estimators import (  # noqa: F401
    CandidateLibrary,
    FitContext,
    _ranked_refits,
    apply_library,
    default_library,
    wide_library,
)
from .loss_risk import _CONSTANT_SCALINGS, _scaling
from .matrix_core import _frobenius_norm, _has_cholesky, as_square_matrix, center_columns, symmetrize

__all__ = [
    "CovModelSpec",
    "build_model_covariance",
    "sample_gaussian",
    "ExperimentConfig",
    "ResultRow",
    "CellStats",
    "ExperimentResult",
    "expected_row_count",
    "run_experiment",
    "summarize_ratios",
    "BenchmarkResult",
    "run_benchmark",
    "benchmark_table",
    "SELECTED_SUBJECT",
    "CV_ORACLE_SUBJECT",
    "FULL_ORACLE_SUBJECT",
]

logger = logging.getLogger(__name__)

#: Subject labels used in result rows next to individual candidate ids.
SELECTED_SUBJECT = "cvCovEst"
CV_ORACLE_SUBJECT = "cv-oracle"
FULL_ORACLE_SUBJECT = "full-oracle"

#: Each metric's result-row name and, for a risk difference, the subject of its oracle.
_METRIC_ROWS = {
    "cv_ratio": ("cv_risk_diff", CV_ORACLE_SUBJECT),
    "full_ratio": ("full_risk_diff", FULL_ORACLE_SUBJECT),
    "frobenius": ("frobenius", None),
    "spectral": ("spectral", None),
}
_METRICS = tuple(_METRIC_ROWS)
#: The metrics :func:`run_benchmark` reports.
_BENCH_METRICS = ("frobenius", "spectral")


@dataclass(frozen=True)
class CovModelSpec:
    """One covariance model instance: model number, dimension, draw seed.

    Models 1-4, 6, and 7 are deterministic in the dimension; models 5 and
    8 are deterministic in ``(dim, seed)``.
    """

    model: int
    dim: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.model <= 8:
            raise ConfigError(f"model must be in 1..8, got {self.model}")
        if self.dim < 1:
            raise ConfigError(f"dimension must be positive, got {self.dim}")


def _repair_psd(matrix: np.ndarray) -> np.ndarray:
    """Clip the spectrum at 1e-10 when a model matrix is not PD.

    Matrices that are already positive definite are returned untouched so
    their entries stay exactly as constructed.  The clip matters for
    model 3, whose banded construction is indefinite once the dimension
    exceeds 3; the repaired matrix is the covariance actually sampled
    from and benchmarked against.

    A Cholesky factor of ``matrix - (1e-10 + margin) I`` clears a matrix
    without the ``eigh``.  The margin, ``1e-8 ||matrix||_F``, is orders of
    magnitude above the rounding of both the factorization and ``eigh``, so
    every matrix it clears is one whose ``eigh`` spectrum starts at or
    above 1e-10 too, and the result is the same as from ``eigh`` alone.
    """
    if _has_cholesky(matrix, -(1e-10 + 1e-8 * _frobenius_norm(matrix))):
        return matrix
    eigvals, eigvecs = np.linalg.eigh(matrix)
    if float(eigvals[0]) >= 1e-10:
        return matrix
    clipped = np.maximum(eigvals, 1e-10)
    out = (eigvecs * clipped) @ eigvecs.T
    return 0.5 * (out + out.T)


def build_model_covariance(spec: CovModelSpec) -> np.ndarray:
    """Construct the model covariance matrix.

    1. dense: unit diagonal, 0.5 elsewhere
    2. AR(1): ``0.7 ** |j - l|``
    3. MA(1): AR(1) truncated beyond the first off-diagonal
    4. MA(2): 1 / 0.6 / 0.3 by band, 0 beyond
    5. random sparse: a uniform draw mapped to {1, -1, 0}, crossprod plus
       identity, rescaled to a correlation matrix
    6. Toeplitz: ``0.6 * |j - l| ** -1.3`` off the diagonal
    7. model 6 with alternating off-diagonal signs
    8. three-factor: ``beta @ beta.T + I`` with standard normal loadings

    The result is guaranteed positive definite: a construction with
    negative eigenvalues (model 3 beyond dimension 3) is spectrally
    clipped, see :func:`_repair_psd`.
    """
    dim = spec.dim
    idx = np.arange(dim)
    dist = np.abs(idx[:, None] - idx[None, :])
    if spec.model == 1:
        psi = np.where(dist == 0, 1.0, 0.5)
    elif spec.model == 2:
        psi = 0.7 ** dist.astype(np.float64)
    elif spec.model == 3:
        psi = np.where(dist <= 1, 0.7 ** dist.astype(np.float64), 0.0)
    elif spec.model == 4:
        psi = np.select([dist == 0, dist == 1, dist == 2], [1.0, 0.6, 0.3], default=0.0)
    elif spec.model == 5:
        rng = np.random.default_rng(spec.seed)
        draw = rng.uniform(size=(dim, dim))
        signs = np.where(draw < 0.25, 1.0, np.where(draw < 0.5, -1.0, 0.0))
        gram = signs.T @ signs + np.eye(dim)
        scale = np.sqrt(np.diag(gram))
        psi = gram / np.outer(scale, scale)
        np.fill_diagonal(psi, 1.0)
    elif spec.model in (6, 7):
        psi = np.eye(dim)
        off = dist > 0
        decay = 0.6 * dist[off].astype(np.float64) ** -1.3
        if spec.model == 7:
            decay *= (-1.0) ** dist[off]
        psi[off] = decay
    else:
        rng = np.random.default_rng(spec.seed)
        loadings = rng.standard_normal((dim, 3))
        psi = loadings @ loadings.T + np.eye(dim)
    return _repair_psd(psi)


def sample_gaussian(psi, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` mean-zero Gaussian rows with covariance ``psi``.

    Uses a spectral factorization so positive semi-definite but singular
    matrices sample correctly.  The matrix is symmetrized and eigenvalues
    below 1e-10 are treated as zero; genuinely negative spectra raise.
    """
    if n < 1:
        raise ConfigError(f"need at least one draw, got {n}")
    return _draw(_sampling_factor(psi), n, seed)


def _sampling_factor(psi) -> np.ndarray:
    """``F`` with ``F @ F.T == psi`` for :func:`sample_gaussian`."""
    psi = symmetrize(as_square_matrix(psi))
    try:
        eigvals, eigvecs = np.linalg.eigh(psi)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"factorization of the sampling covariance failed: {exc}") from exc
    tol = 1e-8 * max(float(eigvals[-1]), 1.0)
    if float(eigvals[0]) < -tol:
        raise EstimationError(
            f"sampling covariance is not positive semi-definite (min eigenvalue {eigvals[0]:.3e})"
        )
    eigvals = np.where(eigvals < 1e-10, 0.0, eigvals)
    return eigvecs * np.sqrt(eigvals)


def _draw(factor: np.ndarray, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, factor.shape[0])) @ factor.T


# ---------------------------------------------------------------------------
# Experiment configuration and result rows
# ---------------------------------------------------------------------------


def _check_metrics(metrics, supported) -> None:
    """Reject a metric not in ``supported``, the metrics a command reports."""
    unsupported = [m for m in metrics if m not in supported]
    if unsupported:
        raise ConfigError(f"unsupported metrics {unsupported}; supported: {list(supported)}")


def _dim_for(n: int, ratio: float) -> int:
    return int(np.rint(ratio * n))


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition for a Monte-Carlo run.

    One cell is a ``(model, n, ratio)`` triple with dimension
    ``round(ratio * n)``.  ``metrics`` picks which result rows are
    emitted.  The selector scores the matrix risk, which selects as the
    observation risk does.  Model matrices for models 5 and 8 are
    redrawn each replication unless ``fix_model`` is set.  ``library``
    defaults to :func:`~covsel.estimators.default_library`.

    The CV design is V-fold by default; setting ``validation_fraction``
    switches to ``split_count`` random splits, one if that is not given.
    """

    models: tuple[int, ...]
    sample_sizes: tuple[int, ...]
    ratios: tuple[float, ...]
    replications: int
    folds: int = 5
    validation_fraction: float | None = None
    split_count: int | None = None
    metrics: tuple[str, ...] = _METRICS
    seed: int = 0
    scaling: str = "one"
    center: bool = False
    fix_model: bool = False
    library: CandidateLibrary = field(default_factory=default_library)

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(int(m) for m in self.models))
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not self.models:
            raise ConfigError("need at least one model")
        for model in self.models:
            CovModelSpec(model, 1)
        if not self.sample_sizes:
            raise ConfigError("need at least one sample size")
        if not self.ratios or any(r <= 0 for r in self.ratios):
            raise ConfigError("dimension ratios must be positive")
        lists = (("models", self.models), ("n", self.sample_sizes), ("ratio", self.ratios), ("metrics", self.metrics))
        for key, values in lists:
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{key} lists {repeated[0]!r} more than once")
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        _check_metrics(self.metrics, _METRICS)
        if not self.metrics:
            raise ConfigError("at least one metric is required")
        if self.scaling not in _CONSTANT_SCALINGS:
            raise ConfigError(f"simulation runs use a constant scaling factor ({', '.join(_CONSTANT_SCALINGS)})")
        for n in self.sample_sizes:
            # make_splits holds the CV design's rules; a design it rejects fails here, not mid-run.
            make_splits(self.scheme(0), n)
            for ratio in self.ratios:
                if not math.isfinite(ratio * n):
                    raise ConfigError(f"ratio {ratio} with n={n} gives no finite dimension")
                dim = _dim_for(n, ratio)
                if dim < 2:
                    raise ConfigError(f"cell n={n}, ratio={ratio} yields dimension {dim} < 2")

    def cells(self) -> list[tuple[int, int, int, float, int]]:
        """All (model, n, ratio_index, ratio, dim) grid cells in run order."""
        out = []
        for model in self.models:
            for n in self.sample_sizes:
                for ratio_idx, ratio in enumerate(self.ratios):
                    out.append((model, n, ratio_idx, ratio, _dim_for(n, ratio)))
        return out

    def scheme(self, seed: int):
        """The CV scheme for one replication, seeded."""
        return split_scheme(self.folds, self.validation_fraction, self.split_count, seed)


@dataclass(frozen=True)
class ResultRow:
    """One long-format result value."""

    model: int
    n: int
    dim: int
    ratio: float
    replication: int
    subject: str
    metric: str
    value: float
    seed: int


@dataclass(frozen=True)
class CellStats:
    """Per-cell side information needed for the finite-sample bound.

    ``max_abs_estimate``, the bound's ``m2``, is the largest of each
    replication's ``max|psi0|`` and its training folds' ``max|S|``
    (:attr:`~covsel.cv_engine.CandidateEvaluation.max_abs_estimate`), so
    it does not depend on which other metrics run.  It is ``None`` unless
    ``cv_ratio`` was run, the only metric whose bound reads it.
    """

    model: int
    n: int
    dim: int
    ratio: float
    n_candidates: int
    validation_fraction: float
    max_sq_observation: float
    max_abs_estimate: float | None


@dataclass
class ExperimentResult:
    rows: list[ResultRow]
    cells: list[CellStats]
    #: The cells that failed on their data, each ``{model, n, ratio, reason}``.
    skipped: list[dict]


def expected_row_count(config: ExperimentConfig) -> int:
    """Exact number of result rows a clean run will produce."""
    n_candidates = len(config.library)
    # Per metric: every candidate, the selection and, for a risk difference, its oracle.
    per_rep = sum(n_candidates + 1 + (_METRIC_ROWS[m][1] is not None) for m in config.metrics)
    return len(config.cells()) * config.replications * per_rep


def _stream_seed(master: int, model: int, n: int, ratio_idx: int, rep: int, stream: int) -> int:
    sequence = np.random.SeedSequence([int(master), model, n, ratio_idx, rep, stream])
    return int(sequence.generate_state(1, np.uint64)[0])


def _replications(config: ExperimentConfig, model: int, n: int, ratio_idx: int, dim: int):
    """Yield ``(rep, psi0, data, data_seed, splits)`` for each replication of one cell.

    Models 5 and 8 are redrawn each replication unless ``config.fix_model``
    is set; every other model matrix is built, and factorized for
    sampling, once per cell.
    """
    redrawn = model in (5, 8) and not config.fix_model
    psi0 = None
    for rep in range(config.replications):
        if psi0 is None or redrawn:
            model_seed = _stream_seed(config.seed, model, n, ratio_idx, rep if redrawn else 0, 0)
            psi0 = build_model_covariance(CovModelSpec(model, dim, model_seed))
            factor = _sampling_factor(psi0)
        data_seed = _stream_seed(config.seed, model, n, ratio_idx, rep, 1)
        data = _draw(factor, n, data_seed)
        split_seed = _stream_seed(config.seed, model, n, ratio_idx, rep, 2)
        yield rep, psi0, data, data_seed, make_splits(config.scheme(split_seed), n)


def _run_cell(config: ExperimentConfig, library: CandidateLibrary, model: int, n: int,
              ratio_idx: int, ratio: float, dim: int) -> tuple[list[tuple], CellStats]:
    rows: list[tuple] = []
    max_sq_obs = 0.0
    max_abs_est = 0.0
    want_cv = "cv_ratio" in config.metrics

    for rep, psi0, data, data_seed, splits in _replications(config, model, n, ratio_idx, dim):
        ev = evaluate_candidates(
            library, data, splits,
            scaling=config.scaling, center=config.center, risk="matrix", psi0=psi0 if want_cv else None,
        )
        failures = dict(ev.failures)
        # Per result-row metric, each candidate's value.
        values = {"cv_risk_diff": ev.mean_oracle_diffs()} if want_cv else {}
        if set(config.metrics) != {"cv_ratio"}:
            full_data = center_columns(data) if config.center else data
            # full_risk_diff is in the oracle's eta units, as cv_risk_diff is.
            full_diffs, frobenius, spectral, full_failures = _full_data_errors(
                library, full_data, psi0, _scaling(config.scaling, psi0), spectral="spectral" in config.metrics
            )
            for idx, failure in full_failures.items():
                failures.setdefault(idx, f"full-data fit: {failure}")
            values.update(full_risk_diff=full_diffs, frobenius=frobenius, spectral=spectral)
        excluded = list(failures)
        for idx in excluded:
            logger.warning(
                "model %d n=%d J=%d rep %d: excluded %s (%s)",
                model, n, dim, rep, library[idx].id, failures[idx],
            )

        selector = ev.mean_risks()
        selector[excluded] = np.nan
        k_hat = _argmin(selector)
        max_sq_obs = max(max_sq_obs, float(np.max(data * data)))
        if want_cv:
            max_abs_est = max(max_abs_est, ev.max_abs_estimate, float(np.max(np.abs(psi0))))

        kept = [(spec.id, idx) for idx, spec in enumerate(library) if idx not in failures]
        for metric in config.metrics:
            name, oracle = _METRIC_ROWS[metric]
            per_candidate = values[name]
            per_candidate[excluded] = np.nan
            picks = [*kept, (SELECTED_SUBJECT, k_hat)]
            if oracle is not None:
                picks.append((oracle, _argmin(per_candidate)))
            rows.extend((rep, subject, name, float(per_candidate[idx]), data_seed) for subject, idx in picks)

    stats = CellStats(
        model=model, n=n, dim=dim, ratio=ratio,
        n_candidates=len(library), validation_fraction=validation_fraction(config.scheme(0)),
        max_sq_observation=max_sq_obs, max_abs_estimate=max_abs_est if want_cv else None,
    )
    return rows, stats


def _run_grid(config: ExperimentConfig, run_cell) -> tuple[list[ResultRow], list, list[dict]]:
    """Each cell's rows, sorted, its stats, and the cells skipped, from ``run_cell(model, n, ratio_idx, ratio, dim)``.

    ``run_cell`` returns the cell's rows as ``(replication, subject,
    metric, value, seed)`` tuples, and its stats.  A cell that raises one
    of the package's errors or ``LinAlgError`` is logged and skipped, and
    recorded as ``{model, n, ratio, reason}``; any other exception ends
    the run.
    """
    rows: list[ResultRow] = []
    cells = []
    skipped = []
    for model, n, ratio_idx, ratio, dim in config.cells():
        try:
            cell_rows, stats = run_cell(model, n, ratio_idx, ratio, dim)
        except (ConfigError, EstimationError, SelectionError, DegenerateFeatureError, np.linalg.LinAlgError) as exc:
            logger.exception("cell model=%d n=%d ratio=%s failed; skipping", model, n, ratio)
            skipped.append({"model": model, "n": n, "ratio": ratio, "reason": f"{type(exc).__name__}: {exc}"})
            continue
        rows.extend(ResultRow(model, n, dim, ratio, *row) for row in cell_rows)
        cells.append(stats)
    rows.sort(key=lambda r: (r.model, r.n, r.ratio, r.replication, r.subject, r.metric))
    return rows, cells, skipped


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full grid; a cell that fails on its data skips that cell, not the run.

    Only the package's errors and ``LinAlgError`` skip a cell; any other
    exception is a fault in the program and ends the run.
    """
    rows, cells, skipped = _run_grid(config, partial(_run_cell, config, config.library))
    return ExperimentResult(rows=rows, cells=cells, skipped=skipped)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def _safe_ratio(numerator: float, denominator: float) -> float:
    if denominator == 0.0:
        return 1.0 if numerator == 0.0 else math.inf
    return numerator / denominator


def _cell_key(row: ResultRow) -> tuple:
    return (row.model, row.n, row.dim, row.ratio)


def summarize_ratios(rows, metrics=None) -> dict:
    """Per-cell ratios and mean norms recomputed from long-format rows.

    For risk-difference metrics the summary reports the ratio of
    Monte-Carlo means (selected vs oracle) together with the mean and max
    of the per-replication ratios; for norm metrics it reports the mean
    per subject.  ``metrics``, when given, must all be present in ``rows``.
    """
    by_cell: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        by_cell.setdefault(_cell_key(row), []).append(row)
    present = {row.metric for row in rows}
    if metrics is not None:
        missing = {_METRIC_ROWS.get(metric, (metric, None))[0] for metric in metrics} - present
        if missing:
            raise ConfigError(f"rows are missing requested metrics: {sorted(missing)}")

    cells = []
    for key in sorted(by_cell):
        model, n, dim, ratio = key
        cell_rows = by_cell[key]
        summary: dict = {"model": model, "n": n, "J": dim, "ratio": ratio}
        summary["replications"] = len({r.replication for r in cell_rows})

        for metric, oracle_subject in _METRIC_ROWS.values():
            if oracle_subject is None:
                by_subject: dict[str, list[float]] = {}
                for row in cell_rows:
                    if row.metric == metric:
                        by_subject.setdefault(row.subject, []).append(row.value)
                if by_subject:
                    summary[f"mean_{metric}"] = {
                        subject: float(np.mean(values)) for subject, values in sorted(by_subject.items())
                    }
                continue
            picked = {r.replication: r.value for r in cell_rows
                      if r.metric == metric and r.subject == SELECTED_SUBJECT}
            oracle = {r.replication: r.value for r in cell_rows
                      if r.metric == metric and r.subject == oracle_subject}
            if not picked or set(picked) != set(oracle):
                continue
            reps = sorted(picked)
            picked_mean = float(np.mean([picked[r] for r in reps]))
            oracle_mean = float(np.mean([oracle[r] for r in reps]))
            per_rep = [_safe_ratio(picked[r], oracle[r]) for r in reps]
            label = metric.removesuffix("_risk_diff")
            summary[f"{label}_ratio_of_means"] = _safe_ratio(picked_mean, oracle_mean)
            summary[f"{label}_ratio_per_replication_mean"] = float(np.mean(per_rep))
            summary[f"{label}_ratio_per_replication_max"] = float(np.max(per_rep))
            summary[f"{label}_risk_diff_mean_selected"] = picked_mean
            summary[f"{label}_risk_diff_mean_oracle"] = oracle_mean
        cells.append(summary)
    return {"cells": cells}


# ---------------------------------------------------------------------------
# Norm benchmark with per-family tuning
# ---------------------------------------------------------------------------


@dataclass
class BenchmarkResult:
    rows: list[ResultRow]
    table: list[dict]
    procedures: tuple[str, ...]
    #: The cells that failed on their data, as in :class:`ExperimentResult`.
    skipped: list[dict]


def _family_grids(library: CandidateLibrary) -> dict[str, list]:
    grids: dict[str, list] = {}
    for spec in library:
        grids.setdefault(spec.family, []).append(spec)
    return grids


def benchmark_table(rows) -> list[dict]:
    """Mean value per (cell, procedure, metric) from benchmark rows."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        groups.setdefault((_cell_key(row), row.subject, row.metric), []).append(row.value)
    table = []
    for (cell, subject, metric) in sorted(groups, key=lambda k: (k[0], str(k[1]), k[2])):
        model, n, dim, ratio = cell
        values = groups[(cell, subject, metric)]
        table.append(
            {
                "model": model, "n": n, "J": dim, "ratio": ratio,
                "procedure": subject, "metric": metric,
                "mean": float(np.mean(values)), "replications": len(values),
            }
        )
    return table


def run_benchmark(config: ExperimentConfig, tuning_grids: dict | None = None) -> BenchmarkResult:
    """Norm benchmark: the selector against each family tuned on its own.

    The selector picks from ``config``'s library while each single-family
    procedure picks, with the same CV scheme and risk, from its (usually
    denser) grid in ``tuning_grids``.  Every procedure's winner is then
    refitted on the full dataset and its error norms against the true
    covariance matrix are recorded under the procedure's name.  Only
    winners are refitted; when a winner's full-data fit fails, the
    procedure falls back to its next-ranked candidate.  A cell that fails
    on its data is skipped, as in :func:`run_experiment`.
    """
    _check_metrics(config.metrics, _BENCH_METRICS)
    if tuning_grids is None:
        tuning_grids = _family_grids(wide_library())

    union_specs = list(config.library)
    index_of = {spec.id: i for i, spec in enumerate(union_specs)}
    for specs in tuning_grids.values():
        for spec in specs:
            if spec.id not in index_of:
                index_of[spec.id] = len(union_specs)
                union_specs.append(spec)
    union = CandidateLibrary(tuple(union_specs))
    groups: dict[str, list[int]] = {SELECTED_SUBJECT: [index_of[s.id] for s in config.library]}
    for family, specs in tuning_grids.items():
        groups[family] = [index_of[s.id] for s in specs]
    procedures = tuple(groups)

    def run_cell(model: int, n: int, ratio_idx: int, ratio: float, dim: int) -> tuple[list[tuple], None]:
        rows: list[tuple] = []
        for rep, psi0, data, data_seed, splits in _replications(config, model, n, ratio_idx, dim):
            ev = evaluate_candidates(
                union, data, splits,
                scaling=config.scaling, center=config.center, risk="matrix",
            )
            selector = ev.mean_risks()
            ctx = FitContext(center_columns(data) if config.center else data)
            full_fits: dict[int, tuple] = {}
            for procedure, indices in groups.items():
                refits = _ranked_refits(union, ctx, selector, indices, cache=full_fits)
                estimate = next((fit for _, fit, failure in refits if failure is None), None)
                if estimate is None:
                    logger.warning(
                        "model %d n=%d J=%d rep %d: procedure %s has no valid candidate",
                        model, n, dim, rep, procedure,
                    )
                    continue
                squares, norm = _residual_norms(estimate - psi0, "spectral" in config.metrics)
                errors = {"frobenius": math.sqrt(squares), "spectral": norm}
                rows.extend((rep, procedure, metric, errors[metric], data_seed) for metric in config.metrics)
        return rows, None

    rows, _, skipped = _run_grid(config, run_cell)
    return BenchmarkResult(rows=rows, table=benchmark_table(rows), procedures=procedures, skipped=skipped)
