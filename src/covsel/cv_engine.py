"""Cross-validation splits, risk estimation, and the candidate selector.

A split scheme is expanded into boolean validation masks; for each split,
every candidate is fitted on the training rows and scored on the
validation rows.  The selector picks the candidate with the smallest risk
averaged over splits (unweighted mean), breaking exact ties in favour of
the lowest library index.  When the true covariance matrix is known (in
simulation), the same pass also scores every training-fold estimate
against it, and the cross-validated oracle selects from those exact risk
differences instead of estimated risks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Union

import numpy as np

from . import _grid, _workers
from .errors import ConfigError, SelectionError
# apply_library stays bound here for code that patches or traces it by this name.
from .estimators import (  # noqa: F401
    _SCORERS,
    CandidateLibrary,
    FitContext,
    _ranked_refits,
    _score_directly,
    _score_fits,
    apply_library,
    iter_fits,
)
from .loss_risk import _scaling
from .matrix_core import (
    as_data_matrix,
    as_square_matrix,
    center_columns,
    is_psd,
    sample_covariance,
    scaled_frobenius_sq,
    spectral_norm,
)

__all__ = [
    "VFold",
    "MonteCarloSplit",
    "SplitScheme",
    "split_scheme",
    "validation_fraction",
    "scheme_description",
    "make_splits",
    "CandidateEvaluation",
    "evaluate_candidates",
    "CandidateResult",
    "SelectionReport",
    "select",
    "OracleReport",
    "oracle_select_cv",
    "oracle_select_full",
]


@dataclass(frozen=True)
class VFold:
    """Partition into ``folds`` balanced folds; each fold validates once."""

    folds: int
    seed: int = 0


@dataclass(frozen=True)
class MonteCarloSplit:
    """``count`` independent random splits with a fixed validation fraction."""

    count: int
    validation_fraction: float
    seed: int = 0


SplitScheme = Union[VFold, MonteCarloSplit]


def split_scheme(folds: int = 5, fraction=None, count=None, seed: int = 0) -> SplitScheme:
    """The CV design: V-fold, or with a validation ``fraction`` ``count`` random splits (one by default)."""
    if fraction is None and count is not None:
        raise ConfigError("a split count (--splits) needs a validation fraction (--pn)")
    if fraction is None:
        return VFold(folds, seed=seed)
    return MonteCarloSplit(1 if count is None else count, fraction, seed=seed)


def validation_fraction(scheme: SplitScheme) -> float:
    """The validation proportion implied by a scheme."""
    if isinstance(scheme, VFold):
        return 1.0 / scheme.folds
    return scheme.validation_fraction


_SCHEME_KINDS = {VFold: "v_fold", MonteCarloSplit: "monte_carlo"}


def scheme_description(scheme: SplitScheme) -> dict:
    """The scheme's kind and fields, as ``selection_report.json`` records them."""
    return {"kind": _SCHEME_KINDS[type(scheme)], **asdict(scheme)}


def _random_masks(rng, n: int, fraction: float, count: int) -> list[np.ndarray]:
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"validation fraction must lie in (0, 1), got {fraction}")
    if n * fraction < 1.0:
        raise ConfigError(f"validation fraction {fraction} selects no rows out of {n}")
    n_val = math.ceil(n * fraction)
    if n_val >= n:
        raise ConfigError(f"validation fraction {fraction} leaves no training rows out of {n}")
    masks = []
    for _ in range(count):
        mask = np.zeros(n, dtype=bool)
        mask[rng.permutation(n)[:n_val]] = True
        masks.append(mask)
    return masks


def make_splits(scheme: SplitScheme, n: int) -> list[np.ndarray]:
    """Expand a scheme into boolean validation masks of length ``n``.

    Deterministic in ``(scheme, scheme.seed, n)``.  V-fold masks partition
    the index set with fold sizes balanced within one (the first
    ``n mod V`` folds take the extra observation).
    """
    if n < 2:
        raise ConfigError(f"need at least 2 observations to split, got {n}")
    if scheme.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {scheme.seed}")
    rng = np.random.default_rng(scheme.seed)
    if isinstance(scheme, VFold):
        if scheme.folds < 2:
            raise ConfigError(f"need at least 2 folds, got {scheme.folds}")
        if scheme.folds > n:
            raise ConfigError(f"cannot make {scheme.folds} folds from {n} observations")
        perm = rng.permutation(n)
        base, extra = divmod(n, scheme.folds)
        masks = []
        start = 0
        for fold in range(scheme.folds):
            size = base + (1 if fold < extra else 0)
            mask = np.zeros(n, dtype=bool)
            mask[perm[start : start + size]] = True
            masks.append(mask)
            start += size
        return masks
    if isinstance(scheme, MonteCarloSplit):
        if scheme.count < 1:
            raise ConfigError(f"need at least one split, got {scheme.count}")
        return _random_masks(rng, n, scheme.validation_fraction, scheme.count)
    raise ConfigError(f"unknown split scheme {scheme!r}")


def _observation_offset(val: np.ndarray, val_cov: np.ndarray, eta) -> float:
    """The candidate-free part of the mean observation loss on ``val``.

    For any estimate ``psi``, ``mean_i L(x_i; psi, eta)`` equals
    ``scaled_frobenius_sq(val_cov - psi, eta)`` plus this constant,
    ``mean_i q_i^T eta q_i - scaled_frobenius_sq(val_cov, eta)`` with
    ``q_i = x_i * x_i``, so scoring a candidate needs no per-row work.
    """
    q = val * val
    if isinstance(eta, np.ndarray):
        fourth = float(np.sum((q @ eta) * q)) / val.shape[0]
    else:
        fourth = eta * float(np.mean(np.sum(q, axis=1) ** 2))
    return fourth - scaled_frobenius_sq(val_cov, eta)


@dataclass
class CandidateEvaluation:
    """Per-candidate, per-split risks from one cross-validation pass.

    ``risks`` holds the requested risk flavour and ``oracle_diffs`` the
    exact risk differences, ``None`` without a true covariance.  Arrays
    have shape ``(K, n_splits)`` and hold NaN for failed candidates.  A
    candidate that fails on any split is excluded outright; ``failures``
    maps its library index to the first reason seen.
    """

    risks: np.ndarray
    oracle_diffs: np.ndarray | None
    failures: dict[int, str]
    warnings: tuple[str, ...]

    def _means(self, values: np.ndarray) -> np.ndarray:
        means = values.mean(axis=1)
        means[list(self.failures)] = np.nan
        return means

    def mean_risks(self) -> np.ndarray:
        return self._means(self.risks)

    def mean_oracle_diffs(self) -> np.ndarray:
        return self._means(self.oracle_diffs)


def evaluate_candidates(
    library: CandidateLibrary,
    data,
    splits,
    *,
    scaling: str = "one",
    center: bool = True,
    risk: str = "observation",
    psi0=None,
) -> CandidateEvaluation:
    """Fit and score every candidate over every split in one pass.

    ``splits`` are boolean validation masks of length ``n``; each split
    trains on the complement of its mask.  ``risk="matrix"`` scores the
    squared scaled distance to the validation sample covariance;
    ``risk="observation"`` the mean observation-level loss on the
    validation rows, computed in closed form as that same distance plus
    one per-split constant that does not depend on the candidate, for
    any scaling (:func:`_observation_offset`), so both cost the same and
    rank candidates alike.  With ``psi0`` given, which must be exactly
    symmetric, exact risk differences against it are also recorded for
    each training-fold estimate, in the same pass.

    Each split is one :func:`~covsel.estimators._score_fits` call, which
    scores the grid families from shared sums over the training
    covariance and fits only the other candidates.  Those sums round
    differently from one sum per estimate, so candidates whose mean
    values lie within :data:`_TIE_RTOL` of the smallest are scored again
    on the direct path, :func:`~covsel.estimators._score_directly`: ties,
    and the selections that break them, are those of fitting and scoring
    every candidate.

    The splits are units of equal cost for :func:`~covsel._workers._map`,
    so split ``i`` goes to share ``i mod W`` of at most one process per
    split: this one and forked children, so that as many folds as
    processes are live at once, one in each.  The results come back in
    split order, so they, and the error when several splits raise (the
    lowest split's), are those of one process at any worker count.  The
    near-tie pass runs here after the merge.  A pass inside a share of a
    run on workers, a ``simulate`` replication say, stays in its process.

    With ``center=True`` each training fold is column-centered and the
    fold means are subtracted from its validation rows before scoring.
    Data so small that their fourth powers, the size of every risk's
    terms, are subnormal (see :data:`_UNDERFLOW_LIMIT`) are an input
    error, as are data whose risk overflows.
    """
    data = as_data_matrix(data, min_rows=2)
    n, dim = data.shape
    if risk not in ("observation", "matrix"):
        raise ConfigError(f"risk must be 'observation' or 'matrix', got {risk!r}")
    # The largest |x|, from two passes and no n x J temporary.
    largest = max(float(np.max(data)), -float(np.min(data)))
    if 0 < largest < _UNDERFLOW_LIMIT:
        raise ConfigError(
            f"the {risk} risk underflows the float range: the data's smallest nonzero |x| is "
            f"{float(np.min(np.abs(data[data != 0]))):.6g} and its largest {largest:.6g}; rescale the data, "
            f"by 2**{-math.frexp(largest)[1]} say"
        )
    if psi0 is not None:
        psi0 = as_square_matrix(psi0)
        if psi0.shape[0] != dim:
            raise ValueError(f"psi0 dimension {psi0.shape[0]} does not match data dimension {dim}")
        if not np.array_equal(psi0, psi0.T):
            raise ValueError("psi0 must be exactly symmetric")
        oracle_eta = _scaling(scaling, psi0)

    n_candidates = len(library)
    n_splits = len(splits)
    if n_splits == 0:
        raise ConfigError("at least one split is required")
    masks = []
    for split_idx, mask in enumerate(splits):
        val_mask = np.asarray(mask, dtype=bool)
        if val_mask.shape != (n,):
            raise ValueError(f"split mask {split_idx} does not match {n} observations")
        if not 0 < np.count_nonzero(val_mask) < n:
            raise ConfigError(f"split {split_idx} leaves an empty training or validation set")
        masks.append(val_mask)
    min_train = n - max(int(np.count_nonzero(mask)) for mask in masks)
    # Per target (the validation covariance, then psi0), candidate and split:
    # the distance to the target, before the observation risk's per-split offset.
    values = np.full((1 + (psi0 is not None), n_candidates, n_splits), np.nan)
    bases = np.zeros((values.shape[0], n_splits))
    offsets = np.zeros(n_splits)
    failures: dict[int, str] = {}

    def fold_of(split_idx: int, layout: _grid.Layout | None) -> tuple[_grid.Fold, np.ndarray, float]:
        """The training fold of split ``split_idx`` with its targets, their base values and the offset.

        Finite data whose squared distances or ``x**4`` sums overflow
        would leave every candidate without a finite risk, so a fold whose
        risk overflows ends the pass before any of its candidates is fitted.
        """
        val_mask = masks[split_idx]
        train = data[~val_mask]
        val = data[val_mask]
        if center:
            fold_means = train.mean(axis=0, keepdims=True)
            train = train - fold_means
            val = val - fold_means
        ctx = FitContext(train)
        eta = _scaling(scaling, ctx.cov)
        val_cov = sample_covariance(val)
        oracle = [] if psi0 is None else [(psi0, oracle_eta)]
        fold = _grid.Fold(ctx, [(val_cov, eta), *oracle], layout)
        with np.errstate(over="ignore", invalid="ignore"):
            offset = _observation_offset(val, val_cov, eta) if risk == "observation" else 0.0
            base = fold.value(0.0)
            finite = np.isfinite(base[0]) and np.isfinite(offset)
        if not finite:
            raise ConfigError(
                f"the {risk} risk overflows the float range: the data's largest |x| is "
                f"{float(np.max(np.abs(data))):.6g}; rescale the data"
            )
        return fold, base, offset

    def scored(split_idx: int) -> tuple:
        """``(values, failures, base values, offset)`` of split ``split_idx``; its fold is dropped once scored."""
        fold, base, offset = fold_of(split_idx, layout)
        return (*_score_fits(library, fold), base, offset)

    # The grid scorers' row blocks depend only on J, so the folds share one
    # layout.  Every scorer but the identity's reads them: they are built
    # here, once, and the workers inherit them.
    layout = _grid.Layout(dim)
    if {_SCORERS.get(spec.family) for spec in library} - {None, _grid.score_identity}:
        layout.blocks  # a cached property
    for split_idx, (fold_values, fold_failures, base, offset) in enumerate(_workers._map(scored, [1] * n_splits)):
        for cand_idx, failure in fold_failures.items():
            failures.setdefault(cand_idx, failure)
        values[:, :, split_idx] = fold_values.T
        bases[:, split_idx] = base
        offsets[split_idx] = offset
    del layout  # the near-tie pass takes the direct path, which reads no blocks

    rescore = _near_minimum(values, bases, list(failures))
    if len(rescore) > 1:
        for split_idx in range(n_splits):
            _score_directly(library, fold_of(split_idx, None)[0], rescore, values[:, :, split_idx].T, failures)

    warnings = () if min_train >= dim else (
        f"training folds have as few as {min_train} observations for {dim} features; "
        "sample-covariance-based candidates are rank-deficient",
    )
    return CandidateEvaluation(
        risks=values[0] + offsets if risk == "observation" else values[0],
        oracle_diffs=values[1] if psi0 is not None else None,
        failures=failures,
        warnings=warnings,
    )


#: A candidate is scored again on the direct path when, for some target,
#: its mean value over the splits exceeds the smallest by at most this
#: fraction of the smallest plus the sample covariance's mean value.  Grid
#: values agree with the direct path's to within 1e-12 of the larger of a
#: value and the sample covariance's (see ``tests/test_grid_scoring.py``),
#: so no candidate outside the window ties the smallest there.
_TIE_RTOL = 1e-10

#: Data whose largest ``|x|`` is below this have fourth powers, the size of
#: every term of either risk, below the smallest normal float: the risks
#: lose their low bits, or are all 0.
_UNDERFLOW_LIMIT = float(np.finfo(float).tiny) ** 0.25


def _near_minimum(values: np.ndarray, bases: np.ndarray, failed: list[int]) -> list[int]:
    """Indices of the candidates within :data:`_TIE_RTOL` of the smallest mean value of any target."""
    near: set[int] = set()
    for per_target, base in zip(values, bases):
        means = per_target.mean(axis=1)
        means[failed] = np.nan
        finite = np.isfinite(means)
        if not finite.any():
            continue
        best = float(np.min(means[finite]))
        window = _TIE_RTOL * (float(np.mean(base)) + abs(best))
        near.update(int(i) for i in np.flatnonzero(finite & (means - best <= window)))
    return sorted(near)


def _argmin(values: np.ndarray) -> int:
    """The lowest index of the smallest finite value."""
    valid = np.flatnonzero(np.isfinite(values))
    if valid.size == 0:
        raise SelectionError("every candidate failed; nothing to select")
    return int(valid[np.argmin(values[valid])])


@dataclass
class CandidateResult:
    index: int
    id: str
    family: str
    params: dict
    cv_risk: float | None
    psd: bool | None
    failure: str | None


@dataclass
class SelectionReport:
    """Outcome of one selection run, in library order plus the winner."""

    candidates: list[CandidateResult]
    selected_index: int
    selected_id: str
    tie_ids: tuple[str, ...]
    estimate: np.ndarray
    warnings: tuple[str, ...] = field(default_factory=tuple)


def select(
    library: CandidateLibrary,
    data,
    scheme: SplitScheme,
    *,
    scaling: str = "one",
    risk: str = "observation",
    center: bool = True,
) -> SelectionReport:
    """Cross-validated estimator selection over a candidate library.

    ``risk`` chooses the score driving the argmin: ``"observation"`` is
    the mean observation-level loss on validation rows; ``"matrix"`` is
    the squared distance to the validation sample covariance.  The two
    differ by a per-split constant that does not depend on the
    candidate, for every scaling, so they cost the same and select the
    same candidate.  Candidates are refitted on the full dataset in
    ascending ``(risk, index)`` order: the first refit that succeeds is
    the winner, and the other candidates with the winner's risk are
    refitted too, for the tie set.  Only these carry a ``psd`` flag; a
    candidate whose refit fails is recorded as failed, and one never
    refitted keeps its risk.  Only the winner's refit is kept, for the
    report.
    """
    data = as_data_matrix(data, min_rows=2)
    splits = make_splits(scheme, data.shape[0])
    ev = evaluate_candidates(library, data, splits, scaling=scaling, center=center, risk=risk)
    risks = ev.mean_risks()

    full = center_columns(data) if center else data
    refits = _ranked_refits(library, FitContext(full), risks, range(len(library)))
    failures = dict(ev.failures)
    psd_flags: dict[int, bool] = {}
    tie_indices: list[int] = []
    best_estimate = None
    for idx, estimate, failure in refits:
        if failure is not None:
            failures[idx] = f"full-data fit: {failure}"
            continue
        psd_flags[idx] = is_psd(estimate)
        tie_indices.append(idx)
        if best_estimate is None:
            best_estimate = estimate
    if not tie_indices:
        raise SelectionError("every candidate failed; nothing to select")
    selected_index = tie_indices[0]
    results = [
        CandidateResult(
            index=idx,
            id=spec.id,
            family=spec.family,
            params={k: v for k, v in spec.params.items() if k != "matrix"},
            cv_risk=None if idx in failures else float(risks[idx]),
            psd=psd_flags.get(idx),
            failure=failures.get(idx),
        )
        for idx, spec in enumerate(library)
    ]
    return SelectionReport(
        candidates=results,
        selected_index=selected_index,
        selected_id=library[selected_index].id,
        tie_ids=tuple(library[i].id for i in tie_indices),
        estimate=best_estimate,
        warnings=ev.warnings,
    )


@dataclass
class OracleReport:
    """Exact risk differences against a known covariance matrix, and their argmin.

    :func:`oracle_select_cv` averages the training-fold estimates' squared
    distances to the truth across splits; :func:`oracle_select_full` uses
    a single fit on the whole dataset.  Failed candidates hold None.
    """

    ids: tuple[str, ...]
    risk_diffs: tuple
    index: int
    id: str


def _oracle_report(library: CandidateLibrary, diffs: np.ndarray) -> OracleReport:
    """The report of ``diffs``, one per candidate (NaN where it failed), and of the lowest index of the smallest."""
    index = _argmin(diffs)
    return OracleReport(
        ids=library.ids,
        risk_diffs=tuple(None if np.isnan(v) else float(v) for v in diffs),
        index=index,
        id=library[index].id,
    )


def oracle_select_cv(
    library: CandidateLibrary,
    data,
    splits,
    psi0,
    *,
    scaling: str = "one",
    center: bool = False,
) -> OracleReport:
    """Oracle selection over training-fold estimates (simulation only).

    Runs the fold pass :func:`~covsel.simulation.run_experiment` runs for
    a replication, matrix risk and all, so each candidate's value is its
    ``cv_risk_diff`` row there, bit for bit.
    """
    ev = evaluate_candidates(library, data, splits, scaling=scaling, center=center, risk="matrix", psi0=psi0)
    return _oracle_report(library, ev.mean_oracle_diffs())


def _residual_norms(residual: np.ndarray, spectral: bool) -> tuple[float, float]:
    """``(sum(residual**2), spectral_norm(residual))``; the norm is NaN unless ``spectral``."""
    return float(np.sum(residual * residual)), spectral_norm(residual) if spectral else math.nan


def _full_data_errors(library: CandidateLibrary, data, psi0, eta, *, spectral: bool):
    """Fit every candidate on ``data`` and measure its error against ``psi0``.

    Returns ``(risk_diffs, frobenius, spectral_norms, failures)``: per
    candidate, ``scaled_frobenius_sq(fit - psi0, eta)`` and the two norms
    of ``fit - psi0`` (NaN where the fit failed, and every spectral norm
    NaN unless ``spectral``); and each failed candidate's reason by index.
    Each fit from :func:`~covsel.estimators.iter_fits` is a new array,
    turned into its residual in place and dropped once measured, so memory
    stays bounded in ``J²``.
    """
    risk_diffs, frobenius, spectral_norms = (np.full(len(library), np.nan) for _ in range(3))
    failures: dict[int, str] = {}
    for idx, (residual, failure) in enumerate(iter_fits(library, data)):
        if failure is not None:
            failures[idx] = failure
            continue
        residual -= psi0
        squares, spectral_norms[idx] = _residual_norms(residual, spectral)
        frobenius[idx] = math.sqrt(squares)
        risk_diffs[idx] = eta * squares if isinstance(eta, float) else scaled_frobenius_sq(residual, eta)
    return risk_diffs, frobenius, spectral_norms, failures


def oracle_select_full(
    library: CandidateLibrary,
    data,
    psi0,
    *,
    scaling: str = "one",
    center: bool = False,
) -> OracleReport:
    """Oracle selection over full-dataset estimates (simulation only)."""
    data = as_data_matrix(data, min_rows=1)
    psi0 = as_square_matrix(psi0)
    if psi0.shape[0] != data.shape[1]:
        raise ValueError(f"psi0 dimension {psi0.shape[0]} does not match data dimension {data.shape[1]}")
    eta = _scaling(scaling, psi0)
    if center:
        data = center_columns(data)
    return _oracle_report(library, _full_data_errors(library, data, psi0, eta, spectral=False)[0])
