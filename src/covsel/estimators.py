"""Candidate covariance estimators and the registry that dispatches them.

Every estimator is a deterministic map from a centered data matrix to a
symmetric ``(J, J)`` estimate.  Candidates are declared as
:class:`EstimatorSpec` values (family name plus hyperparameters) and
grouped into an ordered :class:`CandidateLibrary`; the library order is
authoritative for tie-breaking during selection.

The built-in families are: the sample covariance; hard, SCAD, and
adaptive-LASSO entrywise thresholding; banding and tapering; linear
shrinkage towards a scaled identity and towards a dense constant-diagonal,
constant-off-diagonal target; and a low-rank-plus-thresholded-remainder
factor estimator.  New families can be added with
:func:`register_family`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import _grid
from .errors import ConfigError, EstimationError
from .matrix_core import (
    as_data_matrix,
    as_square_matrix,
    eigendecompose,
    sample_covariance,
    scaled_frobenius_sq,
)

__all__ = [
    "EstimatorSpec",
    "CandidateLibrary",
    "FitContext",
    "register_family",
    "apply",
    "apply_library",
    "iter_fits",
    "expand_grid",
    "build_library",
    "default_library",
    "wide_library",
    "light_library",
    "library_preset",
    "hard_threshold",
    "scad_threshold",
    "adaptive_lasso_threshold",
    "band_matrix",
    "taper_weights",
    "ShrinkageComponents",
    "dense_target",
]


# ---------------------------------------------------------------------------
# Entrywise transforms of a sample covariance matrix
# ---------------------------------------------------------------------------


def hard_threshold(matrix, threshold: float) -> np.ndarray:
    """Keep entries with ``|s| > threshold``, zero the rest."""
    m = as_square_matrix(matrix)
    return _hard(m, np.abs(m), threshold)


def _hard(m: np.ndarray, magnitude: np.ndarray, threshold: float) -> np.ndarray:
    return np.where(magnitude > threshold, m, 0.0)


def scad_threshold(matrix, threshold: float, shape: float = 3.7) -> np.ndarray:
    """Smoothly clipped absolute deviation thresholding.

    Soft-thresholds entries up to ``2 * threshold``, interpolates linearly
    up to ``shape * threshold``, and leaves larger entries untouched.
    ``shape`` must exceed 2 (3.7 is the customary default).
    """
    m = as_square_matrix(matrix)
    return _scad(m, np.abs(m), np.sign(m), threshold, shape)


def _scad(m, magnitude, sign, threshold: float, shape: float) -> np.ndarray:
    u, a = float(threshold), float(shape)
    soft = sign * np.maximum(magnitude - u, 0.0)
    middle = ((a - 1.0) * m - sign * a * u) / (a - 2.0)
    return np.where(magnitude <= 2.0 * u, soft, np.where(magnitude <= a * u, middle, m))


def adaptive_lasso_threshold(matrix, threshold: float, exponent: float) -> np.ndarray:
    """Adaptive-LASSO thresholding ``sign(s) * (|s| - u**(e+1) * |s|**-e)_+``.

    With ``exponent = 0`` this is exactly soft thresholding; larger
    exponents shrink small entries harder while leaving large entries
    nearly intact.
    """
    m = as_square_matrix(matrix)
    magnitude = np.abs(m)
    return _adaptive_lasso(
        magnitude, np.sign(m), _inverse_power(magnitude, exponent), threshold, exponent
    )


def _inverse_power(magnitude: np.ndarray, exponent: float) -> np.ndarray:
    """``magnitude ** -exponent``, infinite at the zero entries."""
    with np.errstate(divide="ignore"):
        return magnitude ** (-float(exponent))


def _adaptive_lasso(magnitude, sign, inverse_power, threshold: float, exponent: float) -> np.ndarray:
    u, e = float(threshold), float(exponent)
    # At threshold 0 an exact zero of S gives 0 * inf; _try_fit fails the NaN estimate.
    with np.errstate(invalid="ignore"):
        borrowed = u ** (e + 1.0) * inverse_power
    return sign * np.maximum(magnitude - borrowed, 0.0)


def _band_distance(dim: int) -> np.ndarray:
    """``|j - l|`` for every entry of a ``dim x dim`` matrix, as floats."""
    idx = np.arange(dim)
    return np.abs(idx[:, None] - idx[None, :]).astype(np.float64)


def band_matrix(matrix, bands: int) -> np.ndarray:
    """Zero all entries more than ``bands`` positions from the diagonal."""
    m = as_square_matrix(matrix)
    return _band(m, _band_distance(m.shape[0]), bands)


def _band(m: np.ndarray, distance: np.ndarray, bands: int) -> np.ndarray:
    return np.where(distance <= bands, m, 0.0)


def taper_weights(dim: int, bands: int) -> np.ndarray:
    """Tapering weight matrix for an even bandwidth ``bands``.

    Weights are 1 within ``bands / 2`` of the diagonal, decay linearly as
    ``2 - 2*|j - l| / bands`` out to ``bands`` (where they reach 0), and
    are 0 beyond.  The decay is continuous at ``bands / 2`` and the
    ``bands = 2`` case reproduces the bandwidth-1 banding indicator.
    """
    if bands < 2 or bands % 2 != 0:
        raise ConfigError(f"tapering bandwidth must be a positive even integer, got {bands}")
    return _taper_weights(_band_distance(dim), bands)


def _taper_weights(distance: np.ndarray, bands: int) -> np.ndarray:
    decay = 2.0 - 2.0 * distance / bands
    return np.where(distance <= bands // 2, 1.0, np.where(distance <= bands, decay, 0.0))


# ---------------------------------------------------------------------------
# Shrinkage and factor estimators (fitted through the registry)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkageComponents:
    """Plug-in quantities behind the identity-target shrinkage intensity.

    ``target_distance_sq`` is the scaled squared distance between the
    sample covariance and its identity target; ``dispersion_sq`` is the
    (clipped) sampling dispersion of the per-observation outer products;
    ``signal_sq`` is their difference, and ``intensity`` the weight put on
    the target.  By construction ``dispersion_sq + signal_sq`` equals
    ``target_distance_sq`` and the two combination weights sum to one.
    """

    mean_variance: float
    target_distance_sq: float
    dispersion_sq: float
    signal_sq: float
    intensity: float


def _outer_dispersion(data: np.ndarray, cov: np.ndarray) -> float:
    """Mean scaled squared distance of the row outer products from cov."""
    n, dim = data.shape
    row_sq = np.einsum("ij,ij->i", data, data)
    return (float(np.sum(row_sq**2)) - n * float(np.sum(cov * cov))) / (dim * n**2)


def _shrinkage_components(data: np.ndarray, cov: np.ndarray) -> ShrinkageComponents:
    dim = cov.shape[0]
    mean_variance = float(np.trace(cov)) / dim
    d2 = scaled_frobenius_sq(cov - mean_variance * np.eye(dim), 1.0 / dim)
    if d2 <= 0.0:
        # cov is already a multiple of the identity; the intensity is
        # defined as 1 and any combination returns cov unchanged.
        return ShrinkageComponents(mean_variance, 0.0, 0.0, 0.0, 1.0)
    b2 = min(max(_outer_dispersion(data, cov), 0.0), d2)
    return ShrinkageComponents(mean_variance, d2, b2, d2 - b2, b2 / d2)


def _identity_shrinkage(data: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Linear shrinkage of ``cov`` towards a scaled identity.

    The intensity is the ratio of the (clipped) sampling dispersion of the
    per-observation outer products to the distance between ``cov`` and
    its identity target, the standard plug-in recipe for this estimator.
    """
    parts = _shrinkage_components(data, cov)
    if parts.target_distance_sq <= 0.0:
        return cov.copy()
    dim = cov.shape[0]
    return parts.intensity * parts.mean_variance * np.eye(dim) + (1.0 - parts.intensity) * cov


def dense_target(cov) -> np.ndarray:
    """Dense shrinkage target: averaged diagonal and averaged off-diagonal."""
    return _dense_target(as_square_matrix(cov))


def _dense_target(cov: np.ndarray) -> np.ndarray:
    dim = cov.shape[0]
    if dim < 2:
        raise ConfigError("the dense target needs at least two features")
    diag_avg = float(np.trace(cov)) / dim
    off_avg = (float(np.sum(cov)) - float(np.trace(cov))) / (dim * dim - dim)
    target = np.full((dim, dim), off_avg)
    np.fill_diagonal(target, diag_avg)
    return target


def _dense_shrinkage(data: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Linear shrinkage towards :func:`dense_target`, intensity clamped to [0, 1]."""
    dim = cov.shape[0]
    target = _dense_target(cov)
    d2 = scaled_frobenius_sq(cov - target, 1.0 / dim)
    if d2 <= 0.0:
        return target
    rho = min(max(_outer_dispersion(data, cov) / d2, 0.0), 1.0)
    return rho * target + (1.0 - rho) * cov


def _poet_low_rank(cov: np.ndarray, basis, factors: int) -> np.ndarray:
    """POET's rank-``factors`` part of ``cov``.

    ``basis`` is a :attr:`FitContext.factor_basis` pair ``(B, w)``: the
    low-rank part is ``C @ C.T`` with ``C = B_k * sqrt(max(w_k, 0))`` over
    its leading ``k`` columns.  numpy computes that product with one
    symmetric rank-k update (syrk), so it is exactly symmetric, and so are
    the remainder and the estimate.  A weight below zero is an eigenvalue
    of a rank-deficient ``S`` at rounding level and adds nothing.
    """
    dim = cov.shape[0]
    if not 0 <= factors <= dim:
        raise ConfigError(f"factor count {factors} outside [0, {dim}]")
    if factors == 0:
        return np.zeros_like(cov)
    vectors, weights = basis
    loadings = vectors[:, :factors] * np.sqrt(np.maximum(weights[:factors], 0.0))
    return loadings @ loadings.T


def _poet(cov: np.ndarray, low_rank: np.ndarray, residual: np.ndarray, threshold: float) -> np.ndarray:
    """Leading eigencomponents plus the hard-thresholded remainder."""
    out = low_rank + _hard(residual, np.abs(residual), threshold)
    # The residual's diagonal is kept as-is, so the estimate's diagonal
    # reconstitutes the sample variances exactly.
    np.fill_diagonal(out, np.diag(cov))
    return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Adaptive-LASSO exponents whose ``|S| ** -e`` one context keeps at once.
#: Every preset grid has 5, and iterates them fastest.
_CACHED_EXPONENTS = 5


class FitContext:
    """Per-dataset cache of quantities shared across candidate fits.

    Every quantity is computed on first use and kept for the context's
    life: the sample covariance ``S``, POET's factor basis (the ``J x J``
    eigenvectors of ``S`` when ``n >= J``, else ``J x n`` loadings, see
    :attr:`factor_basis`), ``|S|`` and ``sign(S)`` (thresholding), the
    ``|j - l|`` band distances (banding, tapering), POET's low-rank part
    for the most recent factor count (the library lists POET grouped by
    factor count) and its remainder once a direct POET fit asks for it,
    and ``|S| ** -e`` for the last :data:`_CACHED_EXPONENTS`
    adaptive-LASSO exponents.  That bounds the cache at
    ``7 + _CACHED_EXPONENTS = 12`` ``J x J`` matrices plus the data,
    whatever the number of candidates fitted.  The grid scorers read only
    ``S``, the factor basis and the low-rank part, so a fold scored on the
    grid caches at most three ``J x J`` matrices besides what its
    direct-path candidates build.  Cached arrays are shared by the fits
    and must not be written to; every fit returns a new array.
    """

    def __init__(self, data) -> None:
        self.data = as_data_matrix(data)
        self._poet: list | None = None
        self._inverse_powers: dict[float, np.ndarray] = {}

    @cached_property
    def cov(self) -> np.ndarray:
        return sample_covariance(self.data)

    @cached_property
    def factor_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """``(B, w)`` with POET's rank-``k`` part ``(B_k * w_k) @ B_k.T``, leading columns first.

        With ``n >= J``, the eigenvectors and eigenvalues of ``S``.  With
        ``n < J``, the dual (snapshot) PCA identity: the Gram matrix
        ``X X^T / n`` has the nonzero eigenvalues of ``S = X^T X / n``, and
        with its eigenvectors ``U``, ``B = X^T U`` and ``w = 1 / n`` give
        the same rank-``k`` part, ``(X^T U_k)(X^T U_k)^T / n``, from an
        ``n x n`` eigendecomposition and without dividing by an eigenvalue.
        """
        n, dim = self.data.shape
        if n >= dim:
            eig = eigendecompose(self.cov)
            return eig.eigenvectors, eig.eigenvalues
        gram = self.data @ self.data.T
        gram /= n
        vectors = eigendecompose(gram).eigenvectors
        del gram  # freed before the loadings are allocated
        return self.data.T @ vectors, np.full(n, 1.0 / n)

    @cached_property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.cov)

    @cached_property
    def sign(self) -> np.ndarray:
        return np.sign(self.cov)

    @cached_property
    def distance(self) -> np.ndarray:
        return _band_distance(self.cov.shape[0])

    def poet_low_rank(self, factors: int) -> np.ndarray:
        """POET's rank-``factors`` part, cached for the latest count only."""
        if self._poet is None or self._poet[0] != factors:
            self._poet = None  # release the previous parts before building the next
            self._poet = [factors, _poet_low_rank(self.cov, self.factor_basis, factors), None]
        return self._poet[1]

    def poet_parts(self, factors: int) -> tuple[np.ndarray, np.ndarray]:
        """``(low_rank, residual)`` with ``residual = S - low_rank``, cached with the low-rank part."""
        low_rank = self.poet_low_rank(factors)
        if self._poet[2] is None:
            self._poet[2] = self.cov - low_rank
        return low_rank, self._poet[2]

    def inverse_power(self, exponent: float) -> np.ndarray:
        """``|S| ** -exponent``, cached for the latest exponents."""
        cached = self._inverse_powers.get(exponent)
        if cached is None:
            if len(self._inverse_powers) >= _CACHED_EXPONENTS:
                del self._inverse_powers[next(iter(self._inverse_powers))]
            cached = self._inverse_powers[exponent] = _inverse_power(self.magnitude, exponent)
        return cached


def _require_number(params: dict, key: str, minimum=None, strict=False) -> float:
    if key not in params:
        raise ConfigError(f"missing hyperparameter {key!r}")
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"hyperparameter {key!r} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(f"hyperparameter {key!r} must be finite")
    if minimum is not None and (value < minimum or (strict and value == minimum)):
        bound = ">" if strict else ">="
        raise ConfigError(f"hyperparameter {key!r} must be {bound} {minimum}, got {value}")
    return value


def _require_int(params: dict, key: str, minimum: int = 0) -> int:
    value = _require_number(params, key, minimum=minimum)
    if value != int(value):
        raise ConfigError(f"hyperparameter {key!r} must be an integer, got {value}")
    return int(value)


def _validate_no_params(params: dict) -> dict:
    if params:
        raise ConfigError(f"unexpected hyperparameters: {sorted(params)}")
    return {}


def _validate_hard(params: dict) -> dict:
    out = {"threshold": _require_number(params, "threshold", minimum=0.0)}
    _validate_no_params({k: v for k, v in params.items() if k not in out})
    return out


def _validate_scad(params: dict) -> dict:
    params = {"shape": 3.7, **params}
    out = {
        "threshold": _require_number(params, "threshold", minimum=0.0),
        "shape": _require_number(params, "shape", minimum=2.0, strict=True),
    }
    _validate_no_params({k: v for k, v in params.items() if k not in out})
    return out


def _validate_adaptive(params: dict) -> dict:
    out = {
        "threshold": _require_number(params, "threshold", minimum=0.0),
        "exponent": _require_number(params, "exponent", minimum=0.0),
    }
    _validate_no_params({k: v for k, v in params.items() if k not in out})
    return out


def _validate_banding(params: dict) -> dict:
    out = {"bands": _require_int(params, "bands", minimum=0)}
    _validate_no_params({k: v for k, v in params.items() if k not in out})
    return out


def _validate_tapering(params: dict) -> dict:
    bands = _require_int(params, "bands", minimum=2)
    if bands % 2 != 0:
        raise ConfigError(f"tapering bandwidth must be even, got {bands}")
    out = {"bands": bands}
    _validate_no_params({k: v for k, v in params.items() if k not in out})
    return out


def _validate_poet(params: dict) -> dict:
    out = {
        "factors": _require_int(params, "factors", minimum=0),
        "threshold": _require_number(params, "threshold", minimum=0.0),
    }
    _validate_no_params({k: v for k, v in params.items() if k not in out})
    return out


def _validate_fixed(params: dict) -> dict:
    if set(params) != {"matrix"}:
        raise ConfigError("fixed estimator takes exactly one hyperparameter: 'matrix'")
    matrix = as_square_matrix(params["matrix"])
    if not np.array_equal(matrix, matrix.T):
        raise ConfigError("fixed estimator matrix must be symmetric")
    return {"matrix": matrix}


def _fit_fixed(ctx: FitContext, params: dict) -> np.ndarray:
    matrix = params["matrix"]
    if matrix.shape[0] != ctx.data.shape[1]:
        raise ConfigError(
            f"fixed matrix dimension {matrix.shape[0]} does not match data "
            f"dimension {ctx.data.shape[1]}"
        )
    return matrix.copy()


@dataclass(frozen=True)
class _Family:
    name: str
    fit: Callable[[FitContext, dict], np.ndarray]
    validate: Callable[[dict], dict]
    param_order: tuple[str, ...]


_FAMILIES: dict[str, _Family] = {}

#: Grid scorers of the built-in families, by family name.  A scorer
#: ``score(fold, specs)`` scores many candidates of its family on one
#: training fold without building their estimates (see :func:`_score_fits`).
#: ``fold`` is a :class:`covsel._grid.Fold`: the fold's :class:`FitContext`
#: as ``fold.ctx`` and the ``(T, eta)`` pairs to score against as
#: ``fold.targets`` (exactly symmetric).  It returns one entry per spec:
#: ``values``, where ``values[t]`` equals ``scaled_frobenius_sq(T_t - fit,
#: eta_t)`` up to rounding, or ``None`` to leave that spec to the direct
#: path, which fits, scores and drops it.  No fit of a family with a
#: scorer has an entry larger in magnitude than the fold's ``max|S|``
#: (but for POET's rounding), so the scorers report no maxima.  Families
#: sharing one scorer are scored in one call per fold, so they share its
#: pass over the covariance.  Families without a scorer, user-registered
#: ones included, take the direct path.
_SCORERS: dict[str, Callable] = {
    "sample_covariance": _grid.score_identity,
    "hard_threshold": _grid.score_thresholds,
    "scad_threshold": _grid.score_thresholds,
    "adaptive_lasso": _grid.score_thresholds,
    "banding": _grid.score_bands,
    "tapering": _grid.score_bands,
    "poet": _grid.score_poet,
}


def register_family(name, fit, validate=None, param_order=()) -> None:
    """Register an estimator family.

    ``fit(ctx, params)`` must be a deterministic function of the data in
    ``ctx`` and the validated ``params``, returning a symmetric matrix.
    ``validate(params)`` normalizes hyperparameters (filling defaults) and
    raises :class:`ConfigError` on invalid input.
    """
    if name in _FAMILIES:
        raise ConfigError(f"estimator family {name!r} is already registered")
    _FAMILIES[name] = _Family(
        name=name,
        fit=fit,
        validate=validate if validate is not None else _validate_no_params,
        param_order=tuple(param_order),
    )


register_family("sample_covariance", lambda ctx, p: ctx.cov.copy())
register_family(
    "hard_threshold",
    lambda ctx, p: _hard(ctx.cov, ctx.magnitude, p["threshold"]),
    _validate_hard,
    ("threshold",),
)
register_family(
    "scad_threshold",
    lambda ctx, p: _scad(ctx.cov, ctx.magnitude, ctx.sign, p["threshold"], p["shape"]),
    _validate_scad,
    ("threshold", "shape"),
)
register_family(
    "adaptive_lasso",
    lambda ctx, p: _adaptive_lasso(
        ctx.magnitude, ctx.sign, ctx.inverse_power(p["exponent"]), p["threshold"], p["exponent"]
    ),
    _validate_adaptive,
    ("threshold", "exponent"),
)
register_family(
    "banding",
    lambda ctx, p: _band(ctx.cov, ctx.distance, p["bands"]),
    _validate_banding,
    ("bands",),
)


def _fit_tapering(ctx: FitContext, params: dict) -> np.ndarray:
    weights = _taper_weights(ctx.distance, params["bands"])
    out = weights * ctx.cov
    out[weights == 0.0] = 0.0
    return out


register_family("tapering", _fit_tapering, _validate_tapering, ("bands",))
register_family("linear_shrinkage", lambda ctx, p: _identity_shrinkage(ctx.data, ctx.cov))
register_family("dense_linear_shrinkage", lambda ctx, p: _dense_shrinkage(ctx.data, ctx.cov))
register_family(
    "poet",
    lambda ctx, p: _poet(ctx.cov, *ctx.poet_parts(p["factors"]), p["threshold"]),
    _validate_poet,
    ("factors", "threshold"),
)
register_family("fixed", _fit_fixed, _validate_fixed, ())


def _format_param(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return repr(value)


@dataclass(frozen=True)
class EstimatorSpec:
    """One candidate: an estimator family plus validated hyperparameters.

    The ``id`` is derived from the family and hyperparameters unless given
    explicitly; it is the stable key used in reports and output tables.
    """

    family: str
    params: dict = field(default_factory=dict)
    id: str = ""

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ConfigError(
                f"unknown estimator family {self.family!r}; known: {sorted(_FAMILIES)}"
            )
        family = _FAMILIES[self.family]
        normalized = family.validate(dict(self.params))
        object.__setattr__(self, "params", normalized)
        if not self.id:
            object.__setattr__(self, "id", self._derive_id())

    def _derive_id(self) -> str:
        family = _FAMILIES[self.family]
        if not self.params:
            return self.family
        keys = list(family.param_order) or sorted(self.params)
        if self.family == "fixed":
            digest = hashlib.sha1(self.params["matrix"].tobytes()).hexdigest()[:8]
            return f"fixed({digest})"
        parts = ", ".join(f"{k}={_format_param(self.params[k])}" for k in keys)
        return f"{self.family}({parts})"


@dataclass(frozen=True)
class CandidateLibrary:
    """Ordered collection of candidates; the order breaks risk ties."""

    candidates: tuple[EstimatorSpec, ...]

    def __post_init__(self) -> None:
        candidates = tuple(self.candidates)
        if not candidates:
            raise ConfigError("candidate library must contain at least one estimator")
        object.__setattr__(self, "candidates", candidates)
        seen: set[str] = set()
        for spec in candidates:
            if spec.id in seen:
                raise ConfigError(f"duplicate candidate id {spec.id!r}")
            seen.add(spec.id)

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def __getitem__(self, index: int) -> EstimatorSpec:
        return self.candidates[index]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(spec.id for spec in self.candidates)


def apply(spec: EstimatorSpec, data) -> np.ndarray:
    """Fit one candidate on a (centered) data matrix."""
    return apply_with_context(spec, FitContext(data))


def apply_with_context(spec: EstimatorSpec, ctx: FitContext) -> np.ndarray:
    return _FAMILIES[spec.family].fit(ctx, spec.params)


def iter_fits(library: CandidateLibrary, data):
    """Fit every candidate on the same data, lazily and in library order.

    Returns an iterator of ``(estimate, failure)`` pairs over one shared
    :class:`FitContext`; a failed candidate yields ``estimate=None`` and a
    reason string instead of aborting the whole batch.  Each fit runs when
    the caller asks for its pair, so a caller that is done with an
    estimate before asking for the next one holds one ``J x J`` estimate
    at a time, next to the context's bounded cache.
    """
    ctx = FitContext(data)
    return (_try_fit(spec, ctx) for spec in library)


def apply_library(library: CandidateLibrary, data):
    """All of :func:`iter_fits` as a list, in library order.

    The list holds every successful estimate at once, ``K`` matrices of
    ``J x J``; scoring or flagging code iterates :func:`iter_fits` instead.
    """
    return list(iter_fits(library, data))


class _FoldScores(NamedTuple):
    """What :func:`_score_fits` returns for one fold."""

    values: np.ndarray
    peak: float
    failures: dict[int, str]
    base: np.ndarray


def _score_fits(library: CandidateLibrary, fold: _grid.Fold, *, grid: bool = True) -> _FoldScores:
    """Score every candidate's fit on ``fold`` against each of its ``(T, eta)`` targets.

    ``fold`` is a :class:`covsel._grid.Fold`: the training data's
    :class:`FitContext` and the targets.  ``values[k, t]`` is
    ``scaled_frobenius_sq(T_t - fit_k, eta_t)``, NaN for a failed
    candidate; ``peak`` is the largest ``np.max(np.abs(fit_k))`` of the
    candidates fitted on the direct path, 0.0 if none; ``failures`` maps a
    failed candidate's index to its reason, in library order, a fit with a
    non-finite entry among them (see :func:`_try_fit`); ``base[t]`` is
    the sample covariance's value, the scale of the grid values'
    rounding.  Every ``T_t``, and every matrix ``eta_t``, must be exactly
    symmetric, as validation covariances, weights and checked true
    covariances are.

    With ``grid``, families with a scorer (see :data:`_SCORERS`) are
    scored from shared sums over the data's covariance and build no
    ``J x J`` estimate.  The rest, and any candidate a scorer leaves or
    scores as non-finite, take the direct path: one fit at a time,
    scored and dropped before the next.  The direct path is the
    reference the scorers are tested against.
    """
    values = np.full((len(library), len(fold.targets)), np.nan)
    groups: dict[Callable, list[int]] = {}
    direct: list[int] = []
    for idx, spec in enumerate(library):
        score = _SCORERS.get(spec.family) if grid else None
        if score is None:
            direct.append(idx)
        else:
            groups.setdefault(score, []).append(idx)
    for score, indices in groups.items():
        for idx, scored in zip(indices, score(fold, [library[i] for i in indices])):
            if scored is None or not np.all(np.isfinite(scored)):
                direct.append(idx)
                continue
            values[idx] = scored
    failures: dict[int, str] = {}
    peak = 0.0
    for idx in sorted(direct):
        estimate, failure = _try_fit(library[idx], fold.ctx)
        if failure is not None:
            failures[idx] = failure
            continue
        values[idx] = [scaled_frobenius_sq(target - estimate, eta) for target, eta in fold.targets]
        # Two passes over the estimate instead of a J x J |estimate|.
        peak = max(peak, float(np.max(estimate)), -float(np.min(estimate)))
    return _FoldScores(values, peak, failures, fold.value(0.0))


def _try_fit(spec: EstimatorSpec, ctx: FitContext):
    """``(estimate, None)``, or ``(None, reason)`` when the fit fails or has a non-finite entry."""
    try:
        estimate = apply_with_context(spec, ctx)
    except (ConfigError, EstimationError, FloatingPointError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    except np.linalg.LinAlgError as exc:
        return None, f"LinAlgError: {exc}"
    # The max and min are NaN when an entry is: two passes and no J x J temporary.
    finite = np.isfinite(np.max(estimate)) and np.isfinite(np.min(estimate))
    return (estimate, None) if finite else (None, "non-finite estimate")


def _ranked_refits(library: CandidateLibrary, ctx: FitContext, risks, indices, cache=None):
    """Fit ``indices`` on ``ctx`` in ascending ``(risk, position)`` order, through the winner's ties.

    Yields ``(index, estimate, failure)``, fitting each candidate only
    when asked for it, and skips candidates whose risk is not finite.
    The winner is the first candidate whose fit succeeds; the candidates
    after it with the same risk follow, and the generator stops before
    the first higher risk.  ``cache``, a dict by library index, keeps
    every pair and reuses the pairs already there, so rankings of
    overlapping indices on one context fit each candidate once.
    """
    best = None
    for risk, _, idx in sorted((risks[i], pos, i) for pos, i in enumerate(indices) if np.isfinite(risks[i])):
        if best is not None and risk != best:
            return
        if cache is None:
            pair = _try_fit(library[idx], ctx)
        elif idx in cache:
            pair = cache[idx]
        else:
            pair = cache[idx] = _try_fit(library[idx], ctx)
        if best is None and pair[1] is None:
            best = risk
        yield (idx, *pair)


# ---------------------------------------------------------------------------
# Grid expansion and preset libraries
# ---------------------------------------------------------------------------


def expand_grid(family: str, **param_lists) -> list[EstimatorSpec]:
    """Cross-product expansion of per-parameter value lists for one family.

    ``expand_grid("poet", factors=[1, 2], threshold=[0.1])`` yields two
    specs.  Parameters iterate in the family's canonical order with the
    rightmost parameter varying fastest.
    """
    if family not in _FAMILIES:
        raise ConfigError(f"unknown estimator family {family!r}")
    if not param_lists:
        return [EstimatorSpec(family)]
    order = [k for k in _FAMILIES[family].param_order if k in param_lists]
    order += [k for k in sorted(param_lists) if k not in order]
    specs = [{}]
    for key in order:
        values = param_lists[key]
        specs = [{**base, key: value} for base in specs for value in values]
    return [EstimatorSpec(family, params) for params in specs]


def build_library(declaration) -> CandidateLibrary:
    """Build a library from ``{family: {param: [values, ...]}}`` in order."""
    specs: list[EstimatorSpec] = []
    for family, params in declaration.items():
        specs.extend(expand_grid(family, **(params or {})))
    return CandidateLibrary(tuple(specs))


def default_library() -> CandidateLibrary:
    """The standard 73-candidate selection library."""
    tenths = [i / 10 for i in range(1, 11)]
    half = [i / 10 for i in range(1, 6)]
    return build_library(
        {
            "sample_covariance": {},
            "hard_threshold": {"threshold": tenths},
            "scad_threshold": {"threshold": tenths},
            "adaptive_lasso": {"threshold": half, "exponent": half},
            "banding": {"bands": [1, 2, 3, 4, 5]},
            "tapering": {"bands": [2, 4, 6, 8, 10]},
            "linear_shrinkage": {},
            "dense_linear_shrinkage": {},
            "poet": {"factors": [1, 2, 3, 4, 5], "threshold": [0.1, 0.2, 0.3]},
        }
    )


def wide_library() -> CandidateLibrary:
    """Denser per-family grids used to tune each family on its own."""
    twentieths = [i / 20 for i in range(1, 21)]
    tenths = [i / 10 for i in range(1, 11)]
    half = [i / 10 for i in range(1, 6)]
    return build_library(
        {
            "sample_covariance": {},
            "hard_threshold": {"threshold": twentieths},
            "scad_threshold": {"threshold": twentieths},
            "adaptive_lasso": {"threshold": half, "exponent": half},
            "banding": {"bands": list(range(1, 11))},
            "tapering": {"bands": [2, 4, 6, 8, 10]},
            "linear_shrinkage": {},
            "dense_linear_shrinkage": {},
            "poet": {"factors": list(range(1, 11)), "threshold": tenths},
        }
    )


def light_library() -> CandidateLibrary:
    """Reduced grid for wide real datasets (small thresholds, deeper factors)."""
    return build_library(
        {
            "sample_covariance": {},
            "hard_threshold": {"threshold": [i / 20 for i in range(1, 7)]},
            "scad_threshold": {"threshold": [i / 20 for i in range(1, 11)]},
            "adaptive_lasso": {
                "threshold": [i / 10 for i in range(1, 6)],
                "exponent": [i / 10 for i in range(1, 6)],
            },
            "linear_shrinkage": {},
            "dense_linear_shrinkage": {},
            "poet": {
                "factors": list(range(5, 11)),
                "threshold": [i / 20 for i in range(1, 7)],
            },
        }
    )


_PRESETS = {"default": default_library, "wide": wide_library, "light": light_library}


def library_preset(name: str) -> CandidateLibrary:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ConfigError(f"unknown library preset {name!r}; known: {sorted(_PRESETS)}") from None
