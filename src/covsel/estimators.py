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
import math
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
    "ShrinkageComponents",
]


# ---------------------------------------------------------------------------
# Estimator kernels (fitted through the registry)
# ---------------------------------------------------------------------------


def _hard(m: np.ndarray, magnitude: np.ndarray, threshold: float) -> np.ndarray:
    """Hard thresholding: keep entries of ``m`` whose ``magnitude`` ``|m|`` exceeds ``threshold``."""
    return np.where(magnitude > threshold, m, 0.0)


def _scad(m, magnitude, sign, threshold: float, shape: float) -> np.ndarray:
    """Smoothly clipped absolute deviation thresholding of ``m``, given ``|m|`` and ``sign(m)``.

    Soft-thresholds entries up to ``2 * threshold``, interpolates linearly
    up to ``shape * threshold``, and leaves larger entries untouched.
    ``shape`` must exceed 2 (3.7 is the customary default).
    """
    u, a = float(threshold), float(shape)
    soft = sign * np.maximum(magnitude - u, 0.0)
    middle = ((a - 1.0) * m - sign * a * u) / (a - 2.0)
    return np.where(magnitude <= 2.0 * u, soft, np.where(magnitude <= a * u, middle, m))


def _inverse_power(magnitude: np.ndarray, exponent: float) -> np.ndarray:
    """``magnitude ** -exponent``, infinite at the zero entries."""
    with np.errstate(divide="ignore"):
        return magnitude ** (-float(exponent))


def _adaptive_lasso(magnitude, sign, inverse_power, threshold: float, exponent: float) -> np.ndarray:
    """Adaptive-LASSO thresholding ``sign(s) * (|s| - u**(e+1) * |s|**-e)_+``.

    Takes ``|s|``, ``sign(s)`` and ``|s| ** -e`` (see :func:`_inverse_power`).
    Like every generalized thresholding rule it is exactly zero wherever
    ``|s| <= u``, so at ``threshold = 0`` it is the matrix itself.
    With ``exponent = 0`` this is exactly soft thresholding; larger
    exponents shrink small entries harder while leaving large entries
    nearly intact.
    """
    u, e = float(threshold), float(exponent)
    # At threshold 0 an exact zero of S gives 0 * inf = NaN here; the mask below zeroes it.
    with np.errstate(invalid="ignore"):
        out = u ** (e + 1.0) * inverse_power
        np.subtract(magnitude, out, out=out)
    np.maximum(out, 0.0, out=out)
    # The rule of generalized thresholding, exact where the subtraction rounds.
    out[magnitude <= u] = 0.0
    out *= sign
    return out


def _band_distance(dim: int) -> np.ndarray:
    """``|j - l|`` for every entry of a ``dim x dim`` matrix, as floats."""
    idx = np.arange(dim)
    return np.abs(idx[:, None] - idx[None, :]).astype(np.float64)


def _band(m: np.ndarray, distance: np.ndarray, bands: int) -> np.ndarray:
    """Zero all entries of ``m`` more than ``bands`` positions from the diagonal, by ``distance``."""
    return np.where(distance <= bands, m, 0.0)


def _taper_weights(distance: np.ndarray, bands: int) -> np.ndarray:
    """Tapering weights for an even bandwidth ``bands``, by :func:`_band_distance`.

    Weights are 1 within ``bands / 2`` of the diagonal, decay linearly as
    ``2 - 2*|j - l| / bands`` out to ``bands`` (where they reach 0), and
    are 0 beyond.  The decay is continuous at ``bands / 2`` and the
    ``bands = 2`` case reproduces the bandwidth-1 banding indicator.
    """
    decay = 2.0 - 2.0 * distance / bands
    return np.where(distance <= bands // 2, 1.0, np.where(distance <= bands, decay, 0.0))


@dataclass(frozen=True)
class ShrinkageComponents:
    """Plug-in quantities behind a linear shrinkage intensity.

    ``target_distance_sq`` is the scaled squared distance between the
    sample covariance and its target; ``dispersion_sq`` is the (clipped)
    sampling dispersion of the per-observation outer products;
    ``signal_sq`` is their difference, and ``intensity`` the weight put on
    the target.  By construction ``dispersion_sq + signal_sq`` equals
    ``target_distance_sq`` and the two combination weights sum to one.
    """

    target_distance_sq: float
    dispersion_sq: float
    signal_sq: float
    intensity: float


def _shrinkage_components(data: np.ndarray, cov: np.ndarray, target: np.ndarray) -> ShrinkageComponents:
    """The plug-in quantities of shrinking ``cov``, the covariance of ``data``'s rows, towards ``target``.

    Both squared distances are summed in units of ``2**e``, with ``e``
    the binary exponent of ``max|cov|``, so that no square underflows or
    overflows, and reported in data units.  Scaling by a power of two is
    exact, so the values are those of summing in data units wherever
    that neither underflows nor overflows, and the intensity, a ratio,
    is the same in both units.
    """
    n, dim = data.shape
    e = math.frexp(max(float(np.max(cov)), -float(np.min(cov))))[1]
    scaled = cov - target
    np.ldexp(scaled, -e, out=scaled)
    d2 = scaled_frobenius_sq(scaled, 1.0 / dim)
    if d2 <= 0.0:
        # cov is at zero distance from its target: intensity 1, which gives the target, that is cov.
        return ShrinkageComponents(0.0, 0.0, 0.0, 1.0)
    # The mean squared distance of the row outer products from cov, clipped to [0, d2].
    row_sq = np.ldexp(np.einsum("ij,ij->i", data, data), -e)
    np.ldexp(cov, -e, out=scaled)
    b2 = (float(np.sum(row_sq**2)) - n * float(np.sum(scaled * scaled))) / (dim * n**2)
    b2 = min(max(b2, 0.0), d2)
    return ShrinkageComponents(*(math.ldexp(v, 2 * e) for v in (d2, b2, d2 - b2)), b2 / d2)


def _shrink(data: np.ndarray, cov: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Linear shrinkage of ``cov`` towards ``target``.

    The intensity is the ratio of the (clipped) sampling dispersion of the
    per-observation outer products to the distance between ``cov`` and
    its target, the standard plug-in recipe for this estimator, so it
    lies in [0, 1].
    """
    rho = _shrinkage_components(data, cov, target).intensity
    # Summed in place, so no J x J temporary outlives its term; the sum is the same either way.
    out = (1.0 - rho) * cov
    out += rho * target
    return out


def _identity_target(cov: np.ndarray) -> np.ndarray:
    """The scaled identity ``trace(cov) / J * I``."""
    dim = cov.shape[0]
    return float(np.trace(cov)) / dim * np.eye(dim)


def _dense_target(cov: np.ndarray) -> np.ndarray:
    """Dense shrinkage target: averaged diagonal and averaged off-diagonal."""
    dim = cov.shape[0]
    if dim < 2:
        raise ConfigError("the dense target needs at least two features")
    diag_avg = float(np.trace(cov)) / dim
    off_avg = (float(np.sum(cov)) - float(np.trace(cov))) / (dim * dim - dim)
    target = np.full((dim, dim), off_avg)
    np.fill_diagonal(target, diag_avg)
    return target


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
    ``7 + _CACHED_EXPONENTS = 12`` ``J x J`` matrices and the ``J``
    eigenvalues of ``S`` besides the data, whatever the number of
    candidates fitted.  The grid scorers read only
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


class _Rule(NamedTuple):
    """One numeric hyperparameter: its lower bound (excluded when ``strict``) and default."""

    minimum: float
    strict: bool = False
    integer: bool = False
    default: float | None = None


def _validator(*checks: Callable[[dict], None], **rules: _Rule) -> Callable[[dict], dict]:
    """A family's ``validate``, from one :class:`_Rule` per hyperparameter.

    Checks each key's presence, type, finiteness, bound and integrality in
    that order, then runs ``checks`` on the normalized values, then rejects any other key.
    """

    def validate(params: dict) -> dict:
        out = {}
        for key, rule in rules.items():
            if key not in params and rule.default is None:
                raise ConfigError(f"missing hyperparameter {key!r}")
            value = params.get(key, rule.default)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ConfigError(f"hyperparameter {key!r} must be a number, got {value!r}")
            value = float(value)
            if not np.isfinite(value):
                raise ConfigError(f"hyperparameter {key!r} must be finite")
            if value < rule.minimum or (rule.strict and value == rule.minimum):
                bound = ">" if rule.strict else ">="
                raise ConfigError(f"hyperparameter {key!r} must be {bound} {rule.minimum}, got {value}")
            if rule.integer and value != int(value):
                raise ConfigError(f"hyperparameter {key!r} must be an integer, got {value}")
            out[key] = int(value) if rule.integer else value
        for check in checks:
            check(out)
        unexpected = sorted(set(params) - set(out))
        if unexpected:
            raise ConfigError(f"unexpected hyperparameters: {unexpected}")
        return out

    return validate


def _even_bands(params: dict) -> None:
    if params["bands"] % 2 != 0:
        raise ConfigError(f"tapering bandwidth must be even, got {params['bands']}")


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
#: path, :func:`_score_directly`, which fits, scores and drops it; only
#: :func:`_grid.score_poet` does, for factor counts the fold cannot
#: decompose.  Families sharing one scorer are scored in one call per
#: fold, so they share its pass over the covariance.  Families without a
#: scorer, user-registered ones included, take the direct path, as do the
#: near-tie candidates that :func:`~covsel.cv_engine.evaluate_candidates`
#: scores again.
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
    ``ctx`` and the validated ``params``, returning a symmetric matrix in
    a new array, which the caller may overwrite (not ``ctx.cov`` itself).
    ``validate(params)`` normalizes hyperparameters (filling defaults) and
    raises :class:`ConfigError` on invalid input.
    """
    if name in _FAMILIES:
        raise ConfigError(f"estimator family {name!r} is already registered")
    _FAMILIES[name] = _Family(
        name=name,
        fit=fit,
        validate=validate if validate is not None else _validator(),
        param_order=tuple(param_order),
    )


register_family("sample_covariance", lambda ctx, p: ctx.cov.copy())
register_family(
    "hard_threshold",
    lambda ctx, p: _hard(ctx.cov, ctx.magnitude, p["threshold"]),
    _validator(threshold=_Rule(0.0)),
    ("threshold",),
)
register_family(
    "scad_threshold",
    lambda ctx, p: _scad(ctx.cov, ctx.magnitude, ctx.sign, p["threshold"], p["shape"]),
    _validator(threshold=_Rule(0.0), shape=_Rule(2.0, strict=True, default=3.7)),
    ("threshold", "shape"),
)
register_family(
    "adaptive_lasso",
    lambda ctx, p: _adaptive_lasso(
        ctx.magnitude, ctx.sign, ctx.inverse_power(p["exponent"]), p["threshold"], p["exponent"]
    ),
    _validator(threshold=_Rule(0.0), exponent=_Rule(0.0)),
    ("threshold", "exponent"),
)
register_family(
    "banding",
    lambda ctx, p: _band(ctx.cov, ctx.distance, p["bands"]),
    _validator(bands=_Rule(0, integer=True)),
    ("bands",),
)


def _fit_tapering(ctx: FitContext, params: dict) -> np.ndarray:
    weights = _taper_weights(ctx.distance, params["bands"])
    out = weights * ctx.cov
    out[weights == 0.0] = 0.0
    return out


register_family("tapering", _fit_tapering, _validator(_even_bands, bands=_Rule(2, integer=True)), ("bands",))
register_family("linear_shrinkage", lambda ctx, p: _shrink(ctx.data, ctx.cov, _identity_target(ctx.cov)))
register_family("dense_linear_shrinkage", lambda ctx, p: _shrink(ctx.data, ctx.cov, _dense_target(ctx.cov)))
register_family(
    "poet",
    lambda ctx, p: _poet(ctx.cov, *ctx.poet_parts(p["factors"]), p["threshold"]),
    _validator(factors=_Rule(0, integer=True), threshold=_Rule(0.0)),
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


def _score_fits(library: CandidateLibrary, fold: _grid.Fold) -> tuple[np.ndarray, dict[int, str]]:
    """Score every candidate's fit on ``fold`` against each of its ``(T, eta)`` targets.

    ``fold`` is a :class:`covsel._grid.Fold`: the training data's
    :class:`FitContext` and the targets.  Returns ``(values, failures)``:
    ``values[k, t]`` is ``scaled_frobenius_sq(T_t - fit_k, eta_t)``, NaN
    for a failed candidate, and ``failures`` maps a failed candidate's
    index to its reason, in library order, a fit with a non-finite entry
    among them (see :func:`_try_fit`).  Every ``T_t``, and every matrix
    ``eta_t``, must be exactly symmetric, as validation covariances,
    weights and checked true covariances are.

    Families with a scorer (see :data:`_SCORERS`) are scored from shared
    sums over the data's covariance and build no ``J x J`` estimate.  The
    rest (families without a scorer, POET factor counts the fold cannot
    decompose) and any candidate scored as non-finite take the direct
    path, :func:`_score_directly`, the reference the scorers are tested
    against.
    """
    values = np.full((len(library), len(fold.targets)), np.nan)
    groups: dict[Callable, list[int]] = {}
    direct: list[int] = []
    for idx, spec in enumerate(library):
        score = _SCORERS.get(spec.family)
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
    _score_directly(library, fold, sorted(direct), values, failures)
    return values, failures


def _score_directly(library: CandidateLibrary, fold: _grid.Fold, indices, values, failures) -> None:
    """The direct path: fit the candidates at ``indices`` on ``fold`` one at a time, score each and drop it.

    Writes candidate ``k``'s value against each target to ``values[k]``.
    A candidate whose fit fails gets NaN there, and its reason in
    ``failures`` unless one is recorded already.
    """
    for idx in indices:
        estimate, failure = _try_fit(library[idx], fold.ctx)
        if failure is not None:
            values[idx] = np.nan
            failures.setdefault(idx, failure)
            continue
        values[idx] = [scaled_frobenius_sq(target - estimate, eta) for target, eta in fold.targets]


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
