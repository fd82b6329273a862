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
    ``shape`` must exceed 2 (3.7 is the customary default).  The pieces
    are formed in place: two ``J x J`` arrays besides the masks.
    """
    u, a = float(threshold), float(shape)
    out, soft = (a - 1.0) * m, sign * a
    soft *= u
    out -= soft
    out /= a - 2.0  # the middle piece, ((a - 1) m - a u sign(m)) / (a - 2)
    np.copyto(out, m, where=~(magnitude <= a * u))
    soft = np.maximum(np.subtract(magnitude, u, out=soft), 0.0, out=soft)
    soft *= sign
    np.copyto(out, soft, where=magnitude <= 2.0 * u)
    return out


def _inverse_power(magnitude: np.ndarray, exponent: float) -> np.ndarray:
    """``magnitude ** -exponent``, infinite at the zero entries."""
    with np.errstate(divide="ignore"):
        return magnitude ** (-float(exponent))


def _adaptive_lasso(magnitude, sign, inverse_power, threshold: float, exponent: float) -> np.ndarray:
    """Adaptive-LASSO thresholding ``sign(s) * (|s| - u**(e+1) * |s|**-e)_+``.

    Takes ``|s|``, ``sign(s)`` and ``|s| ** -e`` (see :func:`_inverse_power`).
    Exactly zero wherever ``|s| <= u``, so at ``threshold = 0`` it is the
    matrix itself; ``exponent = 0`` is soft thresholding, and larger
    exponents shrink small entries harder, large ones hardly at all.
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


def _scale_diagonals(m: np.ndarray, weights) -> np.ndarray:
    """``m`` with diagonals ``k`` and ``-k`` scaled by ``weights[k]`` (kept as they are at 1), else exact zeros.

    Each diagonal is a strided slice of the flat matrix: no ``J x J`` mask.
    """
    dim = m.shape[0]
    flat, out = m.ravel(), np.zeros(dim * dim)
    for k, weight in enumerate(weights[:dim]):
        if weight == 0.0:
            continue
        upper, lower = slice(k, (dim - k) * dim, dim + 1), slice(k * dim, None, dim + 1)
        for diagonal in (upper, lower) if k else (upper,):
            out[diagonal] = flat[diagonal] if weight == 1.0 else weight * flat[diagonal]
    return out.reshape(dim, dim)


def _band(m: np.ndarray, bands: int) -> np.ndarray:
    """Zero all entries of ``m`` more than ``bands`` positions from the diagonal."""
    return _scale_diagonals(m, [1.0] * min(bands + 1, m.shape[0]))


def _taper(m: np.ndarray, bands: int) -> np.ndarray:
    """``m`` tapered with an even bandwidth ``bands``: diagonal ``k = |j - l|`` scaled by its weight.

    Weights are 1 out to ``bands / 2``, then ``2 - 2k / bands`` (continuous
    there, and 0 at ``bands``), and 0 beyond; ``bands = 2`` is banding(1).
    """
    weights = [1.0 if k <= bands // 2 else 2.0 - 2.0 * k / bands for k in range(min(bands + 1, m.shape[0]))]
    return _scale_diagonals(m, weights)


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

    Both squared distances are summed in units of ``2**e``, ``e`` the
    binary exponent of ``max|cov|``, so no square under- or overflows, and
    reported in data units: exactly the values of summing in data units
    wherever that neither under- nor overflows.
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

    The intensity, the standard plug-in, is the (clipped) sampling
    dispersion of the per-observation outer products over the distance
    between ``cov`` and its target, so it lies in [0, 1].
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

    ``C @ C.T`` with ``C = B_k * sqrt(max(w_k, 0))`` over the leading ``k``
    columns of the :attr:`FitContext.factor_basis` pair ``(B, w)``: one
    syrk, so it is exactly symmetric, as are the remainder and the
    estimate.  A negative weight is a rounding-level eigenvalue of a
    rank-deficient ``S``.
    """
    dim = cov.shape[0]
    if not 0 <= factors <= dim:
        raise ConfigError(f"factor count {factors} outside [0, {dim}]")
    vectors, weights = basis
    loadings = vectors[:, :factors] * np.sqrt(np.maximum(weights[:factors], 0.0))
    return loadings @ loadings.T


def _poet(cov: np.ndarray, low_rank: np.ndarray, residual: np.ndarray, threshold: float) -> np.ndarray:
    """Leading eigencomponents plus the hard-thresholded remainder."""
    out = np.where(np.abs(residual) > threshold, residual, 0.0)
    out += low_rank
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

    Each quantity is computed on first use and kept until released: ``S``,
    POET's factor basis (see :attr:`factor_basis`), ``|S|``, ``sign(S)``,
    POET's low-rank part and remainder for one factor count, and
    ``|S| ** -e`` for the last :data:`_CACHED_EXPONENTS` exponents: at most
    ``6 + 5 = 11`` ``J x J`` matrices and ``J`` eigenvalues besides the
    data.  Cached arrays are shared and must not be written to.

    Memory, per process: each pass of a replication (the full-data pass,
    :func:`_grouped_fits`; one fold's :func:`_score_fits`; the refits of a
    ``bench`` replication) peaks at ``c * J**2`` doubles, ``c = 9``,
    besides the data, ``psi0``, a fold's targets and its grid layout, as
    tracemalloc counts numpy's arrays, from ``J = 60`` on
    (``tests/test_memory.py``).  On model 2 at ``J = 400`` they peak at
    6.4, 5.8 and 5.3; a fold at 8.6 at ``J = 60``.
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

    def _release(self, key) -> None:
        """Drop the entry :func:`_reads` names ``key``, rebuilt when next read; ``("factors", k)``: POET's parts."""
        if isinstance(key, str):
            self.__dict__.pop(key, None)
        elif key[0] == "factors":
            self._poet = None
        else:
            self._inverse_powers.pop(key[1], None)


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

#: Grid scorers of the built-in families.  ``score(fold, specs)`` scores
#: many candidates on one :class:`covsel._grid.Fold` (``fold.ctx`` and the
#: exactly symmetric ``(T, eta)`` pairs ``fold.targets``) without building
#: their estimates, one entry per spec: ``values[t]``, equal to
#: ``scaled_frobenius_sq(T_t - fit, eta_t)`` up to rounding, or ``None``
#: to leave the spec to the direct path (:func:`_grid.score_poet` does,
#: for factor counts the fold cannot decompose).  Families sharing a
#: scorer share its pass over the covariance, in one call per fold.
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
    ``ctx`` and the validated ``params``, returning a symmetric float64
    matrix in a new array, which the caller may overwrite (not ``ctx.cov`` itself).
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
    lambda ctx, p: _band(ctx.cov, p["bands"]),
    _validator(bands=_Rule(0, integer=True)),
    ("bands",),
)


register_family("tapering", lambda ctx, p: _taper(ctx.cov, p["bands"]),
                _validator(_even_bands, bands=_Rule(2, integer=True)), ("bands",))
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
    reason string.  Each fit runs when its pair is asked for, so a caller
    done with each estimate first holds one at a time, next to the
    context's cache; the full-data pass takes :func:`_grouped_fits`.
    """
    ctx = FitContext(data)
    return (_try_fit(spec, ctx) for spec in library)


def _reads(spec: EstimatorSpec) -> tuple:
    """The cached entries ``spec``'s fit reads besides ``S``, as :meth:`FitContext._release` names them."""
    keys = {"hard_threshold": ("magnitude",), "scad_threshold": ("magnitude", "sign"),
            "adaptive_lasso": ("magnitude", "sign", "exponent"), "poet": ("factor_basis", "factors")}
    return tuple((key, spec.params[key]) if key in spec.params else key for key in keys.get(spec.family, ()))


def _grouped_fits(library: CandidateLibrary, data):
    """``(index, estimate, failure)`` for each candidate, as :func:`iter_fits` gives, grouped by the entries they share.

    Families run in the order they first appear, and within a family the
    candidates reading the same entries (one ``|S| ** -e``, one POET
    factor count) run together, each group in library order.  Each entry
    is released once its last reader is fitted, before that fit is
    yielded, so none is built twice.
    """
    ctx = FitContext(data)
    reads, groups = [_reads(spec) for spec in library], {}
    for i, spec in enumerate(library):
        groups.setdefault(spec.family, {}).setdefault(reads[i], []).append(i)
    order = [i for family in groups.values() for group in family.values() for i in group]
    last = {key: i for i in order for key in reads[i]}
    for i in order:
        estimate, failure = _try_fit(library[i], ctx)
        for key in reads[i]:
            if last[key] == i:
                ctx._release(key)
        yield i, estimate, failure
        del estimate  # the caller's to drop before the next fit


def apply_library(library: CandidateLibrary, data):
    """All of :func:`iter_fits` as a list: ``K`` estimates of ``J x J`` at once, so scoring code iterates instead."""
    return list(iter_fits(library, data))


def _score_fits(library: CandidateLibrary, fold: _grid.Fold) -> tuple[np.ndarray, dict[int, str]]:
    """Score every candidate's fit on ``fold`` against each of its ``(T, eta)`` targets.

    Returns ``(values, failures)``: ``values[k, t]`` is
    ``scaled_frobenius_sq(T_t - fit_k, eta_t)``, NaN for a failed
    candidate, and ``failures`` maps a failed candidate's index to its
    reason (see :func:`_try_fit`), in library order.  Every ``T_t`` and
    matrix ``eta_t`` must be exactly symmetric.  Families with a scorer
    (:data:`_SCORERS`) build no estimate; the rest, user-registered ones
    included, and any candidate scored as non-finite take the direct path,
    :func:`_score_directly`, the reference the scorers are tested against.
    """
    values = np.full((len(library), len(fold.targets)), np.nan)
    groups: dict[Callable | None, list[int]] = {}
    for idx, spec in enumerate(library):
        groups.setdefault(_SCORERS.get(spec.family), []).append(idx)
    direct = groups.pop(None, [])
    for score, indices in groups.items():
        for idx, scored in zip(indices, score(fold, [library[i] for i in indices])):
            if scored is None or not np.all(np.isfinite(scored)):
                direct.append(idx)
            else:
                values[idx] = scored
    fold.ctx._release(("factors", None))  # POET's parts: the direct path builds them again if it needs them
    failures: dict[int, str] = {}
    _score_directly(library, fold, sorted(direct), values, failures)
    return values, failures


def _score_directly(library: CandidateLibrary, fold: _grid.Fold, indices, values, failures) -> None:
    """The direct path: fit the candidates at ``indices`` on ``fold`` one at a time, score each and drop it.

    Writes candidate ``k``'s value against each target to ``values[k]``.
    A candidate whose fit fails gets NaN there, and its reason in
    ``failures`` unless one is recorded already.  The last target is
    subtracted in place: ``(E - T)**2`` has the bits of ``(T - E)**2``.
    """
    *others, (last, last_eta) = fold.targets
    for idx in indices:
        estimate, failure = _try_fit(library[idx], fold.ctx)
        if failure is not None:
            values[idx] = np.nan
            failures.setdefault(idx, failure)
            continue
        row = [scaled_frobenius_sq(target - estimate, eta) for target, eta in others]
        estimate -= last
        values[idx] = [*row, scaled_frobenius_sq(estimate, last_eta)]


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


def _ranked_refits(risks, indices, fit):
    """``fit(i)`` for ``indices`` in ascending ``(risk, position)`` order, through the winner's ties.

    ``fit(i)`` returns a :func:`_try_fit` pair; each ``(i, *fit(i))`` is
    made when asked for.  Candidates whose risk is not finite are skipped.
    The winner is the first whose fit succeeds; the candidates with its
    risk follow, and the generator stops before the first higher risk.
    """
    best = None
    for risk, _, idx in sorted((risks[i], pos, i) for pos, i in enumerate(indices) if np.isfinite(risks[i])):
        if best is not None and risk != best:
            return
        pair = fit(idx)
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
