"""Loss functions and risk functionals for covariance estimator selection.

The central object is the observation-level scaled Frobenius loss

    L(x; psi, eta) = sum_jl eta_jl * (x_j * x_l - psi_jl)**2,

whose risk minimizer (for mean-zero data) is the true covariance matrix.
The module also provides the matrix-level cross-validated risk term (the
scaled squared Frobenius distance to a validation-set sample covariance),
the analytic risk-difference identity, the scaling factor of each policy,
and the finite-sample selection bound.  The folds, both oracles and
``simulate``'s full-data values take their scaling factor from one
function, :func:`_scaling`.  :func:`true_risk_difference`
states the identity by its definition; the oracles compute the same
distance inside :mod:`covsel.cv_engine`'s scoring passes and do not call it.

:func:`row_losses`, :func:`observation_loss` and :func:`validation_risk`
evaluate the loss by its definition, row by row.  They are reference
implementations and are not on the selection path: the selector scores
the mean loss over a validation set in closed form, as the matrix-level
term plus a constant that does not depend on the candidate (see
:func:`covsel.cv_engine.evaluate_candidates`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import ConfigError, DegenerateFeatureError
from .matrix_core import _nonnegative_scale, as_data_matrix, as_square_matrix, sample_covariance, scaled_frobenius_sq

__all__ = [
    "SCALING_POLICIES",
    "check_scaling",
    "observation_loss",
    "row_losses",
    "validation_risk",
    "matrix_cv_risk_term",
    "true_risk_difference",
    "BoundParams",
    "finite_sample_bound",
]

#: The constant scaling policies, by the power of ``1 / J`` each one is.
_CONSTANT_SCALINGS = {"one": 0, "inv_J": 1, "inv_J2": 2}

#: Scaling-factor policies accepted by the selection entry points: the
#: constants, and "weighted", a full matrix of weights read off a
#: covariance's diagonal (see :func:`_scaling`).
SCALING_POLICIES = (*_CONSTANT_SCALINGS, "weighted")

# Row blocks are processed in chunks whose residual tensors stay below
# roughly this many float64 entries.
_CHUNK_BUDGET = 4_000_000


def check_scaling(eta, dim: int):
    """Validate a scaling factor (positive scalar or positive (J, J) matrix)."""
    eta = _nonnegative_scale(eta, (dim, dim))
    if np.any(eta == 0.0):
        raise ValueError("scaling factor must be positive")
    return eta


def row_losses(rows: np.ndarray, psi: np.ndarray, eta=1.0) -> np.ndarray:
    """Observation-level loss of ``psi`` for every row of ``rows``.

    Evaluates the definitional residual ``x x^T - psi`` row by row (in
    memory-bounded chunks), so the returned values are exactly the
    per-observation losses: no algebraic shortcut is taken here.  This is
    the oracle the closed-form risk of the selector is tested against; the
    selector itself never calls it.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    psi = as_square_matrix(psi)
    dim = psi.shape[0]
    if rows.shape[1] != dim:
        raise ValueError(f"row length {rows.shape[1]} does not match matrix dimension {dim}")
    eta = check_scaling(eta, dim)

    out = np.empty(rows.shape[0])
    chunk = max(1, _CHUNK_BUDGET // max(dim * dim, 1))
    for start in range(0, rows.shape[0], chunk):
        block = rows[start : start + chunk]
        resid = block[:, :, None] * block[:, None, :] - psi
        np.square(resid, out=resid)
        if isinstance(eta, np.ndarray):
            resid *= eta
            out[start : start + block.shape[0]] = resid.sum(axis=(1, 2))
        else:
            out[start : start + block.shape[0]] = eta * resid.sum(axis=(1, 2))
    return out


def observation_loss(x, psi, eta=1.0) -> float:
    """Scaled squared Frobenius distance between ``x x^T`` and ``psi``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x must be a 1-D vector")
    return float(row_losses(x, psi, eta)[0])


def validation_risk(psi, validation, eta=1.0) -> float:
    """Mean observation-level loss of ``psi`` over a validation set."""
    validation = as_data_matrix(validation, min_rows=1)
    return float(np.mean(row_losses(validation, psi, eta)))


def matrix_cv_risk_term(psi, validation, eta=1.0) -> float:
    """Scaled squared Frobenius distance to the validation sample covariance.

    For any scaling factor, constant or matrix, this term and
    :func:`validation_risk` differ by a constant that does not depend on
    ``psi``, so minimizing either over a candidate set selects the same
    estimator.
    """
    validation = as_data_matrix(validation, min_rows=1)
    psi = as_square_matrix(psi)
    if validation.shape[1] != psi.shape[0]:
        raise ValueError(
            f"validation column count {validation.shape[1]} does not match "
            f"matrix dimension {psi.shape[0]}"
        )
    eta = check_scaling(eta, psi.shape[0])
    return scaled_frobenius_sq(sample_covariance(validation) - psi, eta)


def true_risk_difference(psi_hat, psi0, eta=1.0) -> float:
    """Excess risk of ``psi_hat`` over ``psi0``: the scaled squared distance.

    For mean-zero data the expected loss difference between any estimate
    and the true covariance matrix collapses to this quantity, which is
    what makes exact oracle risks computable in simulation.
    """
    psi_hat = as_square_matrix(psi_hat)
    psi0 = as_square_matrix(psi0)
    if psi_hat.shape != psi0.shape:
        raise ValueError(f"shape mismatch: {psi_hat.shape} vs {psi0.shape}")
    eta = check_scaling(eta, psi0.shape[0])
    return scaled_frobenius_sq(psi_hat - psi0, eta)


def _scaling(policy: str, cov: np.ndarray):
    """The scaling factor ``policy`` gives a fold or an oracle whose covariance is ``cov``.

    The constant policies read only ``J``: ``one`` is 1, ``inv_J`` is
    ``1 / J`` and ``inv_J2`` is ``1 / J**2``.  ``weighted`` is
    ``1 / sqrt(v_j * v_l)``, exactly ``1 / v_j`` on the diagonal, with the
    variances ``v`` read off the diagonal of ``cov``: the training
    covariance for a fold, the true covariance for an oracle.  Raises
    :class:`DegenerateFeatureError` when a variance is not positive.
    """
    if policy in _CONSTANT_SCALINGS:
        return 1.0 / cov.shape[0] ** _CONSTANT_SCALINGS[policy]
    if policy != "weighted":
        raise ConfigError(f"unknown scaling policy {policy!r}; expected one of {SCALING_POLICIES}")
    variances = np.diag(cov)
    bad = np.flatnonzero(variances <= 0.0)
    if bad.size:
        cols = ", ".join(str(int(j)) for j in bad[:8])
        raise DegenerateFeatureError(f"no positive variance in column(s) {cols}; weighted scaling is undefined")
    weights = 1.0 / np.sqrt(np.outer(variances, variances))
    np.fill_diagonal(weights, 1.0 / variances)
    return weights


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the finite-sample selection bound.

    ``m1`` bounds the squared entries of an observation vector and ``m2``
    the absolute entries of any candidate covariance matrix.  In practice
    both are empirical plug-ins, not almost-sure bounds: ``simulate``
    takes ``m1`` from the observed data and ``m2`` from ``max|psi0|`` and
    each training fold's largest variance (see
    :class:`~covsel.simulation.CellStats`).
    """

    delta: float
    m1: float
    m2: float
    dim: int
    n_candidates: int
    n_obs: int
    validation_fraction: float

    def __post_init__(self) -> None:
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.m1 <= 0.0 or self.m2 <= 0.0:
            raise ValueError("m1 and m2 must be positive")
        if self.dim < 1 or self.n_candidates < 1 or self.n_obs < 1:
            raise ValueError("dim, n_candidates, and n_obs must be positive integers")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")


def finite_sample_bound(params: BoundParams, oracle_risk_diff: float) -> float:
    """The finite-sample bound on the selected candidate's mean excess risk.

    With ``M = 4 * (m1 + m2)**2 * J**2`` and
    ``c = 2 * (1 + delta)**2 * M * (1/3 + 1/delta)``, the mean excess risk
    of the selected candidate is bounded by
    ``(1 + 2*delta) * oracle_risk_diff + 2 * c * (1 + log K) / (n * p)``.
    """
    if oracle_risk_diff < 0.0:
        raise ValueError("oracle_risk_diff must be nonnegative")
    m_bar = 4.0 * (params.m1 + params.m2) ** 2 * params.dim**2
    c_value = 2.0 * (1.0 + params.delta) ** 2 * m_bar * (1.0 / 3.0 + 1.0 / params.delta)
    bound_term = 2.0 * c_value * (1.0 + log(params.n_candidates)) / (params.n_obs * params.validation_fraction)
    return (1.0 + 2.0 * params.delta) * oracle_risk_diff + bound_term
