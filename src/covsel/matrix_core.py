"""Dense symmetric-matrix primitives shared by the estimator and CV layers.

Conventions used throughout the package:

* data matrices are ``(n, J)`` float64 arrays, rows are observations;
* the sample covariance uses divisor ``n`` and assumes the caller has
  already removed column means (the selection entry points center by
  default);
* symmetric matrices are stored dense and kept exactly symmetric by
  construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError

__all__ = [
    "EigenDecomposition",
    "as_data_matrix",
    "as_square_matrix",
    "center_columns",
    "sample_covariance",
    "scaled_frobenius_sq",
    "spectral_norm",
    "eigendecompose",
    "symmetrize",
    "is_psd",
]


def as_data_matrix(values, min_rows: int = 1) -> np.ndarray:
    """Validate an observations-by-features matrix and return it as float64."""
    data = np.asarray(values, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D (observations x features) array")
    n, n_features = data.shape
    if n < min_rows:
        raise ValueError(f"need at least {min_rows} observations, got {n}")
    if n_features < 1:
        raise ValueError("data must have at least one feature column")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite entries")
    return data


def as_square_matrix(values) -> np.ndarray:
    """Validate a square matrix and return it as float64."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(m + m.T) / 2``."""
    m = as_square_matrix(m)
    return 0.5 * (m + m.T)


def center_columns(data) -> np.ndarray:
    """Remove the sample mean from every column.

    Requires at least two observations; centering a single row would
    zero it out and destroy all covariance information.
    """
    data = as_data_matrix(data, min_rows=2)
    return data - data.mean(axis=0, keepdims=True)


def sample_covariance(data) -> np.ndarray:
    """Sample covariance ``X.T @ X / n`` of an already-centered matrix.

    The divisor is ``n`` (not ``n - 1``): the estimate is the average of
    the per-row outer products, which is the form the validation-risk
    identities in :mod:`covsel.loss_risk` rely on.  ``n = 1`` is allowed
    and yields a rank-one matrix.

    ``X.T @ X`` is equal to its transpose bit for bit when ``X`` is C- or
    F-contiguous (numpy computes it with ``syrk``), but not for every
    strided view, which is therefore copied first.
    """
    data = as_data_matrix(data, min_rows=1)
    if not (data.flags.c_contiguous or data.flags.f_contiguous):
        data = np.ascontiguousarray(data)
    cov = data.T @ data
    cov /= data.shape[0]
    return cov


def scaled_frobenius_sq(m, scale=1.0) -> float:
    """Scaled squared Frobenius norm ``sum_jl scale_jl * m_jl**2``.

    ``scale`` is either a nonnegative scalar or a matrix of nonnegative
    weights with the same shape as ``m``.
    """
    m = np.asarray(m, dtype=np.float64)
    scale = _nonnegative_scale(scale, m.shape)
    if isinstance(scale, float):
        return scale * float(np.sum(m * m))
    return float(np.sum(scale * m * m))


def _nonnegative_scale(scale, shape):
    """``scale`` as a float, or as a float array of ``shape``; raises unless finite and nonnegative."""
    if np.isscalar(scale) or np.ndim(scale) == 0:
        c = float(scale)
        if not np.isfinite(c) or c < 0.0:
            raise ValueError("scale must be a finite nonnegative scalar")
        return c
    w = np.asarray(scale, dtype=np.float64)
    if w.shape != shape:
        raise ValueError(f"scale shape {w.shape} does not match matrix shape {shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("scale entries must be finite and nonnegative")
    return w


def spectral_norm(m) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    m = as_square_matrix(m)
    try:
        eigvals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"eigenvalue computation failed for shape {m.shape}: {exc}") from exc
    return float(np.max(np.abs(eigvals))) if m.shape[0] else 0.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition with eigenvalues sorted in descending order.

    Eigenvector columns are orthonormal, and each column is sign-fixed so
    that its entry of largest magnitude is positive, making the
    decomposition a deterministic function of the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


def eigendecompose(m) -> EigenDecomposition:
    """Eigendecompose a symmetric matrix (descending eigenvalues)."""
    m = as_square_matrix(m)
    try:
        eigvals, eigvecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(
            f"symmetric eigendecomposition failed to converge for shape {m.shape}: {exc}"
        ) from exc
    order = np.arange(m.shape[0])[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    anchor = np.argmax(np.abs(eigvecs), axis=0)
    signs = np.sign(eigvecs[anchor, np.arange(eigvecs.shape[1])])
    signs[signs == 0.0] = 1.0
    eigvecs = eigvecs * signs
    return EigenDecomposition(eigenvalues=eigvals, eigenvectors=eigvecs)


def _has_cholesky(m: np.ndarray, shift: float) -> bool:
    """Whether ``m + shift * I`` has a Cholesky factor (is numerically PD)."""
    shifted = m.copy()
    shifted.flat[:: m.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _frobenius_norm(m: np.ndarray) -> float:
    """``||m||_F``, scaled by the largest entry so squaring cannot overflow."""
    peak = float(np.max(np.abs(m))) if m.size else 0.0
    if peak == 0.0:
        return 0.0
    scaled = m / peak
    return peak * math.sqrt(float(np.vdot(scaled, scaled)))


def is_psd(m, rtol: float = 1e-10) -> bool:
    """Whether ``lambda_min >= -rtol * max|lambda|`` for a symmetric matrix.

    Two Cholesky factorizations decide almost every matrix without an
    eigendecomposition.  With ``F = ||m||_F >= max|lambda|`` and
    ``d = max|m_jj| <= max|lambda|``:

    * if ``m + 2 rtol F I`` has no Cholesky factor, ``lambda_min`` lies
      below ``-2 rtol F <= -2 rtol max|lambda|`` and the answer is False;
    * if ``m + rtol d I / 2`` has one, ``lambda_min`` lies above
      ``-rtol d / 2 >= -rtol max|lambda| / 2`` and the answer is True.

    Both margins exceed the factorizations' rounding error by orders of
    magnitude.  The band in between, and a zero or overflowing ``F``, fall
    back to ``eigvalsh`` and the definition itself.
    """
    m = as_square_matrix(m)
    fro = _frobenius_norm(m)
    if fro > 0.0 and math.isfinite(fro):
        if not _has_cholesky(m, 2.0 * rtol * fro):
            return False
        diag_peak = float(np.max(np.abs(np.diag(m))))
        if diag_peak > 0.0 and _has_cholesky(m, 0.5 * rtol * diag_peak):
            return True
    try:
        eigvals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError:
        return False
    scale = max(float(np.max(np.abs(eigvals))), 1e-300)
    return bool(np.min(eigvals) >= -rtol * scale)
