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


#: Dimension from which :func:`spectral_norm` runs Lanczos.  Its time over
#: ``eigvalsh``'s on the 73 default-preset residuals of models 1-8 (one BLAS
#: thread, 2-core x86 host, OpenBLAS 0.3.31): 0.22-1.41 at J=128 (models 3
#: and 4 above 1), 0.17-1.10 at J=160 (model 3 above 1), 0.12-0.95 at J=200.
#: Model 3's thresholded residuals, with clustered top eigenvalues, take the
#: most steps.
_LANCZOS_MIN_DIM = 160
#: Stop once the extreme Ritz value's residual is at most this share of it.
_LANCZOS_RTOL = 1e-7
#: Steps before falling back to ``eigvalsh``; the Krylov basis holds at most
#: this many ``J``-vectors (6 MB at J=2500).
_LANCZOS_MAX_STEPS = 300
#: A new direction shorter than this share of ``||m q||`` is a breakdown.
_LANCZOS_BREAKDOWN = 1e-10
_LANCZOS_SEED = 0


def spectral_norm(m) -> float:
    """Largest absolute eigenvalue of the symmetric part of a square matrix.

    A matrix that is not bit for bit symmetric is replaced by
    ``(m + m.T) / 2`` first.  From dimension ``_LANCZOS_MIN_DIM`` on, the
    value comes from :func:`_lanczos_norm`; below it, and wherever Lanczos
    does not settle, from ``eigvalsh``.
    """
    m = as_square_matrix(m)
    if not _is_symmetric(m):
        m = symmetrize(m)
    if m.shape[0] >= _LANCZOS_MIN_DIM:
        norm = _lanczos_norm(m)
        if norm is not None:
            return norm
    try:
        eigvals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"eigenvalue computation failed for shape {m.shape}: {exc}") from exc
    return float(np.max(np.abs(eigvals))) if m.shape[0] else 0.0


#: Rows per block of :func:`_is_symmetric`.
_SYMMETRY_BLOCK = 256


def _is_symmetric(m: np.ndarray) -> bool:
    """``np.array_equal(m, m.T)`` for a square ``m``, one block of rows at a time.

    Each block compares its rows from the diagonal on with the matching
    columns, so the check reads the upper triangle and its mirror, not
    all of ``m`` and all of ``m.T``, holds one block's comparison at a
    time, and stops at the first block that differs.  A NaN compares
    unequal, as in ``np.array_equal``.
    """
    for start in range(0, m.shape[0], _SYMMETRY_BLOCK):
        stop = start + _SYMMETRY_BLOCK
        if not np.array_equal(m[start:stop, start:], m[start:, start:stop].T):
            return False
    return True


def _lanczos_norm(m: np.ndarray) -> float | None:
    """``max |lambda|`` of a symmetric ``m`` by Lanczos, or None to use ``eigvalsh``.

    The start vector is drawn from a fixed seed, so the value is a function
    of ``m`` alone.  Each new direction is orthogonalized twice against the
    whole basis (full reorthogonalization by classical Gram-Schmidt).  At
    steps 8, 12, 16, 20 and 24, then after every further quarter of the
    steps taken (the check's dense ``eigh`` of the tridiagonal ``T`` costs
    more as ``T`` grows), and at the last step, the Ritz value ``theta`` of
    largest magnitude, with eigenvector ``s`` of ``T``, is accepted once its
    residual ``beta * |s_last|`` is at most ``_LANCZOS_RTOL * |theta|``.
    Some eigenvalue of ``m`` then lies within that residual of ``theta``,
    and within its square over the spectral gap when the gap is not tiny
    (Parlett, *The Symmetric Eigenvalue Problem*, ch. 11-13).

    Returns None when ``max|m|`` lies outside ``[1e-100, 1e100]``, where the
    inner products could overflow or lose digits to underflow; on a
    breakdown, whose invariant subspace need not hold the extreme
    eigenvector; and when ``_LANCZOS_MAX_STEPS`` pass without convergence.
    """
    peak = max(float(m.max()), -float(m.min()))
    if not 1e-100 <= peak <= 1e100:
        return None
    dim = m.shape[0]
    steps = min(_LANCZOS_MAX_STEPS, dim)
    basis = np.empty((steps + 1, dim))
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(dim)
    basis[0] = start / math.sqrt(start @ start)
    tri = np.zeros((steps, steps))
    check = 8
    for k in range(steps):
        w = m @ basis[k]
        scale = math.sqrt(w @ w)
        known = basis[: k + 1]
        first = known @ w
        w -= first @ known
        second = known @ w
        w -= second @ known
        tri[k, k] = first[k] + second[k]
        beta = math.sqrt(w @ w)
        if beta <= _LANCZOS_BREAKDOWN * scale:
            return None
        basis[k + 1] = w / beta
        if k + 1 in (check, steps):
            check += max(4, check // 4)
            theta, vecs = np.linalg.eigh(tri[: k + 1, : k + 1])
            i = 0 if -theta[0] > theta[-1] else k
            if beta * abs(vecs[k, i]) <= _LANCZOS_RTOL * abs(theta[i]):
                return abs(float(theta[i]))
        if k + 1 < steps:
            tri[k, k + 1] = tri[k + 1, k] = beta
    return None


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


#: The relative tolerance ``rtol`` of :func:`is_psd`.
_PSD_RTOL = 1e-10


def is_psd(m) -> bool:
    """Whether ``lambda_min >= -rtol * max|lambda|`` for a symmetric matrix, ``rtol`` :data:`_PSD_RTOL`.

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
        if not _has_cholesky(m, 2.0 * _PSD_RTOL * fro):
            return False
        diag_peak = float(np.max(np.abs(np.diag(m))))
        if diag_peak > 0.0 and _has_cholesky(m, 0.5 * _PSD_RTOL * diag_peak):
            return True
    try:
        eigvals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError:
        return False
    scale = max(float(np.max(np.abs(eigvals))), 1e-300)
    return bool(np.min(eigvals) >= -_PSD_RTOL * scale)
