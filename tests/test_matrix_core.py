import warnings

import numpy as np
import pytest

import covsel.matrix_core as matrix_core
from covsel.estimators import default_library, iter_fits
from covsel.matrix_core import (
    _LANCZOS_MIN_DIM,
    _LANCZOS_SEED,
    _lanczos_norm,
    center_columns,
    eigendecompose,
    is_psd,
    sample_covariance,
    scaled_frobenius_sq,
    spectral_norm,
)
from covsel.simulation import CovModelSpec, build_model_covariance, sample_gaussian


def brute_force_column_means(data):
    n, dim = data.shape
    means = []
    for j in range(dim):
        total = 0.0
        for i in range(n):
            total += data[i, j]
        means.append(total / n)
    return np.array(means)


def brute_force_covariance(data):
    n, dim = data.shape
    cov = np.zeros((dim, dim))
    for j in range(dim):
        for l in range(dim):
            acc = 0.0
            for i in range(n):
                acc += data[i, j] * data[i, l]
            cov[j, l] = acc / n
    return cov


def brute_force_weighted_sq(matrix, weights):
    total = 0.0
    for j in range(matrix.shape[0]):
        for l in range(matrix.shape[1]):
            total += weights[j, l] * matrix[j, l] ** 2
    return total


def power_iteration_spectral(matrix, iterations=2000):
    # Iterate on m @ m so the dominant eigenvalue of the square gives |lambda|max.
    square = matrix @ matrix
    vec = np.full(matrix.shape[0], 1.0 / np.sqrt(matrix.shape[0]))
    for _ in range(iterations):
        vec = square @ vec
        vec /= np.linalg.norm(vec)
    return float(np.sqrt(vec @ square @ vec))


class TestCenterColumns:
    def test_mean_removal(self):
        out = center_columns([[1.0], [3.0]])
        assert np.array_equal(out, [[-1.0], [1.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        data = center_columns(rng.normal(size=(7, 4)))
        again = center_columns(data)
        assert np.max(np.abs(again - data)) < 1e-12

    def test_brute_force_means_zero(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 2)) * 5.0 + 2.0
        centered = center_columns(data)
        assert np.max(np.abs(brute_force_column_means(centered))) < 1e-12

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            center_columns([[1.0, 2.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            center_columns([[1.0], [np.nan]])


class TestSampleCovariance:
    def test_rank_one_average(self):
        cov = sample_covariance([[1.0, 1.0], [-1.0, -1.0]])
        assert np.array_equal(cov, [[1.0, 1.0], [1.0, 1.0]])

    def test_scalar(self):
        cov = sample_covariance([[2.0], [-2.0]])
        assert np.array_equal(cov, [[4.0]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        data = center_columns(rng.normal(size=(5, 3)))
        cov = sample_covariance(data)
        assert np.max(np.abs(cov - brute_force_covariance(data))) < 1e-12

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        cov = sample_covariance(rng.normal(size=(20, 8)))
        assert np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("n, dim", [(7, 5), (33, 301), (320, 200)])
    def test_bit_symmetric_for_every_layout(self, n, dim):
        base = np.random.default_rng([n, dim]).normal(size=(2 * n, 2 * dim))
        layouts = {
            "c-ordered": np.ascontiguousarray(base[:n, :dim]),
            "f-ordered": np.asfortranarray(base[:n, :dim]),
            "row-strided": base[::2, :dim],
            "column-strided": base[:n, ::2],
            "boolean-masked": base[np.arange(2 * n) % 3 > 0, :dim],
        }
        for name, data in layouts.items():
            bits = sample_covariance(data).view(np.uint64)
            assert np.array_equal(bits, bits.T), name
            # The symmetrizing pass it no longer makes, on the layout it multiplies.
            product = data if data.flags.c_contiguous or data.flags.f_contiguous else np.ascontiguousarray(data)
            cov = product.T @ product
            cov /= len(data)
            assert np.array_equal(bits, (0.5 * (cov + cov.T)).view(np.uint64)), name

    def test_psd_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            data = rng.normal(size=(rng.integers(2, 12), rng.integers(1, 9)))
            cov = sample_covariance(center_columns(data))
            eigvals = np.linalg.eigvalsh(cov)
            assert eigvals.min() >= -1e-10 * max(eigvals.max(), 1e-300)

    def test_shift_invariance_after_centering(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(9, 4))
        shifted = data + rng.normal(size=(1, 4))
        base = sample_covariance(center_columns(data))
        moved = sample_covariance(center_columns(shifted))
        assert np.max(np.abs(base - moved)) < 1e-10


class TestScaledFrobenius:
    def test_identity_with_inverse_dim_scale(self):
        for dim in (1, 3, 10):
            assert scaled_frobenius_sq(np.eye(dim), 1.0 / dim) == pytest.approx(1.0, abs=1e-14)

    def test_zero_matrix(self):
        assert scaled_frobenius_sq(np.zeros((4, 4)), 1.0) == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(4, 4))
        m = m + m.T
        weights = rng.uniform(0.1, 2.0, size=(4, 4))
        got = scaled_frobenius_sq(m, weights)
        assert got == pytest.approx(brute_force_weighted_sq(m, weights), rel=1e-12)

    def test_constant_scale_linearity(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 5))
        base = scaled_frobenius_sq(m, 1.0)
        assert scaled_frobenius_sq(m, 3.5) == pytest.approx(3.5 * base, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scaled_frobenius_sq(np.eye(3), np.ones((2, 2)))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_frobenius_sq(np.eye(2), -1.0)


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, -2.0])) == pytest.approx(2.0)

    def test_identity(self):
        assert spectral_norm(np.eye(6)) == pytest.approx(1.0)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(6, 6))
        m = m + m.T
        assert spectral_norm(m) == pytest.approx(power_iteration_spectral(m), rel=1e-8)

    def test_bounded_by_frobenius(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = rng.normal(size=(5, 5))
            m = m + m.T
            assert spectral_norm(m) <= np.sqrt(scaled_frobenius_sq(m, 1.0)) + 1e-12

    @pytest.mark.parametrize("dim", [50, 200])
    def test_reads_the_symmetric_part_on_both_sides_of_the_crossover(self, dim):
        a = np.random.default_rng(dim).normal(size=(dim, dim))
        sym = 0.5 * (a + a.T)
        assert spectral_norm(a) == spectral_norm(sym)
        assert spectral_norm(a) == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(sym))), rel=1e-12)


class TestSymmetryCheck:
    """``spectral_norm`` symmetrizes exactly the matrices ``np.array_equal(m, m.T)`` rejects."""

    @pytest.mark.parametrize("dim", [50, _LANCZOS_MIN_DIM, 600])
    @pytest.mark.parametrize("where", [(-1, 0), (0, -1), (-1, -2), (-2, -1)])
    def test_one_ulp_off_in_a_far_corner_is_symmetrized(self, dim, where, monkeypatch):
        a = np.random.default_rng(dim).normal(size=(dim, dim))
        m = a + a.T
        m[where] = np.nextafter(m[where], np.inf)
        calls = []
        real = matrix_core.symmetrize

        def counted(x):
            calls.append(1)
            return real(x)

        monkeypatch.setattr(matrix_core, "symmetrize", counted)
        assert not matrix_core._is_symmetric(m)
        assert spectral_norm(m) == spectral_norm(real(m))
        assert len(calls) == 1  # the symmetrized copy is bit symmetric, so only m was symmetrized

    @pytest.mark.parametrize("dim", [1, 50, 256, 257, 600])
    def test_decides_as_array_equal(self, dim):
        a = np.random.default_rng(dim).normal(size=(dim, dim))
        sym = a + a.T
        cases = [sym, a]
        for i, j in [(dim - 1, dim - 1), (dim - 1, 0), (0, dim - 1), (dim // 2, dim - 1)]:
            nan, signed_zero = sym.copy(), sym.copy()
            nan[i, j] = nan[j, i] = np.nan  # unequal to itself, on or off the diagonal
            signed_zero[i, j], signed_zero[j, i] = 0.0, -0.0  # equal as values
            cases += [nan, signed_zero]
        for m in cases:
            assert matrix_core._is_symmetric(m) == np.array_equal(m, m.T)


def bulk(seed, size, low, high):
    return np.random.default_rng(seed).uniform(low, high, size)


class TestLanczosSpectralNorm:
    """Above the crossover ``spectral_norm`` agrees with ``eigvalsh`` to 1e-12 relative."""

    DIM = 200

    def assert_matches_eigvalsh(self, m, lanczos=True):
        assert m.shape[0] >= _LANCZOS_MIN_DIM
        expected = float(np.max(np.abs(np.linalg.eigvalsh(m))))
        assert spectral_norm(m) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert (_lanczos_norm(m) is not None) == lanczos

    @pytest.mark.parametrize("seed", range(4))
    def test_random_symmetric(self, seed):
        g = np.random.default_rng(seed).standard_normal((self.DIM, self.DIM))
        self.assert_matches_eigvalsh(g + g.T)

    def test_most_negative_eigenvalue_dominates(self):
        m = with_spectrum(np.r_[-5.0, bulk(1, self.DIM - 1, -1.0, 3.0)], seed=2)
        self.assert_matches_eigvalsh(m)
        assert spectral_norm(m) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("top", [[3.0, 3.0, 3.0], [3.0, 3.0 - 1e-3, 3.0 - 2e-3, 3.0 - 3e-3]])
    def test_clustered_top_eigenvalues(self, top):
        m = with_spectrum(np.r_[top, bulk(3, self.DIM - len(top), -1.0, 2.0)], seed=4)
        self.assert_matches_eigvalsh(m)

    def test_rank_one_breaks_down_to_eigvalsh(self):
        v = np.random.default_rng(5).standard_normal(self.DIM)
        self.assert_matches_eigvalsh(-2.5 * np.outer(v, v), lanczos=False)

    @pytest.mark.parametrize("rank", [3, 40])
    def test_rank_deficient(self, rank):
        spectrum = np.r_[bulk(6, rank, -2.0, 2.0), np.zeros(self.DIM - rank)]
        m = with_spectrum(spectrum, seed=7)
        expected = float(np.max(np.abs(np.linalg.eigvalsh(m))))
        assert spectral_norm(m) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_zero_and_identity(self):
        assert spectral_norm(np.zeros((self.DIM, self.DIM))) == 0.0
        assert spectral_norm(np.eye(self.DIM)) == 1.0
        assert _lanczos_norm(np.eye(self.DIM)) is None

    def test_extreme_eigenvector_orthogonal_to_the_start_vector(self):
        # Rounding leaves a component of about 1e-17 along it, which Lanczos
        # amplifies at a rate set by the eigenvalue's gap to the rest.
        start = np.random.default_rng(_LANCZOS_SEED).standard_normal(self.DIM)
        m = with_spectrum(np.r_[-3.0, bulk(8, self.DIM - 1, -1.0, 2.0)], seed=9, orthogonal_to=start)
        self.assert_matches_eigvalsh(m)

    @pytest.mark.xfail(strict=True, reason="one start vector: an eigenvector orthogonal to it, "
                       "0.7 % above the rest of the spectrum, is missed (README, Determinism)")
    def test_extreme_eigenvector_orthogonal_to_the_start_vector_with_a_small_gap(self):
        start = np.random.default_rng(_LANCZOS_SEED).standard_normal(self.DIM)
        m = with_spectrum(np.r_[2.01, bulk(8, self.DIM - 1, -1.0, 2.0)], seed=9, orthogonal_to=start)
        self.assert_matches_eigvalsh(m)

    def test_step_cap_falls_back_to_eigvalsh(self, monkeypatch):
        g = np.random.default_rng(10).standard_normal((self.DIM, self.DIM))
        monkeypatch.setattr(matrix_core, "_LANCZOS_MAX_STEPS", 10)
        self.assert_matches_eigvalsh(g + g.T, lanczos=False)

    @pytest.mark.parametrize("power", [-400, -300, 300, 400])
    def test_scaled_by_powers_of_two(self, power):
        g = np.random.default_rng(11).standard_normal((self.DIM, self.DIM))
        m = g + g.T
        scaled = np.ldexp(m, power)
        if abs(power) <= 300:
            # Inside Lanczos's range every step scales exactly.
            assert spectral_norm(scaled) == np.ldexp(spectral_norm(m), power)
        else:
            assert _lanczos_norm(scaled) is None
            self.assert_matches_eigvalsh(scaled, lanczos=False)

    @pytest.mark.parametrize("model", [2, 3, 8])
    def test_every_default_preset_residual(self, model):
        psi0 = build_model_covariance(CovModelSpec(model, self.DIM, seed=1))
        data = center_columns(sample_gaussian(psi0, self.DIM, seed=2))
        for estimate, failure in iter_fits(default_library(), data):
            assert failure is None
            residual = estimate - psi0
            assert np.array_equal(residual, residual.T)
            self.assert_matches_eigvalsh(residual)


class TestEigendecompose:
    def test_diagonal_input(self):
        eig = eigendecompose(np.diag([2.0, 1.0]))
        assert np.allclose(eig.eigenvalues, [2.0, 1.0])
        assert np.allclose(np.abs(eig.eigenvectors), np.eye(2), atol=1e-12)

    def test_two_by_two_exchange(self):
        eig = eigendecompose([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(eig.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(8, 8))
        m = m + m.T
        eig = eigendecompose(m)
        err = np.linalg.norm(eig.reconstruct() - m) / np.linalg.norm(m)
        assert err < 1e-8

    def test_descending_and_orthonormal(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(7, 7))
        m = m + m.T
        eig = eigendecompose(m)
        assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.max(np.abs(gram - np.eye(7))) < 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(5, 5))
        m = m + m.T
        eig = eigendecompose(m)
        for col in eig.eigenvectors.T:
            assert col[np.argmax(np.abs(col))] > 0.0


def test_is_psd():
    assert is_psd(np.eye(3))
    assert not is_psd(np.diag([1.0, -0.5]))


RTOL = matrix_core._PSD_RTOL


def psd_by_definition(m, rtol=RTOL):
    """The definition ``is_psd`` certifies, computed from the full spectrum."""
    eigvals = np.linalg.eigvalsh(m)
    return bool(eigvals.min() >= -rtol * max(float(np.abs(eigvals).max()), 1e-300))


def with_spectrum(eigvals, seed=0, orthogonal_to=None):
    """A symmetric matrix with (up to rounding) the given eigenvalues.

    With ``orthogonal_to``, the eigenvector of ``eigvals[0]`` is orthogonal to that vector.
    """
    g = np.random.default_rng(seed).standard_normal((len(eigvals), len(eigvals)))
    if orthogonal_to is not None:
        u = orthogonal_to / np.linalg.norm(orthogonal_to)
        g[:, 0] -= u * (u @ g[:, 0])
    q, _ = np.linalg.qr(g)
    m = (q * np.asarray(eigvals)) @ q.T
    return 0.5 * (m + m.T)


class TestIsPsdCertificate:
    @pytest.mark.parametrize("dim", [1, 2, 50, 300])
    @pytest.mark.parametrize("ratio", [-10.0, -2.0, -1.01, -0.99, -0.5, 0.0, 1e-6])
    def test_boundary_spectra_match_the_definition(self, dim, ratio):
        # lambda_max = 1 and lambda_min = ratio * rtol; a 1x1 matrix is lambda_min alone.
        if dim == 1:
            m = np.array([[ratio * RTOL]])
        else:
            middle = np.linspace(1.0, 0.01, dim - 1)[1:]
            m = with_spectrum([1.0, *middle, ratio * RTOL], seed=dim)
        assert is_psd(m) == psd_by_definition(m)
        if dim > 1:
            assert is_psd(m) == (ratio >= -1.0)

    @pytest.mark.parametrize(
        "m",
        [
            np.zeros((4, 4)),
            np.array([[2.0]]),
            np.array([[-2.0]]),
            np.array([[0.0]]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.ones((5, 5)) - np.eye(5),
        ],
        ids=["zero", "1x1-positive", "1x1-negative", "1x1-zero", "off-diagonal-2", "off-diagonal-5"],
    )
    def test_degenerate_matrices_match_the_definition(self, m):
        assert is_psd(m) == psd_by_definition(m)

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200])
    def test_extreme_magnitudes_without_warnings(self, magnitude):
        psd = 0.5 ** np.abs(np.subtract.outer(np.arange(6), np.arange(6)))
        indefinite = psd - 0.9 * np.eye(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert is_psd(magnitude * psd)
            assert not is_psd(magnitude * indefinite)
            assert psd_by_definition(magnitude * psd)
            assert not psd_by_definition(magnitude * indefinite)
