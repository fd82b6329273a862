import numpy as np
import pytest

from covsel.errors import ConfigError
from covsel.estimators import (
    CandidateLibrary,
    EstimatorSpec,
    adaptive_lasso_threshold,
    apply,
    _shrinkage_components,
    apply_library,
    band_matrix,
    build_library,
    default_library,
    dense_target,
    expand_grid,
    hard_threshold,
    library_preset,
    light_library,
    scad_threshold,
    taper_weights,
    wide_library,
)
from covsel.matrix_core import eigendecompose, sample_covariance


def soft_threshold(matrix, cut):
    return np.sign(matrix) * np.maximum(np.abs(matrix) - cut, 0.0)


def fit(family, data, **params):
    """Fit one registry candidate, the package's only fit path."""
    return apply(EstimatorSpec(family, params), data)


@pytest.fixture
def random_data():
    rng = np.random.default_rng(0)
    return rng.normal(size=(30, 6))


@pytest.fixture
def random_cov(random_data):
    return sample_covariance(random_data)


class TestHardThreshold:
    def test_small_entry_zeroed(self):
        m = np.array([[1.0, 0.15], [0.15, 1.0]])
        out = hard_threshold(m, 0.2)
        assert out[0, 1] == 0.0 and out[1, 0] == 0.0
        assert out[0, 0] == 1.0

    def test_zero_threshold_is_noop(self, random_cov):
        assert np.array_equal(hard_threshold(random_cov, 0.0), random_cov)

    def test_negative_entries_kept_by_magnitude(self):
        m = np.array([[1.0, -0.5], [-0.5, 1.0]])
        out = hard_threshold(m, 0.3)
        assert out[0, 1] == -0.5

    def test_dominance(self, random_cov):
        out = hard_threshold(random_cov, 0.1)
        assert np.all(np.abs(out) <= np.abs(random_cov))


class TestScadThreshold:
    def test_identity_region(self):
        m = np.array([[5.0, -4.0], [-4.0, 5.0]])
        out = scad_threshold(m, 0.5, shape=3.7)  # identity for |z| > 1.85
        assert np.array_equal(out, m)

    def test_soft_region(self):
        u = 0.4
        m = np.array([[0.0, 0.6], [0.6, 0.0]])  # |z| <= 2u
        out = scad_threshold(m, u)
        assert np.allclose(out, soft_threshold(m, u), atol=1e-15)

    def test_continuity_at_region_edges(self):
        u, a = 0.3, 3.7
        for edge in (2.0 * u, a * u):
            below = scad_threshold(np.array([[edge - 1e-9]]), u, a)[0, 0]
            above = scad_threshold(np.array([[edge + 1e-9]]), u, a)[0, 0]
            assert abs(below - above) < 1e-6

    def test_dominance(self, random_cov):
        out = scad_threshold(random_cov, 0.2)
        assert np.all(np.abs(out) <= np.abs(random_cov) + 1e-15)

    def test_shape_must_exceed_two(self):
        with pytest.raises(ConfigError):
            EstimatorSpec("scad_threshold", {"threshold": 0.1, "shape": 2.0})

    @pytest.mark.parametrize("shape", [float("inf"), float("nan"), "abc"])
    def test_shape_must_be_a_finite_number(self, shape):
        with pytest.raises(ConfigError):
            EstimatorSpec("scad_threshold", {"threshold": 0.1, "shape": shape})


class TestAdaptiveLasso:
    def test_zero_exponent_equals_soft(self, random_cov):
        out = adaptive_lasso_threshold(random_cov, 0.25, 0.0)
        assert np.array_equal(out, soft_threshold(random_cov, 0.25))

    def test_zero_entries_stay_zero(self):
        m = np.zeros((3, 3))
        out = adaptive_lasso_threshold(m, 0.2, 0.5)
        assert np.array_equal(out, m)

    def test_dominance(self, random_cov):
        for exponent in (0.1, 0.3, 0.5):
            out = adaptive_lasso_threshold(random_cov, 0.2, exponent)
            assert np.all(np.abs(out) <= np.abs(random_cov) + 1e-15)

    def test_large_entries_barely_shrunk(self):
        out = adaptive_lasso_threshold(np.array([[10.0]]), 0.1, 2.0)
        # borrowed penalty is u**3 / z**2 = 1e-5
        assert out[0, 0] == pytest.approx(10.0, abs=1e-4)


class TestBanding:
    def test_zero_bands_keeps_diagonal(self, random_cov):
        out = band_matrix(random_cov, 0)
        assert np.array_equal(out, np.diag(np.diag(random_cov)))

    def test_full_bandwidth_is_noop(self, random_cov):
        dim = random_cov.shape[0]
        assert np.array_equal(band_matrix(random_cov, dim - 1), random_cov)
        assert np.array_equal(band_matrix(random_cov, dim + 3), random_cov)

    def test_indicator_mask_brute_force(self, random_cov):
        out = band_matrix(random_cov, 1)
        dim = random_cov.shape[0]
        for j in range(dim):
            for l in range(dim):
                if abs(j - l) >= 2:
                    assert out[j, l] == 0.0
                else:
                    assert out[j, l] == random_cov[j, l]


class TestTapering:
    def test_weight_profile_bandwidth_four(self):
        weights = taper_weights(7, 4)
        # expected weight by |j - l| from the piecewise decay formula
        expected = {0: 1.0, 1: 1.0, 2: 1.0, 3: 0.5, 4: 0.0, 5: 0.0, 6: 0.0}
        for j in range(7):
            for l in range(7):
                assert weights[j, l] == expected[abs(j - l)]

    def test_bandwidth_two_equals_band_one(self, random_data):
        assert np.array_equal(fit("tapering", random_data, bands=2), fit("banding", random_data, bands=1))

    def test_all_ones_weights_is_noop(self, random_data):
        cov = sample_covariance(random_data)
        dim = cov.shape[0]
        wide_bandwidth = 2 * (dim - 1)  # weights are 1 everywhere
        assert np.all(taper_weights(dim, wide_bandwidth) == 1.0)
        assert np.array_equal(fit("tapering", random_data, bands=wide_bandwidth), cov)

    def test_zero_beyond_bandwidth(self, random_data):
        out = fit("tapering", random_data, bands=4)
        dim = out.shape[0]
        for j in range(dim):
            for l in range(dim):
                if abs(j - l) >= 4:
                    assert out[j, l] == 0.0

    def test_odd_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            taper_weights(5, 3)
        with pytest.raises(ConfigError):
            EstimatorSpec("tapering", {"bands": 0})

    def test_dominance(self, random_data):
        cov = sample_covariance(random_data)
        out = fit("tapering", random_data, bands=4)
        assert np.all(np.abs(out) <= np.abs(cov) + 1e-15)


class TestLinearShrinkage:
    def test_single_observation_returns_sample_cov(self):
        data = np.array([[1.0, 2.0, -1.0]])
        assert np.array_equal(fit("linear_shrinkage", data), sample_covariance(data))

    def test_identical_rows_return_sample_cov(self):
        data = np.tile([1.0, -2.0, 0.5], (6, 1))
        assert np.array_equal(fit("linear_shrinkage", data), sample_covariance(data))

    def test_identity_sample_cov_fixed_point(self):
        data = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert np.array_equal(sample_covariance(data), np.eye(2))
        assert np.array_equal(fit("linear_shrinkage", data), np.eye(2))

    def test_component_identities(self, random_data):
        parts = _shrinkage_components(random_data, sample_covariance(random_data))
        assert parts.dispersion_sq + parts.signal_sq == pytest.approx(
            parts.target_distance_sq, rel=1e-12
        )
        weight_sum = parts.intensity + parts.signal_sq / parts.target_distance_sq
        assert weight_sum == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= parts.intensity <= 1.0

    def test_psd(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 12))  # more features than rows
        eigvals = np.linalg.eigvalsh(fit("linear_shrinkage", data))
        assert eigvals.min() >= -1e-10


class TestDenseShrinkage:
    def test_target_construction(self):
        cov = np.array([[1.0, 3.0], [3.0, 5.0]])
        assert np.array_equal(dense_target(cov), np.array([[3.0, 3.0], [3.0, 3.0]]))

    def test_fixed_point(self):
        data = np.array([[1.0, 1.0], [-1.0, -1.0]])
        cov = sample_covariance(data)
        assert np.array_equal(dense_target(cov), cov)
        assert np.array_equal(fit("dense_linear_shrinkage", data), cov)

    def test_intensity_clamped(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            data = rng.normal(size=(4 + trial, 5))
            cov = sample_covariance(data)
            target = dense_target(cov)
            estimate = fit("dense_linear_shrinkage", data)
            # recover the combination weight from the entry farthest from the target
            gap = target - cov
            j, l = np.unravel_index(np.argmax(np.abs(gap)), gap.shape)
            rho = (estimate[j, l] - cov[j, l]) / gap[j, l]
            assert -1e-12 <= rho <= 1.0 + 1e-12
            assert np.allclose(estimate, rho * target + (1 - rho) * cov, atol=1e-10)

    def test_single_feature_rejected(self):
        with pytest.raises(ConfigError):
            fit("dense_linear_shrinkage", np.array([[1.0], [2.0]]))


class TestPoet:
    def test_full_rank_recovers_sample_cov(self, random_data):
        cov = sample_covariance(random_data)
        out = fit("poet", random_data, factors=cov.shape[0], threshold=0.4)
        assert np.linalg.norm(out - cov) / np.linalg.norm(cov) < 1e-8

    def test_no_factors_large_threshold_gives_diagonal(self, random_data):
        cov = sample_covariance(random_data)
        big = np.abs(cov).max() + 1.0
        out = fit("poet", random_data, factors=0, threshold=big)
        assert np.array_equal(out, np.diag(np.diag(cov)))

    def test_no_factors_zero_threshold_is_noop(self, random_data):
        cov = sample_covariance(random_data)
        assert np.array_equal(fit("poet", random_data, factors=0, threshold=0.0), cov)

    def test_diagonal_preserved_exactly(self, random_data):
        cov = sample_covariance(random_data)
        for factors in (1, 3):
            out = fit("poet", random_data, factors=factors, threshold=0.2)
            assert np.array_equal(np.diag(out), np.diag(cov))

    def test_too_many_factors_fails(self, random_data):
        spec = EstimatorSpec("poet", {"factors": 50, "threshold": 0.1})
        results = apply_library(CandidateLibrary((spec,)), random_data)
        assert results[0][0] is None
        assert "factor count" in results[0][1]


class TestDispatch:
    def test_sample_cov_example(self):
        spec = EstimatorSpec("sample_covariance")
        out = apply(spec, [[1.0, 1.0], [-1.0, -1.0]])
        assert np.array_equal(out, [[1.0, 1.0], [1.0, 1.0]])

    def test_full_bandwidth_banding_equals_sample_cov(self, random_data):
        dim = random_data.shape[1]
        out = apply(EstimatorSpec("banding", {"bands": dim - 1}), random_data)
        assert np.array_equal(out, sample_covariance(random_data))

    def test_determinism_bit_identical(self, random_data):
        for spec in default_library():
            first = apply(spec, random_data)
            second = apply(spec, random_data)
            assert np.array_equal(first, second), spec.id

    def test_all_estimates_symmetric_finite(self, random_data):
        for estimate, failure in apply_library(default_library(), random_data):
            assert failure is None
            assert np.array_equal(estimate, estimate.T)
            assert np.all(np.isfinite(estimate))

    def test_threshold_estimate_rules(self, random_data):
        cov = sample_covariance(random_data)
        assert np.array_equal(fit("hard_threshold", random_data, threshold=0.2), hard_threshold(cov, 0.2))
        assert np.array_equal(
            fit("adaptive_lasso", random_data, threshold=0.2, exponent=0.3),
            adaptive_lasso_threshold(cov, 0.2, 0.3),
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            EstimatorSpec("nonsense")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            EstimatorSpec("hard_threshold", {"threshold": -0.1})


class TestSpecsAndLibraries:
    def test_derived_ids(self):
        assert EstimatorSpec("sample_covariance").id == "sample_covariance"
        assert EstimatorSpec("banding", {"bands": 2}).id == "banding(bands=2)"
        spec = EstimatorSpec("poet", {"factors": 3, "threshold": 0.1})
        assert spec.id == "poet(factors=3, threshold=0.1)"

    def test_scad_default_shape_filled(self):
        spec = EstimatorSpec("scad_threshold", {"threshold": 0.3})
        assert spec.params["shape"] == 3.7
        assert "shape=3.7" in spec.id

    def test_explicit_id_allows_duplicates(self):
        a = EstimatorSpec("sample_covariance", id="a")
        b = EstimatorSpec("sample_covariance", id="b")
        library = CandidateLibrary((a, b))
        assert library.ids == ("a", "b")

    def test_duplicate_ids_rejected(self):
        spec = EstimatorSpec("sample_covariance")
        with pytest.raises(ConfigError):
            CandidateLibrary((spec, EstimatorSpec("sample_covariance")))

    def test_empty_library_rejected(self):
        with pytest.raises(ConfigError):
            CandidateLibrary(())

    def test_expand_grid_cross_product(self):
        specs = expand_grid("poet", factors=[1, 2], threshold=[0.1, 0.2, 0.3])
        assert len(specs) == 6
        assert specs[0].id == "poet(factors=1, threshold=0.1)"
        assert specs[-1].id == "poet(factors=2, threshold=0.3)"

    def test_build_library_order(self):
        library = build_library({"sample_covariance": {}, "banding": {"bands": [1, 2]}})
        assert library.ids == ("sample_covariance", "banding(bands=1)", "banding(bands=2)")

    def test_preset_sizes(self):
        assert len(default_library()) == 73
        assert len(wide_library()) == 183
        assert len(light_library()) == 80

    def test_default_library_families(self):
        families = {spec.family for spec in default_library()}
        assert families == {
            "sample_covariance", "hard_threshold", "scad_threshold", "adaptive_lasso",
            "banding", "tapering", "linear_shrinkage", "dense_linear_shrinkage", "poet",
        }

    def test_fixed_family(self, random_data):
        matrix = np.eye(random_data.shape[1])
        spec = EstimatorSpec("fixed", {"matrix": matrix})
        assert np.array_equal(apply(spec, random_data), matrix)
        wrong = EstimatorSpec("fixed", {"matrix": np.eye(3)})
        results = apply_library(CandidateLibrary((wrong,)), random_data)
        assert results[0][0] is None

    def test_register_family_hook(self, random_data):
        from covsel.estimators import _FAMILIES, register_family

        def fit_scaled_diagonal(ctx, params):
            return params["scale"] * np.diag(np.diag(ctx.cov))

        def validate(params):
            if set(params) != {"scale"} or params["scale"] <= 0:
                raise ConfigError("scale must be positive")
            return {"scale": float(params["scale"])}

        register_family("scaled_diagonal", fit_scaled_diagonal, validate, ("scale",))
        try:
            spec = EstimatorSpec("scaled_diagonal", {"scale": 2.0})
            assert spec.id == "scaled_diagonal(scale=2.0)"
            expected = 2.0 * np.diag(np.diag(sample_covariance(random_data)))
            assert np.array_equal(apply(spec, random_data), expected)
            with pytest.raises(ConfigError):
                register_family("scaled_diagonal", fit_scaled_diagonal)
        finally:
            _FAMILIES.pop("scaled_diagonal", None)


def uncached_fit(spec, cov):
    """One candidate from the public transforms of ``cov``, sharing nothing."""
    p = spec.params
    if spec.family == "sample_covariance":
        return cov
    if spec.family == "hard_threshold":
        return hard_threshold(cov, p["threshold"])
    if spec.family == "scad_threshold":
        return scad_threshold(cov, p["threshold"], p["shape"])
    if spec.family == "adaptive_lasso":
        return adaptive_lasso_threshold(cov, p["threshold"], p["exponent"])
    if spec.family == "banding":
        return band_matrix(cov, p["bands"])
    if spec.family == "tapering":
        weights = taper_weights(cov.shape[0], p["bands"])
        return np.where(weights == 0.0, 0.0, weights * cov)
    if spec.family == "poet":
        eig = eigendecompose(cov)
        vecs = eig.eigenvectors[:, : p["factors"]]
        low_rank = (vecs * eig.eigenvalues[: p["factors"]]) @ vecs.T
        low_rank = 0.5 * (low_rank + low_rank.T)
        out = low_rank + hard_threshold(cov - low_rank, p["threshold"])
        np.fill_diagonal(out, np.diag(cov))
        return out
    return None  # the shrinkage families share nothing beyond cov


def ternary_data():
    """J > n data whose covariance has exact zeros and entries at k/4.

    Every grid threshold that is a multiple of 1/4 (0.25, 0.5, 0.75, 1.0)
    is hit exactly by some entry.
    """
    rng = np.random.default_rng(3)
    data = rng.integers(-1, 2, size=(4, 12)).astype(float)
    data[:, 0] = [1.0, 1.0, 0.0, 0.0]
    data[:, 1] = [0.0, 0.0, 1.0, 1.0]
    return data


class TestCachedKernels:
    @pytest.mark.parametrize("preset", ["default", "wide", "light"])
    @pytest.mark.parametrize("kind", ["ternary", "gaussian"])
    def test_shared_context_fits_equal_the_public_transforms(self, preset, kind):
        if kind == "ternary":
            data = ternary_data()
        else:
            data = np.random.default_rng(4).standard_normal((8, 15))
        cov = sample_covariance(data)
        if kind == "ternary":
            assert np.any(cov == 0.0) and {0.25, 0.5, 0.75, 1.0} <= set(np.abs(cov).ravel())
        library = library_preset(preset)
        for spec, (estimate, failure) in zip(library, apply_library(library, data)):
            assert failure is None, spec.id
            assert np.array_equal(estimate, apply(spec, data)), spec.id
            expected = uncached_fit(spec, cov)
            if expected is not None:
                assert np.array_equal(estimate, expected), spec.id
