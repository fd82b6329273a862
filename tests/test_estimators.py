import numpy as np
import pytest

from covsel import estimators
from covsel.errors import ConfigError
from covsel.estimators import (
    CandidateLibrary,
    EstimatorSpec,
    FitContext,
    _adaptive_lasso,
    _band,
    _dense_target,
    _grouped_fits,
    _hard,
    _identity_target,
    _inverse_power,
    _scad,
    _shrinkage_components,
    _taper,
    _try_fit,
    apply,
    apply_library,
    build_library,
    default_library,
    expand_grid,
    library_preset,
    light_library,
    wide_library,
)
from covsel.matrix_core import eigendecompose, sample_covariance


def soft_threshold(matrix, cut):
    return np.sign(matrix) * np.maximum(np.abs(matrix) - cut, 0.0)


def fit(family, data, **params):
    """Fit one registry candidate, the package's only fit path."""
    return apply(EstimatorSpec(family, params), data)


def hard_threshold(m, threshold):
    return _hard(m, np.abs(m), threshold)


def scad_threshold(m, threshold, shape=3.7):
    return _scad(m, np.abs(m), np.sign(m), threshold, shape)


def adaptive_lasso_threshold(m, threshold, exponent):
    magnitude = np.abs(m)
    return _adaptive_lasso(magnitude, np.sign(m), _inverse_power(magnitude, exponent), threshold, exponent)


def band_matrix(m, bands):
    return _band(m, bands)


def taper_weights(dim, bands):
    """The tapering weight of every entry: the kernel applied to a matrix of ones."""
    return _taper(np.ones((dim, dim)), bands)


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

    def test_entries_at_the_threshold_are_zeroed(self):
        # 0.1 - 0.1**1.1 * 0.1**-0.1 rounds above zero; |s| <= u decides.
        m = np.array([[1.0, 0.1], [0.1, 1.0]])
        assert np.array_equal(adaptive_lasso_threshold(m, 0.1, 0.1), np.diag(np.diag(m) - 0.1**1.1))

    @pytest.mark.parametrize("exponent", [0.0, 0.1, 0.5, 2.0])
    def test_threshold_zero_is_the_sample_covariance(self, exponent):
        data = ternary_data()
        assert np.any(sample_covariance(data) == 0.0)
        got = fit("adaptive_lasso", data, threshold=0.0, exponent=exponent)
        assert np.array_equal(got, fit("sample_covariance", data))


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
            EstimatorSpec("tapering", {"bands": 3})
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
        cov = sample_covariance(random_data)
        parts = _shrinkage_components(random_data, cov, _identity_target(cov))
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


@pytest.mark.parametrize("family", ["linear_shrinkage", "dense_linear_shrinkage"])
def test_tiny_data_are_shrunk_as_at_scale_one(family):
    # At 2**-498 the entries of S are near 2**-996, and their squares underflow
    # in data units; the plug-in sums them in units of max|S|.
    rng = np.random.default_rng(7)
    for shape in [(10, 6), (5, 12), (40, 30), (3, 2), (100, 50), (20, 80)]:
        data = rng.standard_normal(shape)
        assert np.array_equal(fit(family, np.ldexp(data, -498)), np.ldexp(fit(family, data), -996)), shape


class TestDenseShrinkage:
    def test_target_construction(self):
        cov = np.array([[1.0, 3.0], [3.0, 5.0]])
        assert np.array_equal(_dense_target(cov), np.array([[3.0, 3.0], [3.0, 3.0]]))

    def test_fixed_point(self):
        data = np.array([[1.0, 1.0], [-1.0, -1.0]])
        cov = sample_covariance(data)
        assert np.array_equal(_dense_target(cov), cov)
        assert np.array_equal(fit("dense_linear_shrinkage", data), cov)

    def test_intensity_clamped(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            data = rng.normal(size=(4 + trial, 5))
            cov = sample_covariance(data)
            target = _dense_target(cov)
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


#: A valid hyperparameter set of each built-in family that has hyperparameters.
VALID_PARAMS = {
    "hard_threshold": {"threshold": 0.1},
    "scad_threshold": {"threshold": 0.1, "shape": 3.7},
    "adaptive_lasso": {"threshold": 0.1, "exponent": 0.5},
    "banding": {"bands": 2},
    "tapering": {"bands": 4},
    "poet": {"factors": 2, "threshold": 0.1},
}

#: Each family's bounds, integrality and special rules, one defect at a time.
RULE_CASES = [
    ("hard_threshold", {"threshold": -0.1}, "hyperparameter 'threshold' must be >= 0.0, got -0.1"),
    ("scad_threshold", {"threshold": -0.1}, "hyperparameter 'threshold' must be >= 0.0, got -0.1"),
    ("scad_threshold", {"threshold": 0.1, "shape": 1.5}, "hyperparameter 'shape' must be > 2.0, got 1.5"),
    ("scad_threshold", {"threshold": 0.1, "shape": 2}, "hyperparameter 'shape' must be > 2.0, got 2.0"),
    ("adaptive_lasso", {"threshold": -0.1, "exponent": 0.5}, "hyperparameter 'threshold' must be >= 0.0, got -0.1"),
    ("adaptive_lasso", {"threshold": 0.1, "exponent": -0.1}, "hyperparameter 'exponent' must be >= 0.0, got -0.1"),
    ("banding", {"bands": -1}, "hyperparameter 'bands' must be >= 0, got -1.0"),
    ("banding", {"bands": 2.5}, "hyperparameter 'bands' must be an integer, got 2.5"),
    ("tapering", {"bands": 0}, "hyperparameter 'bands' must be >= 2, got 0.0"),
    ("tapering", {"bands": 2.5}, "hyperparameter 'bands' must be an integer, got 2.5"),
    ("tapering", {"bands": 3}, "tapering bandwidth must be even, got 3"),
    ("tapering", {"bands": 3, "extra": 1}, "tapering bandwidth must be even, got 3"),
    ("poet", {"factors": -1, "threshold": 0.1}, "hyperparameter 'factors' must be >= 0, got -1.0"),
    ("poet", {"factors": 2.5, "threshold": 0.1}, "hyperparameter 'factors' must be an integer, got 2.5"),
    ("poet", {"factors": 2, "threshold": -0.1}, "hyperparameter 'threshold' must be >= 0.0, got -0.1"),
    ("sample_covariance", {"threshold": 0.1}, "unexpected hyperparameters: ['threshold']"),
]


def shared_rule_cases():
    """Every family crossed with a missing key, a non-number, a non-finite value and an unexpected key."""
    bad_values = [
        (True, "must be a number, got True"),
        ("0.1", "must be a number, got '0.1'"),
        (float("nan"), "must be finite"),
        (float("inf"), "must be finite"),
    ]
    for family, valid in VALID_PARAMS.items():
        for key in valid:
            if key != "shape":  # SCAD's shape defaults to 3.7
                yield family, {k: v for k, v in valid.items() if k != key}, f"missing hyperparameter {key!r}"
            for value, problem in bad_values:
                yield family, {**valid, key: value}, f"hyperparameter {key!r} {problem}"
        yield family, {**valid, "extra": 1}, "unexpected hyperparameters: ['extra']"


class TestHyperparameterRules:
    @pytest.mark.parametrize("family, params, message", [*shared_rule_cases(), *RULE_CASES])
    def test_rejection_message(self, family, params, message):
        with pytest.raises(ConfigError) as excinfo:
            EstimatorSpec(family, params)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("family", VALID_PARAMS)
    def test_valid_params_normalized(self, family):
        spec = EstimatorSpec(family, {k: np.float64(v) for k, v in VALID_PARAMS[family].items()})
        assert spec.params == VALID_PARAMS[family]
        for key, value in spec.params.items():
            assert type(value) is (int if key in ("bands", "factors") else float)


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


def uncached_fit(spec, data):
    """One candidate from the kernels applied to the data's covariance, sharing nothing."""
    cov = sample_covariance(data)
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
        n, dim = data.shape
        if n < dim:
            # The rank-k part from the n x n Gram matrix: (X^T U_k)(X^T U_k)^T / n.
            vecs = (data.T @ eigendecompose(data @ data.T / n).eigenvectors)[:, : p["factors"]]
            weights = np.full(vecs.shape[1], 1.0 / n)
        else:
            eig = eigendecompose(cov)
            vecs, weights = eig.eigenvectors[:, : p["factors"]], eig.eigenvalues[: p["factors"]]
        # One syrk: C @ C.T with C = B_k * sqrt(max(w_k, 0)).
        loadings = vecs * np.sqrt(np.maximum(weights, 0.0))
        low_rank = loadings @ loadings.T
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
    def test_shared_context_fits_equal_the_uncached_kernels(self, preset, kind):
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
            expected = uncached_fit(spec, data)
            if expected is not None:
                assert np.array_equal(estimate, expected), spec.id

    @pytest.mark.parametrize("bands", [0, 1, 2, 3, 4, 6, 10, 14, 15, 40])
    def test_the_diagonal_kernels_equal_the_distance_masks(self, bands):
        """Banding and tapering as ``np.where`` over the ``J x J`` distances ``|j - l|`` gave them, bit for bit."""
        dim = 15
        m = sample_covariance(np.random.default_rng(2).standard_normal((10, dim)))
        m[np.abs(m) < 0.2] *= -0.0  # exact zeros of either sign
        assert np.any(np.signbit(m) & (m == 0.0))
        distance = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))).astype(np.float64)
        assert _band(m, bands).tobytes() == np.where(distance <= bands, m, 0.0).tobytes()
        if bands >= 2 and bands % 2 == 0:
            decay = 2.0 - 2.0 * distance / bands
            weights = np.where(distance <= bands // 2, 1.0, np.where(distance <= bands, decay, 0.0))
            expected = weights * m
            expected[weights == 0.0] = 0.0
            assert _taper(m, bands).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [60, 30], ids=["tall", "wide"])
    def test_the_cache_holds_at_most_eleven_matrices_and_four_in_the_grouped_pass(self, n, monkeypatch):
        def cached(ctx):
            def arrays(value):
                if isinstance(value, np.ndarray):
                    yield value
                elif isinstance(value, (list, tuple, dict)):
                    for item in value.values() if isinstance(value, dict) else value:
                        yield from arrays(item)

            return sum(array.nbytes for name, value in vars(ctx).items() if name != "data" for array in arrays(value))

        dim = 40
        data = np.random.default_rng(6).standard_normal((n, dim))
        ctx = FitContext(data)
        for spec in default_library():
            _try_fit(spec, ctx)
        # In library order every entry is filled: 11.025 J^2 doubles at n=60, 10.77 J^2 at n=30.
        assert 8 * 10 * dim * dim < cached(ctx) <= 8 * (11 * dim * dim + dim)

        contexts = []
        monkeypatch.setattr(estimators, "FitContext", lambda data: contexts.append(FitContext(data)) or contexts[-1])
        sizes = [cached(contexts[0]) for _ in _grouped_fits(default_library(), data)]
        # S and at most three entries: |S|, sign(S) and one |S|^-e, or POET's basis and parts; S alone at the end.
        assert max(sizes) <= 8 * (4 * dim * dim + dim) and sizes[-1] == 8 * dim * dim


def factor_data():
    """Three strong latent factors plus noise, n=12 rows and J=30 features."""
    rng = np.random.default_rng(21)
    loadings = rng.standard_normal((30, 3))
    return rng.standard_normal((12, 3)) @ loadings.T + 0.3 * rng.standard_normal((12, 30))


def eigh_low_rank(cov, factors):
    """POET's rank-``factors`` part from the full eigendecomposition of ``cov``."""
    eig = eigendecompose(cov)
    loadings = eig.eigenvectors[:, :factors] * np.sqrt(np.maximum(eig.eigenvalues[:factors], 0.0))
    return loadings @ loadings.T, eig.eigenvalues


class TestGramFactors:
    @pytest.mark.parametrize("center", [False, True], ids=["raw", "centered"])
    @pytest.mark.parametrize(
        "make_data",
        [ternary_data, factor_data, lambda: np.random.default_rng(4).standard_normal((8, 15))],
        ids=["ternary", "factor", "gaussian"],
    )
    def test_wide_data_take_the_eigh_low_rank_part_from_the_gram_matrix(self, make_data, center):
        data = make_data()
        if center:
            data = data - data.mean(axis=0)
        n, dim = data.shape
        assert n < dim
        ctx = FitContext(data)
        assert ctx.factor_basis[0].shape == (dim, n)
        scale = np.max(np.abs(ctx.cov))
        checked = 0
        for factors in range(1, min(10, n) + 1):
            low_rank, residual = ctx.poet_parts(factors)
            assert np.array_equal(low_rank, low_rank.T)
            assert np.array_equal(residual, ctx.cov - low_rank)
            expected, eigenvalues = eigh_low_rank(ctx.cov, factors)
            if eigenvalues[factors - 1] > eigenvalues[factors]:
                assert np.max(np.abs(low_rank - expected)) <= 1e-12 * scale, factors
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("shape", [(15, 15), (40, 6)])
    def test_tall_data_keep_the_eigh_path_bit_for_bit(self, shape):
        data = np.random.default_rng(5).standard_normal(shape)
        ctx = FitContext(data)
        for factors in range(0, min(10, shape[1]) + 1):
            low_rank, _ = ctx.poet_parts(factors)
            expected = eigh_low_rank(ctx.cov, factors)[0] if factors else np.zeros_like(ctx.cov)
            assert np.array_equal(low_rank, expected), factors
