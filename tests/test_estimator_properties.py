"""Property tests of the estimator registry, the package's only fit path.

Data are drawn from seeded generators rather than arbitrary floats, so a
failing example is reproduced by its seed and shape alone.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from covsel.estimators import apply, apply_library, build_library, default_library  # noqa: E402
from covsel.matrix_core import is_psd, sample_covariance  # noqa: E402

#: Families whose estimate does not depend on the order of the features.
#: Banding and tapering are excluded: they weight entries by |j - l|.
ORDER_FREE = (
    "sample_covariance",
    "hard_threshold",
    "scad_threshold",
    "adaptive_lasso",
    "linear_shrinkage",
    "dense_linear_shrinkage",
    "poet",
)

# POET in the default library uses up to 5 factors, so at least 5 features.
seeds = st.integers(0, 2**32 - 1)
shapes = st.tuples(st.integers(2, 30), st.integers(5, 9))


def draw_data(seed, shape):
    rng = np.random.default_rng(seed)
    n, dim = shape
    return rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, dim), rng.permutation(dim)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seeds, shapes)
def test_every_default_family_is_exactly_symmetric(seed, shape):
    data, _ = draw_data(seed, shape)
    library = default_library()
    fits = apply_library(library, data)
    for spec, (estimate, failure) in zip(library, fits):
        assert failure is None, spec.id
        assert np.array_equal(estimate, estimate.T), spec.id


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seeds, shapes)
def test_order_free_families_are_permutation_equivariant(seed, shape):
    data, perm = draw_data(seed, shape)
    permuted = data[:, perm]
    checked = set()
    for spec in default_library():
        if spec.family not in ORDER_FREE:
            continue
        expected = apply(spec, data)[np.ix_(perm, perm)]
        assert np.allclose(apply(spec, permuted), expected, rtol=0.0, atol=1e-12), spec.id
        checked.add(spec.family)
    assert checked == set(ORDER_FREE)


#: ROADMAP item 5's special cases, fitted from one shared context so the
#: cached intermediates of earlier candidates are in play.
SPECIAL_CASES = build_library(
    {
        "adaptive_lasso": {"threshold": [0.1, 0.3], "exponent": [0.0, 0.5]},
        "banding": {"bands": [1]},
        "tapering": {"bands": [2]},
        "poet": {"factors": [1, 3], "threshold": [0.1, 0.5]},
    }
)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seeds, shapes)
def test_documented_special_cases_through_the_registry(seed, shape):
    data, _ = draw_data(seed, shape)
    cov = sample_covariance(data)
    fits = dict(zip(SPECIAL_CASES.ids, apply_library(SPECIAL_CASES, data)))
    for threshold in (0.1, 0.3):
        soft = np.sign(cov) * np.maximum(np.abs(cov) - threshold, 0.0)
        estimate, _ = fits[f"adaptive_lasso(threshold={threshold}, exponent=0.0)"]
        assert np.array_equal(estimate, soft)
    assert np.array_equal(fits["tapering(bands=2)"][0], fits["banding(bands=1)"][0])
    for spec in SPECIAL_CASES:
        if spec.family == "poet":
            assert np.array_equal(np.diag(fits[spec.id][0]), np.diag(cov)), spec.id


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seeds, shapes)
def test_psd_flag_matches_the_eigenvalue_definition(seed, shape):
    data, _ = draw_data(seed, shape)
    library = default_library()
    for spec, (estimate, _) in zip(library, apply_library(library, data)):
        eigvals = np.linalg.eigvalsh(estimate)
        expected = eigvals.min() >= -1e-10 * max(float(np.abs(eigvals).max()), 1e-300)
        assert is_psd(estimate) == expected, spec.id
