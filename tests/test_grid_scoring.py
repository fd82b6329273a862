"""Grid scores against the direct path: fit each candidate, score it, drop it.

``_score_fits`` scores the grid families (sample covariance, thresholding,
banding, tapering, POET) from shared sums over the training covariance
and builds no estimate for them.  The oracle here is the direct path,
``_try_fit`` plus ``scaled_frobenius_sq``.  Values agree to 1e-12 of the
larger of the value and the fold's base, the sample covariance's value:
each grid value is the base plus a sum over the changed entries, so a
candidate that lands much closer to the target than ``S`` does (seen at
J=1) carries the base's rounding.  Failure reasons agree exactly, and no
fit has an entry larger in magnitude than the fold's ``max|S|``, the
bound's ``m2``, but for POET's rounding.  Candidates with equal
estimates get equal values, bit for bit, when one scorer sums both or
when the estimate is ``S``; selections score the candidates near the
smallest mean risk again on the direct path, so their winners and tie
sets equal the direct path's.
"""

import itertools

import numpy as np
import pytest

import covsel.cv_engine as cv_engine
import covsel.estimators as estimators
from covsel import _grid
from covsel.cv_engine import MonteCarloSplit, VFold, evaluate_candidates, make_splits, select
from covsel.errors import DegenerateFeatureError
from covsel.estimators import CandidateLibrary, EstimatorSpec, FitContext, _score_fits, library_preset
from covsel.loss_risk import _scaling
from covsel.matrix_core import sample_covariance, scaled_frobenius_sq

RTOL = 1e-12


def score_fits(library, data, targets):
    """``_score_fits`` on a fold that trains on ``data`` and scores against ``targets``."""
    return _score_fits(library, _grid.Fold(FitContext(data), targets))


def fold_peak(data):
    """The fold's ``max|S|``, as ``evaluate_candidates`` takes it for ``m2``."""
    return float(np.max(np.abs(sample_covariance(data))))


def preset_specs():
    """Every candidate of the default, wide and light presets, once each."""
    specs = {}
    for name in ("default", "wide", "light"):
        for spec in library_preset(name):
            specs.setdefault(spec.id, spec)
    return list(specs.values())


#: Specs outside the presets that probe a scorer's domain: threshold 0,
#: exponent 0, another SCAD shape, banding 0 and POET without factors.
EDGE_SPECS = [
    EstimatorSpec("adaptive_lasso", {"threshold": 0.0, "exponent": 0.5}),
    EstimatorSpec("adaptive_lasso", {"threshold": 0.25, "exponent": 0.0}),
    EstimatorSpec("scad_threshold", {"threshold": 0.25, "shape": 2.5}),
    EstimatorSpec("hard_threshold", {"threshold": 0.0}),
    EstimatorSpec("banding", {"bands": 0}),
    EstimatorSpec("poet", {"factors": 0, "threshold": 0.25}),
]
PRESETS = preset_specs()
LIBRARY = CandidateLibrary(tuple(PRESETS + EDGE_SPECS))


def ar1(dim):
    idx = np.arange(dim)
    return 0.7 ** np.abs(idx[:, None] - idx[None, :])


def make_data(kind, dim, seed=0):
    """``(data, psi0)``: AR(1), three-factor, or ternary rows with exact zeros and breakpoints."""
    rng = np.random.default_rng([seed, dim])
    if kind == "ar1":
        psi0 = ar1(dim)
        return rng.standard_normal((30, dim)) @ np.linalg.cholesky(psi0).T, psi0
    if kind == "factor":
        loadings = rng.standard_normal((dim, 3))
        psi0 = loadings @ loadings.T + np.eye(dim)
        return rng.standard_normal((25, dim)) @ np.linalg.cholesky(psi0).T, psi0
    # n=4 rows of {-1, 0, 1}: covariance entries are multiples of 1/4, so
    # the grid thresholds 0.25, 0.5, 0.75 and 1.0 are hit exactly.
    data = rng.integers(-1, 2, size=(4, dim)).astype(float)
    if dim >= 2:
        data[:, 0], data[:, 1] = [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]
    return data, np.eye(dim)


def fold_targets(data, psi0, scaling):
    """A training fold and its targets: the validation covariance and psi0, each with its scaling."""
    split = max(1, data.shape[0] // 3)
    val, train = data[:split], data[split:]
    eta, oracle_eta = _scaling(scaling, sample_covariance(train)), _scaling(scaling, psi0)
    return train, [(sample_covariance(val), eta), (psi0, oracle_eta)]


def direct_scores(library, data, targets):
    """The oracle: each candidate fitted, scored against every target and kept for comparison."""
    ctx = FitContext(data)
    values = np.full((len(library), len(targets)), np.nan)
    maxima = np.full(len(library), np.nan)  # NaN where the fit failed
    failures, estimates = {}, []
    for idx, spec in enumerate(library):
        estimate, failure = estimators._try_fit(spec, ctx)
        estimates.append(estimate)
        if failure is not None:
            failures[idx] = failure
            continue
        values[idx] = [scaled_frobenius_sq(target - estimate, eta) for target, eta in targets]
        maxima[idx] = float(np.max(np.abs(estimate)))
    return values, maxima, failures, estimates


def assert_peak_bounds_every_fit(maxima, library, data):
    """No finite fit exceeds the fold's ``max|S|``, which is ``S``'s own when ``S`` is a candidate.

    POET's low-rank part comes from an eigendecomposition, whose rounding
    can carry an entry a few units in the last place past ``max|S|`` (on
    ternary folds of lower rank than the factor count), so POET is held
    to ``RTOL``; every other family, the shrinkages included, to
    ``max|S|`` itself.
    """
    peak = fold_peak(data)
    limit = np.where([spec.family == "poet" for spec in library], peak * (1.0 + RTOL), peak)
    over = np.flatnonzero(maxima > limit)  # NaN, a failed fit, compares False
    assert over.size == 0, [(library[i].id, maxima[i], peak) for i in over]
    if "sample_covariance" in library.ids:
        assert maxima[library.ids.index("sample_covariance")] == peak


def assert_matches_direct_path(library, data, targets):
    got, got_failures = score_fits(library, data, targets)
    want, maxima, want_failures, estimates = direct_scores(library, data, targets)
    assert got_failures == want_failures
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    base = want[library.ids.index("sample_covariance")]
    for idx, spec in enumerate(library):
        if np.all(np.isfinite(want[idx])):
            bound = RTOL * np.maximum(np.abs(want[idx]), np.abs(base))
            assert np.all(np.abs(got[idx] - want[idx]) <= bound), (spec.id, got[idx], want[idx])
    assert_peak_bounds_every_fit(maxima, library, data)
    # Equal estimates get equal values when one scorer sums both, or when
    # they equal S.  Otherwise their sums differ in order and they are held
    # to the bound above: POET without factors is hard thresholding binned
    # on its own, and a shrinkage can equal a banded S.
    cov = sample_covariance(data)
    scorer = [estimators._SCORERS.get(spec.family) for spec in library]
    for i, j in itertools.combinations(range(len(library)), 2):
        if estimates[i] is None or estimates[j] is None or not np.array_equal(estimates[i], estimates[j]):
            continue
        if scorer[i] is scorer[j] or np.array_equal(estimates[i], cov):
            assert np.array_equal(got[i], got[j]), (library[i].id, library[j].id)


@pytest.mark.parametrize("scaling", ["one", "inv_J", "inv_J2", "weighted"])
@pytest.mark.parametrize(
    "dim, block_entries",
    [pytest.param(dim, _grid._BLOCK_ENTRIES, id=str(dim)) for dim in (1, 2, 3, 40)]
    # J=40's rows in 40 blocks of one row, and in 7 blocks of up to 6 rows.
    + [pytest.param(40, 64, id="40-blocks64"), pytest.param(40, 256, id="40-blocks256")],
)
@pytest.mark.parametrize("kind", ["ar1", "factor", "ternary"])
def test_grid_matches_the_direct_path(kind, dim, block_entries, scaling, monkeypatch):
    monkeypatch.setattr(_grid, "_BLOCK_ENTRIES", block_entries)
    data, psi0 = make_data(kind, dim)
    if scaling == "weighted" and np.any(np.all(data[data.shape[0] // 3 :] == 0.0, axis=0)):
        with pytest.raises(DegenerateFeatureError):
            fold_targets(data, psi0, scaling)
        return
    train, targets = fold_targets(data, psi0, scaling)
    assert_matches_direct_path(LIBRARY, train, targets)


@pytest.mark.parametrize("without_s", [False, True])
@pytest.mark.parametrize("preset", ["default", "wide", "light"])
@pytest.mark.parametrize("kind", ["ar1", "factor", "ternary"])
def test_the_fold_peak_bounds_every_preset_fit(kind, preset, without_s):
    # The shrinkages, fitted on the direct path, stay within max|S| too, with or without S a candidate.
    train, targets = fold_targets(*make_data(kind, 40), "one")
    library = library_preset(preset)
    if without_s:
        library = CandidateLibrary(tuple(spec for spec in library if spec.family != "sample_covariance"))
    maxima = direct_scores(library, train, targets)[1]
    assert_peak_bounds_every_fit(maxima, library, train)


@pytest.mark.parametrize("scaling", ["one", "weighted"])
def test_a_nonsymmetric_true_covariance_is_rejected(scaling):
    # The scorers sum the upper triangle only, so psi0 must be exactly symmetric.
    data = np.random.default_rng(6).standard_normal((25, 40))
    tilted = ar1(40) + np.triu(np.full((40, 40), 0.01), 1)
    with pytest.raises(ValueError, match="symmetric"):
        evaluate_candidates(LIBRARY, data, make_splits(VFold(5, seed=0), 25), scaling=scaling, psi0=tilted)


@pytest.mark.parametrize("eta", [-1.0, np.nan, np.full((4, 4), -1.0), np.ones((3, 3))])
def test_scales_are_checked_as_the_direct_path_checks_them(eta):
    data = np.random.default_rng(8).standard_normal((10, 4))
    with pytest.raises(ValueError, match="scale"):
        score_fits(library_preset("light"), data, [(np.eye(4), eta)])


def test_ternary_data_sits_on_the_breakpoints():
    data, _ = make_data("ternary", 40)
    cov = sample_covariance(data)
    assert np.any(cov == 0.0) and {0.25, 0.5, 0.75, 1.0} <= set(np.abs(cov).ravel())


def poet_library(factor_counts, thresholds):
    """The sample covariance, then POET at every factor count and threshold."""
    poet = [
        EstimatorSpec("poet", {"factors": k, "threshold": float(u)}) for k in factor_counts for u in thresholds
    ]
    return CandidateLibrary(tuple([EstimatorSpec("sample_covariance")] + poet))


def off_diagonal_residuals(train, factors):
    """The sorted distinct ``|S - L|`` off the diagonal of the training fold's POET remainder."""
    residual = FitContext(train).poet_parts(factors)[1]
    return np.unique(np.abs(residual[np.triu_indices(residual.shape[0], 1)]))


@pytest.mark.parametrize("scaling", ["one", "weighted"])
@pytest.mark.parametrize("case", ["on_a_cut", "all_below", "none_below", "empty_bin"])
def test_poet_bins_at_their_edges(case, scaling):
    data, psi0 = make_data("factor", 12, seed=7)
    train, targets = fold_targets(data, psi0, scaling)
    mags = off_diagonal_residuals(train, 2)
    assert mags[0] > 0.0
    if case == "on_a_cut":
        # Entries equal to a cut are zeroed, as the kernel's |R| > u keeps only those above.
        thresholds = mags[[0, mags.size // 3, mags.size // 2, -1]]
    elif case == "all_below":
        thresholds = [mags[-1] * 1.5, mags[-1] * 2.0]
    elif case == "none_below":
        thresholds = [mags[0] / 2.0, mags[mags.size // 2]]
    else:
        gap = int(np.argmax(np.diff(mags)))
        lo, hi = mags[gap], mags[gap + 1]
        thresholds = [mags[0], lo + (hi - lo) / 3.0, lo + 2.0 * (hi - lo) / 3.0]
    library = poet_library([2], thresholds)
    assert_matches_direct_path(library, train, targets)
    if case == "empty_bin":
        values = score_fits(library, train, targets)[0]
        assert np.array_equal(values[2], values[3])


@pytest.mark.parametrize("scaling", ["one", "weighted"])
def test_poet_on_data_of_lower_rank_than_its_factor_count(scaling):
    # n >= J data of rank 2: S's eigenvalues past the second are rounding,
    # some of them below zero, and they weigh nothing in the low-rank part.
    rng = np.random.default_rng(0)
    data = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 8))
    train, targets = fold_targets(data, np.eye(8), scaling)
    weights = FitContext(train).factor_basis[1]
    assert train.shape[0] >= train.shape[1] and np.any(weights[:8] < 0.0)
    library = poet_library(range(1, 9), [0.0, 0.1, 0.5])
    values = score_fits(library, train, targets)[0]
    assert np.all(np.isfinite(values))
    assert_matches_direct_path(library, train, targets)


@pytest.fixture
def direct_path(monkeypatch):
    """Drop every grid scorer, so each candidate is fitted and scored directly."""

    def disable():
        monkeypatch.setattr(estimators, "_SCORERS", {})

    return disable


@pytest.mark.parametrize("dim", [2, 3, 40])
@pytest.mark.parametrize("kind", ["ar1", "factor", "ternary"])
def test_selections_and_ties_match_the_direct_path(kind, dim, direct_path):
    data, psi0 = make_data(kind, dim, seed=1)
    data = np.vstack([data, make_data(kind, dim, seed=2)[0]])
    library = CandidateLibrary(tuple(PRESETS))
    settings = [("matrix", "one"), ("matrix", "inv_J"), ("observation", "one"), ("observation", "inv_J2")]
    scheme = VFold(4, seed=3)
    splits = make_splits(scheme, data.shape[0])
    if all(np.all(np.var(data[~mask], axis=0) > 0.0) for mask in splits):
        settings.append(("observation", "weighted"))
    grid = [select(library, data, scheme, risk=r, scaling=s) for r, s in settings]
    grid_oracle = evaluate_candidates(library, data, splits, risk="matrix", psi0=psi0)
    direct_path()
    direct = [select(library, data, scheme, risk=r, scaling=s) for r, s in settings]
    direct_oracle = evaluate_candidates(library, data, splits, risk="matrix", psi0=psi0)
    for a, b in zip(grid, direct):
        # Near-minimum candidates are scored again on the direct path, so
        # ties match exactly, also between estimates equal only to rounding.
        assert (a.selected_id, a.tie_ids) == (b.selected_id, b.tie_ids)
        assert [(c.failure, c.psd) for c in a.candidates] == [(c.failure, c.psd) for c in b.candidates]
    a, b = grid_oracle.mean_oracle_diffs(), direct_oracle.mean_oracle_diffs()
    best = np.nanmin(b)
    assert np.array_equal(a == np.nanmin(a), b == best)


def test_deferred_candidates_take_the_direct_path(monkeypatch):
    fitted = []
    real = estimators.apply_with_context

    def tracked(spec, ctx):
        fitted.append(spec.id)
        return real(spec, ctx)

    monkeypatch.setattr(estimators, "apply_with_context", tracked)
    # S[0, 1] is exactly 0.1, where u - u**1.1 * u**-0.1 rounds above 0
    # although |s| <= u: the kernel zeroes it, and the grid scores it.
    data = np.zeros((10, 3))
    data[0, :2] = 1.0
    data[1:, 2] = np.linspace(-1.0, 1.0, 9)
    assert sample_covariance(data)[0, 1] == 0.1
    library = CandidateLibrary(
        (
            EstimatorSpec("adaptive_lasso", {"threshold": 0.1, "exponent": 0.1}),
            EstimatorSpec("adaptive_lasso", {"threshold": 0.1, "exponent": 0.5}),
            EstimatorSpec("adaptive_lasso", {"threshold": 0.0, "exponent": 0.3}),
            EstimatorSpec("poet", {"factors": 4, "threshold": 0.1}),
            EstimatorSpec("poet", {"factors": 1, "threshold": 0.1}),
            EstimatorSpec("sample_covariance"),
            EstimatorSpec("linear_shrinkage"),
        )
    )
    targets = [(np.eye(3), 1.0)]
    _, failures = score_fits(library, data, targets)
    # Only a factor count the fold cannot decompose and a family without a scorer are fitted.
    assert fitted == ["poet(factors=4, threshold=0.1)", "linear_shrinkage"]
    assert failures == {3: "ConfigError: factor count 4 outside [0, 3]"}
    assert_matches_direct_path(library, data, targets)


@pytest.mark.parametrize("kind", ["ar1", "factor", "ternary"])
def test_every_thresholding_spec_is_grid_scored(kind):
    train, targets = fold_targets(*make_data(kind, 40), "one")
    thresholding = ("hard_threshold", "scad_threshold", "adaptive_lasso")
    specs = [spec for spec in LIBRARY if spec.family in thresholding]
    assert {spec.params["threshold"] for spec in specs if spec.family == "adaptive_lasso"} >= {0.0}
    values = _grid.score_thresholds(_grid.Fold(FitContext(train), targets), specs)
    assert all(value is not None and np.all(np.isfinite(value)) for value in values)


def test_nonfinite_grid_values_fall_back(monkeypatch):
    data = np.random.default_rng(5).standard_normal((12, 4))
    library = CandidateLibrary((EstimatorSpec("sample_covariance"), EstimatorSpec("banding", {"bands": 1})))

    def broken(fold, specs):
        return [np.full(len(fold.targets), np.nan) for _ in specs]

    monkeypatch.setitem(estimators._SCORERS, "banding", broken)
    targets = [(np.eye(4), 0.25)]
    got, _ = score_fits(library, data, targets)
    want, _, _, _ = direct_scores(library, data, targets)
    assert got[1, 0] == want[1, 0]


def test_monte_carlo_splits_score_like_the_direct_path(direct_path):
    data, psi0 = make_data("factor", 40, seed=4)
    library = CandidateLibrary(tuple(PRESETS))
    splits = make_splits(MonteCarloSplit(3, 0.3, seed=2), data.shape[0])
    grid = evaluate_candidates(library, data, splits, risk="observation", psi0=psi0)
    direct_path()
    direct = evaluate_candidates(library, data, splits, risk="observation", psi0=psi0)
    assert np.allclose(grid.risks, direct.risks, rtol=RTOL, atol=0.0)
    assert np.allclose(grid.oracle_diffs, direct.oracle_diffs, rtol=RTOL, atol=0.0)
    assert grid.failures == direct.failures


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the property test below needs hypothesis
    given = None

if given is not None:

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 30),
        st.integers(1, 12),
        st.sampled_from(["one", "inv_J", "inv_J2", "weighted"]),
        st.booleans(),
    )
    def test_grid_matches_the_direct_path_on_random_data(seed, n, dim, scaling, ternary):
        rng = np.random.default_rng(seed)
        if ternary:
            data = rng.integers(-1, 2, size=(n, dim)).astype(float)
        else:
            data = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, dim)
        try:
            train, targets = fold_targets(data, ar1(dim), scaling)
        except DegenerateFeatureError:
            return  # a zero training column leaves weighted scaling undefined
        assert_matches_direct_path(library_preset("default"), train, targets)


def test_folds_share_one_layout_per_call(monkeypatch):
    # Blocks of at most 64 entries: 12 features make blocks of 5, 5 and 2
    # rows, built once per call however many folds and passes score them.
    monkeypatch.setattr(_grid, "_BLOCK_ENTRIES", 64)
    built = []
    real_block = _grid._Block.__init__

    def counted_block(self, start, stop, *args):
        built.append((start, stop))
        real_block(self, start, stop, *args)

    passes = []
    real_score, real_direct = cv_engine._score_fits, cv_engine._score_directly

    def counted_score(library, fold):
        passes.append("grid")
        return real_score(library, fold)

    def counted_direct(library, fold, indices, values, failures):
        passes.append("direct")
        real_direct(library, fold, indices, values, failures)

    monkeypatch.setattr(_grid._Block, "__init__", counted_block)
    monkeypatch.setattr(cv_engine, "_score_fits", counted_score)
    monkeypatch.setattr(cv_engine, "_score_directly", counted_direct)
    data, psi0 = make_data("ar1", 12)
    splits = make_splits(VFold(5, seed=0), data.shape[0])
    # banding(1) and tapering(2) have equal estimates, so they tie and the
    # near-tie pass scores them again.
    library = CandidateLibrary((EstimatorSpec("banding", {"bands": 1}), EstimatorSpec("tapering", {"bands": 2})))
    for _ in range(2):
        built.clear()
        passes.clear()
        evaluate_candidates(library, data, splits, risk="matrix", psi0=psi0)
        assert passes == ["grid"] * 5 + ["direct"] * 5
        assert built == [(0, 5), (5, 10), (10, 12)]
