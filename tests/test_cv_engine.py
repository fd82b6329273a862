import os
import weakref

import numpy as np
import pytest

import covsel._workers as _workers
import covsel.cv_engine as cv_engine
import covsel.estimators as estimators
from covsel.cv_engine import (
    MonteCarloSplit,
    VFold,
    evaluate_candidates,
    make_splits,
    oracle_select_cv,
    oracle_select_full,
    select,
    split_scheme,
)
from covsel.errors import ConfigError, DegenerateFeatureError, EstimationError, SelectionError
from covsel.estimators import (
    CandidateLibrary,
    _FAMILIES,
    EstimatorSpec,
    apply,
    apply_library,
    build_library,
    default_library,
    register_family,
    wide_library,
)
from covsel.loss_risk import _scaling, row_losses, validation_risk
from covsel.matrix_core import is_psd, sample_covariance
from covsel.simulation import CovModelSpec, build_model_covariance, sample_gaussian

from forking import assert_no_child_left, count_forks, deadline, forks_regardless, pin_workers  # noqa: F401


def small_library():
    return build_library(
        {
            "sample_covariance": {},
            "hard_threshold": {"threshold": [0.1, 0.3]},
            "scad_threshold": {"threshold": [0.2]},
            "adaptive_lasso": {"threshold": [0.2], "exponent": [0.3]},
            "banding": {"bands": [1, 3]},
            "tapering": {"bands": [2, 6]},
            "linear_shrinkage": {},
            "dense_linear_shrinkage": {},
            "poet": {"factors": [2], "threshold": [0.1]},
        }
    )


def fixed_spec(matrix, id=""):
    return EstimatorSpec("fixed", {"matrix": np.asarray(matrix, dtype=float)}, id=id)


class TestMakeSplits:
    def test_vfold_partition_balanced(self):
        masks = make_splits(VFold(5, seed=1), 100)
        assert len(masks) == 5
        assert all(int(m.sum()) == 20 for m in masks)
        total = np.sum(masks, axis=0)
        assert np.array_equal(total, np.ones(100, dtype=int))

    def test_vfold_remainder_goes_to_first_folds(self):
        masks = make_splits(VFold(5, seed=2), 102)
        sizes = [int(m.sum()) for m in masks]
        assert sizes == [21, 21, 20, 20, 20]
        assert np.array_equal(np.sum(masks, axis=0), np.ones(102, dtype=int))

    def test_single_split_proportion(self):
        masks = make_splits(MonteCarloSplit(1, 0.2, seed=3), 10)
        assert len(masks) == 1
        assert int(masks[0].sum()) == 2

    def test_monte_carlo_count_and_size(self):
        masks = make_splits(MonteCarloSplit(7, 0.25, seed=4), 20)
        assert len(masks) == 7
        assert all(int(m.sum()) == 5 for m in masks)

    def test_determinism(self):
        for scheme in (VFold(4, seed=9), MonteCarloSplit(3, 0.3, seed=9), MonteCarloSplit(1, 0.5, seed=9)):
            first = make_splits(scheme, 23)
            second = make_splits(scheme, 23)
            assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_different_seeds_differ(self):
        a = make_splits(VFold(5, seed=1), 50)
        b = make_splits(VFold(5, seed=2), 50)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_errors(self):
        with pytest.raises(ConfigError):
            make_splits(VFold(11, seed=0), 10)
        with pytest.raises(ConfigError):
            make_splits(MonteCarloSplit(1, 0.05, seed=0), 10)  # n * p < 1
        with pytest.raises(ConfigError):
            make_splits(MonteCarloSplit(1, 0.999, seed=0), 3)  # no training rows
        with pytest.raises(ConfigError):
            make_splits(VFold(1, seed=0), 10)
        for scheme in (VFold(5, seed=-1), MonteCarloSplit(2, 0.3, seed=-1)):
            with pytest.raises(ConfigError, match="seed must be non-negative"):
                make_splits(scheme, 10)


class TestSplitScheme:
    def test_settings_map_to_one_design(self):
        assert split_scheme() == VFold(5)
        assert split_scheme(3, seed=4) == VFold(3, seed=4)
        assert split_scheme(3, 0.2, seed=4) == MonteCarloSplit(1, 0.2, seed=4)
        assert split_scheme(3, 0.2, 6, seed=4) == MonteCarloSplit(6, 0.2, seed=4)

    def test_count_without_fraction_rejected(self):
        with pytest.raises(ConfigError, match=r"split count \(--splits\) needs a validation fraction"):
            split_scheme(5, None, 3)


class TestCvRiskEstimate:
    def test_constant_candidate_reduction(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(24, 4))
        psi_c = sample_covariance(rng.normal(size=(10, 4)))
        splits = make_splits(VFold(4, seed=5), 24)
        got = evaluate_candidates(CandidateLibrary((fixed_spec(psi_c),)), data, splits, center=False).mean_risks()[0]
        expected = np.mean([validation_risk(psi_c, data[mask]) for mask in splits])
        assert got == pytest.approx(expected, rel=1e-12)


class TestSelect:
    def test_singleton_library(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(20, 3))
        report = select(CandidateLibrary((EstimatorSpec("sample_covariance"),)), data, VFold(5, seed=1))
        assert report.selected_id == "sample_covariance"
        assert report.tie_ids == ("sample_covariance",)

    def test_duplicate_candidates_tie_to_lowest_index(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(18, 3))
        library = CandidateLibrary(
            (
                EstimatorSpec("linear_shrinkage", id="first_copy"),
                EstimatorSpec("linear_shrinkage", id="second_copy"),
                EstimatorSpec("sample_covariance"),
            )
        )
        report = select(library, data, VFold(3, seed=2))
        risks = {c.id: c.cv_risk for c in report.candidates}
        assert risks["first_copy"] == risks["second_copy"]
        if report.selected_id in ("first_copy", "second_copy"):
            assert report.selected_id == "first_copy"
            assert set(report.tie_ids) >= {"first_copy", "second_copy"}

    def test_selected_risk_is_minimal(self):
        psi0 = build_model_covariance(CovModelSpec(3, 24))
        data = sample_gaussian(psi0, 60, seed=11)
        report = select(small_library(), data, VFold(5, seed=7), center=False)
        selected = next(c for c in report.candidates if c.index == report.selected_index)
        for cand in report.candidates:
            if cand.cv_risk is not None:
                assert selected.cv_risk <= cand.cv_risk

    def test_observation_and_matrix_risks_agree(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n = int(rng.integers(20, 61))
            dim = int(rng.integers(5, 25))
            data = rng.normal(size=(n, dim)) @ np.diag(rng.uniform(0.5, 2.0, size=dim))
            library = small_library()
            scheme = VFold(5, seed=trial)
            by_obs = select(library, data, scheme, risk="observation")
            by_mat = select(library, data, scheme, risk="matrix")
            assert by_obs.selected_id == by_mat.selected_id
            assert by_obs.tie_ids == by_mat.tie_ids

    def test_library_permutation(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(30, 5))
        library = small_library()
        report = select(library, data, VFold(5, seed=3))
        if len(report.tie_ids) == 1:
            reversed_library = CandidateLibrary(tuple(reversed(tuple(library))))
            flipped = select(reversed_library, data, VFold(5, seed=3))
            assert flipped.selected_id == report.selected_id

    def test_determinism(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(26, 4))
        first = select(small_library(), data, VFold(5, seed=4))
        second = select(small_library(), data, VFold(5, seed=4))
        assert first.selected_id == second.selected_id
        assert [c.cv_risk for c in first.candidates] == [c.cv_risk for c in second.candidates]
        assert np.array_equal(first.estimate, second.estimate)

    def test_failed_candidates_excluded_and_reported(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(14, 3))
        library = CandidateLibrary(
            (
                EstimatorSpec("poet", {"factors": 99, "threshold": 0.1}),
                EstimatorSpec("sample_covariance"),
            )
        )
        report = select(library, data, VFold(2, seed=1))
        assert report.selected_id == "sample_covariance"
        failed = report.candidates[0]
        assert failed.failure is not None and failed.cv_risk is None

    def test_all_failed_raises(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(10, 3))
        library = CandidateLibrary((EstimatorSpec("poet", {"factors": 99, "threshold": 0.1}),))
        with pytest.raises(SelectionError):
            select(library, data, VFold(2, seed=1))

    def test_small_training_folds_warn(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(10, 12))
        report = select(
            CandidateLibrary((EstimatorSpec("sample_covariance"),)), data, VFold(5, seed=0)
        )
        assert any("fewer observations" in w or "as few as" in w for w in report.warnings)

    def test_weighted_scaling_selects_alike_under_both_risks(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(20, 3))
        by_mat = select(small_library(), data, VFold(4, seed=0), scaling="weighted", risk="matrix")
        by_obs = select(small_library(), data, VFold(4, seed=0), scaling="weighted", risk="observation")
        assert by_mat.selected_id == by_obs.selected_id
        assert by_mat.tie_ids == by_obs.tie_ids

    def test_one_feature_and_two_observations(self):
        report = select(default_library(), np.array([[1.0], [3.0]]), VFold(2, seed=0))
        # Each training fold is one row, centered to zero, so every candidate
        # that can be fitted estimates zero and they all tie.
        failed = {c.id: c.failure for c in report.candidates if c.failure is not None}
        assert failed.pop("dense_linear_shrinkage") == "ConfigError: the dense target needs at least two features"
        assert failed == {
            f"poet(factors={k}, threshold={u})": f"ConfigError: factor count {k} outside [0, 1]"
            for k in (2, 3, 4, 5)
            for u in (0.1, 0.2, 0.3)
        }
        assert report.tie_ids == tuple(c.id for c in report.candidates if c.failure is None)
        assert report.selected_id == "sample_covariance"
        assert np.array_equal(report.estimate, [[1.0]])

    def test_constant_column_under_weighted_scaling(self):
        data = np.random.default_rng(15).normal(size=(20, 4))
        data[:, 2] = 5.0
        with pytest.raises(DegenerateFeatureError, match=r"column\(s\) 2"):
            select(small_library(), data, VFold(5, seed=0), scaling="weighted")

    @pytest.mark.parametrize("library, n_ties", [
        (default_library(), 1),
        (build_library({"sample_covariance": {}, "adaptive_lasso": {"threshold": [0.0], "exponent": [0.5]}}), 2),
    ], ids=["default", "two-equal-estimates"])
    def test_weighted_scaling_reads_each_folds_own_covariance(self, monkeypatch, library, n_ties):
        # The second library's two candidates are equal, so they tie and the near-tie pass runs too.
        import covsel.loss_risk as loss_risk

        data = np.random.default_rng(16).normal(size=(30, 5))
        expected = select(library, data, VFold(5, seed=0), scaling="weighted")

        def refuse(_):
            raise AssertionError("a training covariance was computed again for the weights")

        monkeypatch.setattr(loss_risk, "sample_covariance", refuse)
        report = select(library, data, VFold(5, seed=0), scaling="weighted")
        assert report.candidates == expected.candidates and report.tie_ids == expected.tie_ids
        assert np.array_equal(report.estimate, expected.estimate)
        assert len(report.tie_ids) == n_ties

    @pytest.mark.parametrize(
        "library, data, folds, n_ties",
        [
            (default_library(), np.random.default_rng(12).normal(size=(40, 4)), 5, 1),
            (default_library(), np.array([[1.0], [3.0]]), 2, 60),
            (
                CandidateLibrary((fixed_spec([[1.0, 2.0], [2.0, 1.0]], "a"), fixed_spec([[1.0, 2.0], [2.0, 1.0]], "b"))),
                np.random.default_rng(12).normal(size=(10, 2)),
                5,
                2,
            ),
        ],
        ids=["single-winner", "tie-set", "indefinite-ties"],
    )
    def test_psd_is_flagged_for_the_winner_and_its_ties_only(self, library, data, folds, n_ties):
        report = select(library, data, VFold(folds, seed=0))
        centered = data - data.mean(axis=0)
        flagged = {c.id: c.psd for c in report.candidates if c.psd is not None}
        assert tuple(flagged) == report.tie_ids and report.tie_ids[0] == report.selected_id
        assert len(report.tie_ids) == n_ties
        for spec in library:
            if spec.id in flagged:
                assert flagged[spec.id] == is_psd(apply(spec, centered)), spec.id
        if n_ties == 2:
            assert set(flagged.values()) == {False}

    def test_a_tie_failing_on_the_full_data_leaves_the_tie_set(self, monkeypatch):
        data = np.array([[1.0], [3.0]])
        library = default_library()
        first = select(library, data, VFold(2, seed=0))
        dropped = first.tie_ids[1]
        real = estimators._try_fit

        def fails_on_full_data(spec, ctx):
            if spec.id == dropped and ctx.data.shape[0] == data.shape[0]:
                return None, "forced failure"
            return real(spec, ctx)

        monkeypatch.setattr(estimators, "_try_fit", fails_on_full_data)
        second = select(library, data, VFold(2, seed=0))
        assert second.selected_id == first.selected_id
        assert second.tie_ids == tuple(i for i in first.tie_ids if i != dropped)
        row = next(c for c in second.candidates if c.id == dropped)
        assert row.cv_risk is None and row.psd is None
        assert row.failure == "full-data fit: forced failure"


class TestOracles:
    def test_perfect_candidate_wins_cv_oracle(self):
        psi0 = build_model_covariance(CovModelSpec(2, 6))
        data = sample_gaussian(psi0, 30, seed=1)
        library = CandidateLibrary(
            (EstimatorSpec("sample_covariance"), fixed_spec(psi0, id="truth"))
        )
        splits = make_splits(VFold(5, seed=2), 30)
        report = oracle_select_cv(library, data, splits, psi0)
        assert report.id == "truth"
        assert report.risk_diffs[1] == 0.0

    def test_scalar_toy_risk_differences(self):
        psi0 = np.array([[1.0]])
        data = sample_gaussian(psi0, 12, seed=3)
        library = CandidateLibrary(
            (fixed_spec([[1.1]], id="near"), fixed_spec([[2.0]], id="far"))
        )
        splits = make_splits(VFold(3, seed=4), 12)
        cv_report = oracle_select_cv(library, data, splits, psi0)
        assert cv_report.id == "near"
        assert cv_report.risk_diffs[0] == pytest.approx(0.01, rel=1e-12)
        assert cv_report.risk_diffs[1] == pytest.approx(1.0, rel=1e-12)

        full_report = oracle_select_full(library, data, psi0)
        assert full_report.id == "near"
        assert full_report.risk_diffs[0] == pytest.approx(0.01, rel=1e-12)
        assert full_report.risk_diffs[1] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("oracle", ["full", "cv"])
    def test_weighted_full_oracle_uses_true_variances(self, oracle):
        # Both oracles weight by the true variances: 1/sqrt(v_j v_l), exactly 1/v_j on the diagonal.
        scale = np.sqrt(np.linspace(0.5, 3.0, 6))
        psi0 = build_model_covariance(CovModelSpec(2, 6)) * np.outer(scale, scale)
        data = sample_gaussian(psi0, 40, seed=9)
        library = small_library()
        v = np.diag(psi0)
        weights = np.array([[1.0 / np.sqrt(v[j] * v[l]) for l in range(6)] for j in range(6)])
        np.fill_diagonal(weights, 1.0 / v)
        splits = make_splits(VFold(4, seed=1), data.shape[0])

        def risk_diffs(truth):
            if oracle == "full":
                return oracle_select_full(library, data, truth, scaling="weighted").risk_diffs
            return oracle_select_cv(library, data, splits, truth, scaling="weighted").risk_diffs

        folds = [data] if oracle == "full" else [data[~mask] for mask in splits]
        diffs = risk_diffs(psi0)
        for idx, spec in enumerate(library):
            expected = np.mean([np.sum(weights * (apply(spec, fold) - psi0) ** 2) for fold in folds])
            assert diffs[idx] == pytest.approx(expected, rel=1e-12), spec.id

        bad = psi0.copy()
        bad[2, 2] = 0.0
        with pytest.raises(DegenerateFeatureError, match=r"column\(s\) 2;"):
            risk_diffs(bad)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_full_oracle_rejects_a_true_covariance_of_another_dimension(self, dim):
        data = sample_gaussian(np.eye(4), 15, seed=5)
        with pytest.raises(ValueError, match="does not match data dimension"):
            oracle_select_full(small_library(), data, np.eye(dim))

    def test_full_oracle_leaves_out_a_non_finite_estimate(self):
        data = np.random.default_rng(0).integers(-1, 2, size=(4, 6)).astype(float)
        register_family("nan_fit", lambda ctx, params: np.full_like(ctx.cov, np.nan))
        try:
            library = CandidateLibrary((EstimatorSpec("sample_covariance"), EstimatorSpec("nan_fit")))
            report = oracle_select_full(library, data, np.eye(6))
        finally:
            _FAMILIES.pop("nan_fit", None)
        assert report.id == "sample_covariance" and report.risk_diffs[1] is None

    def test_singleton_oracle(self):
        psi0 = np.eye(3)
        data = sample_gaussian(psi0, 15, seed=5)
        library = CandidateLibrary((EstimatorSpec("sample_covariance"),))
        splits = make_splits(VFold(3, seed=6), 15)
        report = oracle_select_cv(library, data, splits, psi0)
        assert report.id == "sample_covariance"
        assert report.risk_diffs[0] > 0.0

    def test_full_risk_shrinks_with_sample_size(self):
        psi0 = build_model_covariance(CovModelSpec(2, 20))
        library = CandidateLibrary((EstimatorSpec("sample_covariance"),))
        means = []
        for n in (50, 100, 200):
            diffs = []
            for rep in range(20):
                data = sample_gaussian(psi0, n, seed=1000 * n + rep)
                report = oracle_select_full(library, data, psi0)
                diffs.append(report.risk_diffs[0])
            means.append(np.mean(diffs))
        assert means[0] > means[1] > means[2]


class TestEvaluateCandidates:
    def test_joint_pass_matches_separate_calls(self):
        psi0 = build_model_covariance(CovModelSpec(4, 8))
        data = sample_gaussian(psi0, 32, seed=7)
        library = small_library()
        splits = make_splits(VFold(4, seed=8), 32)
        ev = evaluate_candidates(
            library, data, splits, center=False, risk="observation", psi0=psi0
        )
        oracle = oracle_select_cv(library, data, splits, psi0)
        joint = ev.mean_oracle_diffs()
        for idx, value in enumerate(oracle.risk_diffs):
            assert joint[idx] == pytest.approx(value, rel=1e-15)

    def test_every_pass_scores_a_validation_risk(self):
        data = np.random.default_rng(13).normal(size=(10, 2))
        library = CandidateLibrary((EstimatorSpec("sample_covariance"),))
        with pytest.raises(ConfigError, match="risk must be 'observation' or 'matrix', got None"):
            evaluate_candidates(library, data, make_splits(VFold(2), 10), risk=None, psi0=np.eye(2))

    def test_mask_shape_validated(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            evaluate_candidates(
                CandidateLibrary((EstimatorSpec("sample_covariance"),)),
                data,
                [np.ones(5, dtype=bool)],
            )


def definitional_risks(library, data, splits, scaling, center):
    """Per-fold mean of ``row_losses``, the loss evaluated row by row."""
    out = np.full((len(library), len(splits)), np.nan)
    for split_idx, split in enumerate(splits):
        train, val = data[~split], data[split]
        if center:
            means = train.mean(axis=0, keepdims=True)
            train, val = train - means, val - means
        eta = _scaling(scaling, sample_covariance(train))
        for idx, (estimate, failure) in enumerate(apply_library(library, train)):
            if failure is None:
                out[idx, split_idx] = np.mean(row_losses(val, estimate, eta))
    return out


def one_row_validation_splits(n):
    """Four splits whose validation folds are each a single row."""
    return [np.arange(n) == i for i in range(4)]


class TestClosedFormObservationRisk:
    @pytest.mark.parametrize("scaling", ["one", "inv_J", "inv_J2", "weighted"])
    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize(
        "shape, make",
        [
            ((40, 6), lambda n: make_splits(VFold(5, seed=1), n)),
            ((25, 1), lambda n: make_splits(VFold(5, seed=2), n)),
            ((15, 5), one_row_validation_splits),
            ((16, 12), lambda n: make_splits(VFold(4, seed=3), n)),  # J > n_v = 4
        ],
        ids=["vfold", "J=1", "one_row_fold", "J>n_v"],
    )
    def test_matches_row_by_row_loss(self, scaling, center, shape, make):
        n, dim = shape
        rng = np.random.default_rng(n * 100 + dim)
        data = rng.normal(size=(n, dim)) * rng.uniform(0.5, 3.0, size=dim) + 0.5
        splits = make(n)
        library = small_library()
        ev = evaluate_candidates(library, data, splits, scaling=scaling, center=center)
        expected = definitional_risks(library, data, splits, scaling, center)
        checked = 0
        for idx, spec in enumerate(library):
            if idx in ev.failures:
                continue
            for split_idx in range(len(splits)):
                got = ev.risks[idx, split_idx]
                assert got == pytest.approx(expected[idx, split_idx], rel=1e-12), (spec.id, split_idx)
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("scaling", ["one", "weighted"])
    def test_selection_never_calls_row_losses(self, scaling, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("row_losses is a test oracle, not part of selection")

        monkeypatch.setattr("covsel.loss_risk.row_losses", forbidden)
        rng = np.random.default_rng(14)
        data = rng.normal(size=(30, 6))
        report = select(small_library(), data, VFold(5, seed=0), scaling=scaling, risk="observation")
        assert report.selected_id in small_library().ids


def bench_union():
    """The default library followed by the rest of the wide one, as ``bench`` builds it."""
    default = tuple(default_library())
    seen = {spec.id for spec in default}
    return CandidateLibrary(default + tuple(s for s in wide_library() if s.id not in seen))


class TestStreamedFits:
    @staticmethod
    def count_live_estimates(monkeypatch):
        """Patch every fit to record its family and how many estimates are alive at each fit."""
        refs = []
        live = []
        families = []
        real = estimators.apply_with_context

        def tracked(spec, ctx):
            estimate = real(spec, ctx)
            refs.append(weakref.ref(estimate))
            live.append(sum(ref() is not None for ref in refs))
            families.append(spec.family)
            return estimate

        monkeypatch.setattr(estimators, "apply_with_context", tracked)
        return live, families

    @pytest.mark.parametrize("make_library", [default_library, bench_union], ids=["K=73", "K=183"])
    def test_fits_are_dropped_after_scoring(self, make_library, monkeypatch):
        library = make_library()
        data = np.random.default_rng(13).standard_normal((30, 12))
        splits = make_splits(VFold(5, seed=1), 30)
        live, families = self.count_live_estimates(monkeypatch)
        monkeypatch.setattr(_workers, "_worker_count", lambda units: 1)  # the fits live in this process
        evaluate_candidates(library, data, splits, risk="matrix")
        # The grid families build no estimate on the folds; the rest are
        # fitted one at a time and dropped after scoring.
        direct = [spec.family for spec in library if spec.family not in estimators._SCORERS]
        assert sorted(direct) == ["dense_linear_shrinkage", "linear_shrinkage"]
        assert families == direct * 5 and max(live) <= 2
        live.clear()
        families.clear()
        report = select(library, data, VFold(5, seed=1), risk="matrix")
        # Only the winner and its ties are refitted on the full data.
        assert len(families) == 5 * len(direct) + len(report.tie_ids) and max(live) <= 3
        assert report.estimate is not None

    def test_winner_failing_on_the_full_data_falls_back_to_the_runner_up(self, monkeypatch):
        data = np.random.default_rng(14).standard_normal((25, 6))
        library = small_library()
        scheme = VFold(5, seed=2)
        first = select(library, data, scheme)
        ranked = sorted((c.cv_risk, c.index) for c in first.candidates if c.cv_risk is not None)
        runner_up = library[ranked[1][1]]
        real = estimators._try_fit

        def fails_on_full_data(spec, ctx):
            if spec.id == first.selected_id and ctx.data.shape[0] == data.shape[0]:
                return None, "forced failure"
            return real(spec, ctx)

        monkeypatch.setattr(estimators, "_try_fit", fails_on_full_data)
        second = select(library, data, scheme)
        assert second.selected_id == runner_up.id
        assert np.array_equal(second.estimate, apply(runner_up, data - data.mean(axis=0)))
        failed = second.candidates[first.selected_index]
        assert failed.cv_risk is None and failed.psd is None
        assert failed.failure == "full-data fit: forced failure"


#: 23 rows in 5 folds: the validation sets hold 5, 5, 5, 4 and 4 rows.
FOLD_SCHEMES = [VFold(5, seed=3), MonteCarloSplit(4, 0.3, seed=3)]


def numbered_rows(n=23, dim=20, seed=21):
    """Data whose first column numbers the rows, so an uncentered training fold shows which split it is."""
    data = np.random.default_rng(seed).standard_normal((n, dim))
    data[:, 0] = np.arange(n)
    return data


@pytest.fixture
def by_split():
    """Register the family ``by_split``: on split ``s``, it raises ``raises[s](s)``, else it fits ``S / 2``.

    The fixture is ``arm(data, splits, raises)``, which must be called
    before the fits run; the family tells the splits apart by the row
    numbers of :func:`numbered_rows`, so it fits uncentered folds only.
    """
    state = {}

    def fit(ctx, params):
        split = state["splits"].get(frozenset(ctx.data[:, 0].tolist()))
        if split in state["raises"]:
            raise state["raises"][split](split)
        return 0.5 * ctx.cov

    def arm(data, splits, raises):
        state["splits"] = {frozenset(data[~mask, 0].tolist()): i for i, mask in enumerate(splits)}
        state["raises"] = raises

    register_family("by_split", fit)
    try:
        yield arm
    finally:
        _FAMILIES.pop("by_split", None)


def by_split_library():
    return CandidateLibrary((*small_library(), EstimatorSpec("by_split", {})))


@forks_regardless
@pytest.mark.usefixtures("deadline")
class TestFoldWorkers:
    @pytest.mark.parametrize("scheme", FOLD_SCHEMES, ids=["v_fold", "monte_carlo"])
    @pytest.mark.parametrize("oracle", [False, True], ids=["", "psi0"])
    @pytest.mark.parametrize("risk", ["observation", "matrix"])
    def test_every_worker_count_gives_the_same_bits(self, risk, oracle, scheme, by_split, monkeypatch):
        data = numbered_rows()
        splits = make_splits(scheme, data.shape[0])
        by_split(data, splits, dict.fromkeys((1, 3), lambda split: EstimationError(f"split {split}")))
        psi0 = build_model_covariance(CovModelSpec(2, data.shape[1])) if oracle else None
        runs = []
        for workers in (1, 2, 3):
            pin_workers(monkeypatch, workers)
            ev = evaluate_candidates(by_split_library(), data, splits, risk=risk, center=False, psi0=psi0)
            assert_no_child_left()
            runs.append((ev.risks.tobytes(), None if psi0 is None else ev.oracle_diffs.tobytes(),
                         list(ev.failures.items()), ev.warnings))
        serial = runs[0]
        # The first failing split's reason, whichever process scored the later one.
        assert serial[2][-1] == (len(by_split_library()) - 1, "EstimationError: split 1")
        assert len(serial[3]) == 1  # training folds smaller than the dimension
        assert runs[1] == serial and runs[2] == serial

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 4)])
    def test_a_fault_on_two_splits_reaches_the_caller_as_the_lower_split_s(self, pair, workers, by_split, monkeypatch):
        data = numbered_rows()
        splits = make_splits(VFold(5, seed=3), data.shape[0])
        by_split(data, splits, dict.fromkeys(pair, lambda split: RuntimeError(f"split {split} in process {os.getpid()}")))
        pin_workers(monkeypatch, workers)
        with pytest.raises(RuntimeError, match=f"^split {pair[0]} in process ") as raised:
            evaluate_candidates(by_split_library(), data, splits, center=False)
        assert_no_child_left()
        cause = raised.value.__cause__
        if pair[0] % workers == 0:  # raised in this process
            assert cause is None and str(raised.value).endswith(f" {os.getpid()}")
        else:  # raised in a child: its traceback comes along as the cause
            assert isinstance(cause, _workers._WorkerTraceback) and "in fit" in str(cause)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_an_overflow_on_a_child_s_split_keeps_its_message(self, workers, monkeypatch):
        data = numbered_rows()
        splits = make_splits(VFold(5, seed=3), data.shape[0])
        real = cv_engine._observation_offset

        def overflows_on_split_3(val, val_cov, eta):
            return np.inf if np.array_equal(val, data[splits[3]]) else real(val, val_cov, eta)

        monkeypatch.setattr(cv_engine, "_observation_offset", overflows_on_split_3)
        pin_workers(monkeypatch, workers)
        with pytest.raises(ConfigError) as raised:
            evaluate_candidates(small_library(), data, splits, center=False)
        assert_no_child_left()
        assert str(raised.value) == (
            "the observation risk overflows the float range: the data's largest |x| is 22; rescale the data"
        )
        assert (raised.value.__cause__ is not None) == (3 % workers != 0)  # split 3 is a child's at 2 workers

    def test_one_split_forks_nothing_and_five_folds_fork_once(self, monkeypatch, tmp_path):
        data = numbered_rows()
        forks = count_forks(monkeypatch, tmp_path / "forks")
        pin_workers(monkeypatch, 2)
        evaluate_candidates(small_library(), data, make_splits(MonteCarloSplit(1, 0.3), data.shape[0]))
        assert forks() == 0
        select(small_library(), data, VFold(5))
        assert forks() == 1
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equal_costs_put_unit_i_in_share_i_mod_w_and_come_back_in_order(self, workers, monkeypatch):
        pin_workers(monkeypatch, workers)
        pids = _workers._map(lambda unit: os.getpid(), [1] * 7)
        assert _workers._map(lambda unit: unit * unit, [1] * 7) == [unit * unit for unit in range(7)]
        assert_no_child_left()
        assert [pids[i] == pids[i % workers] for i in range(7)] == [True] * 7
        assert pids[0] == os.getpid() and len(set(pids)) == workers
