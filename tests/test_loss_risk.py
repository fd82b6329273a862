import math

import numpy as np
import pytest

from covsel.errors import ConfigError, DegenerateFeatureError
from covsel.loss_risk import (
    BoundParams,
    _scaling,
    finite_sample_bound,
    matrix_cv_risk_term,
    observation_loss,
    true_risk_difference,
    validation_risk,
)
from covsel.matrix_core import sample_covariance, scaled_frobenius_sq


def brute_force_loss(x, psi, eta):
    dim = len(x)
    total = 0.0
    for j in range(dim):
        for l in range(dim):
            w = eta if np.isscalar(eta) else eta[j, l]
            total += w * (x[j] * x[l] - psi[j, l]) ** 2
    return total


class TestObservationLoss:
    def test_scalar_case(self):
        assert observation_loss([2.0], [[1.0]]) == pytest.approx(9.0, abs=1e-14)

    def test_exact_fit_is_zero(self):
        x = np.array([1.5, -0.5, 2.0])
        assert observation_loss(x, np.outer(x, x)) == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4)
        psi = rng.normal(size=(4, 4))
        psi = psi + psi.T
        assert observation_loss(x, psi) == pytest.approx(brute_force_loss(x, psi, 1.0), rel=1e-12)

    def test_matches_double_loop_weighted(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=3)
        psi = rng.normal(size=(3, 3))
        psi = psi + psi.T
        eta = rng.uniform(0.2, 3.0, size=(3, 3))
        eta = 0.5 * (eta + eta.T)
        got = observation_loss(x, psi, eta)
        assert got == pytest.approx(brute_force_loss(x, psi, eta), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=5)
        psi = rng.normal(size=(5, 5))
        psi = psi + psi.T
        perm = rng.permutation(5)
        base = observation_loss(x, psi)
        permuted = observation_loss(x[perm], psi[np.ix_(perm, perm)])
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            observation_loss([1.0, 2.0], np.eye(3))


class TestValidationRisk:
    def test_single_row_equals_observation_loss(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=4)
        psi = rng.normal(size=(4, 4))
        psi = psi + psi.T
        assert validation_risk(psi, x[None, :]) == observation_loss(x, psi)

    def test_zero_matrix_brute_force(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(6, 3))
        expected = np.mean([brute_force_loss(r, np.zeros((3, 3)), 1.0) for r in rows])
        assert validation_risk(np.zeros((3, 3)), rows) == pytest.approx(expected, rel=1e-12)

    def test_duplicating_rows_is_invariant(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(4, 3))
        psi = sample_covariance(rows)
        doubled = np.vstack([rows, rows])
        assert validation_risk(psi, doubled) == pytest.approx(validation_risk(psi, rows), rel=1e-15)

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            validation_risk(np.eye(2), np.empty((0, 2)))


class TestMatrixCvRiskTerm:
    def test_exact_match_is_zero(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(5, 3))
        assert matrix_cv_risk_term(sample_covariance(rows), rows) == 0.0

    def test_scalar_example(self):
        # validation sample covariance is [[4]]; squared distance to [[1]] is 9
        assert matrix_cv_risk_term([[1.0]], [[2.0], [-2.0]]) == pytest.approx(9.0, abs=1e-14)

    def test_risk_difference_identity(self):
        # With a constant scaling factor the observation-level and matrix
        # risks differ by the same constant for every candidate.
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(8, 4))
        psi_a = sample_covariance(rng.normal(size=(8, 4)))
        psi_b = sample_covariance(rng.normal(size=(8, 4)))
        for eta in (1.0, 0.25):
            lhs = validation_risk(psi_a, rows, eta) - validation_risk(psi_b, rows, eta)
            rhs = matrix_cv_risk_term(psi_a, rows, eta) - matrix_cv_risk_term(psi_b, rows, eta)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_argmin_agreement_over_candidates(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(10, 3))
        candidates = [sample_covariance(rng.normal(size=(6, 3))) for _ in range(5)]
        obs = [validation_risk(c, rows) for c in candidates]
        mat = [matrix_cv_risk_term(c, rows) for c in candidates]
        assert int(np.argmin(obs)) == int(np.argmin(mat))


class TestTrueRiskDifference:
    def test_zero_distance(self):
        psi = np.eye(3)
        assert true_risk_difference(psi, psi) == 0.0

    def test_scalar(self):
        assert true_risk_difference([[2.0]], [[1.0]]) == 1.0

    def test_equals_scaled_frobenius(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 4))
        a = a + a.T
        b = rng.normal(size=(4, 4))
        b = b + b.T
        assert true_risk_difference(a, b) == scaled_frobenius_sq(a - b, 1.0)

    def test_monte_carlo_consistency(self):
        # Small-scale version of the sampling check: the mean per-draw loss
        # difference estimates the analytic squared distance.
        from covsel.simulation import sample_gaussian
        from covsel.loss_risk import row_losses

        psi0 = np.array([[1.0, 0.4], [0.4, 1.5]])
        psi_hat = psi0 + np.array([[0.2, -0.1], [-0.1, 0.1]])
        draws = sample_gaussian(psi0, 100_000, seed=42)
        diffs = row_losses(draws, psi_hat) - row_losses(draws, psi0)
        mean = float(np.mean(diffs))
        se = float(np.std(diffs, ddof=1)) / math.sqrt(len(diffs))
        assert abs(mean - true_risk_difference(psi_hat, psi0)) < 4.0 * se

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            true_risk_difference(np.eye(2), np.eye(3))


def weight_matrix(training):
    """The ``weighted`` scaling of a training set, read off its sample covariance."""
    return _scaling("weighted", sample_covariance(training))


class TestWeightMatrix:
    def test_known_variances(self):
        # sample variances are exactly (4, 9)
        training = np.array([[2.0, 3.0], [-2.0, -3.0]])
        weights = weight_matrix(training)
        assert weights[0, 1] == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert weights[0, 0] == pytest.approx(0.25, rel=1e-14)
        assert weights[1, 1] == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_unit_variances_give_ones(self):
        training = np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert np.allclose(weight_matrix(training), np.ones((2, 2)), atol=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        weights = weight_matrix(rng.normal(size=(6, 4)))
        assert np.array_equal(weights, weights.T)

    def test_zero_variance_names_column(self):
        training = np.array([[0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(DegenerateFeatureError, match="column\\(s\\) 0"):
            weight_matrix(training)


class TestFiniteSampleBound:
    def test_substituted_constants(self):
        params = BoundParams(delta=1.0, m1=1.0, m2=1.0, dim=1,
                             n_candidates=1, n_obs=10, validation_fraction=0.2)
        # M = 4 (1 + 1)**2 = 16 and c = 2 * 2**2 * 16 * (1/3 + 1) = 512/3;
        # with no oracle risk, rhs = 2 c (1 + log 1) / (10 * 0.2) = c.
        assert finite_sample_bound(params, 0.0) == pytest.approx(512.0 / 3.0, rel=1e-14)

    def test_single_candidate_term(self):
        params = BoundParams(delta=0.5, m1=2.0, m2=1.0, dim=3,
                             n_candidates=1, n_obs=50, validation_fraction=0.2)
        # M = 4 * 3**2 * 3**2 = 324 and c = 2 * 1.5**2 * 324 * (1/3 + 2) = 3402.
        assert finite_sample_bound(params, 1.0) == pytest.approx(2.0 * 1.0 + 2.0 * 3402.0 / (50 * 0.2), rel=1e-14)

    def test_dimension_doubling_quadruples_c(self):
        base = BoundParams(delta=1.0, m1=1.0, m2=2.0, dim=4,
                           n_candidates=3, n_obs=40, validation_fraction=0.25)
        doubled = BoundParams(delta=1.0, m1=1.0, m2=2.0, dim=8,
                              n_candidates=3, n_obs=40, validation_fraction=0.25)
        # With no oracle risk, rhs is proportional to c.
        assert finite_sample_bound(doubled, 0.0) == pytest.approx(4.0 * finite_sample_bound(base, 0.0), rel=1e-14)

    def test_monotone_in_inputs(self):
        def rhs(dim=2, k=2, diff=1.0):
            params = BoundParams(delta=1.0, m1=1.0, m2=1.0, dim=dim,
                                 n_candidates=k, n_obs=100, validation_fraction=0.2)
            return finite_sample_bound(params, diff)

        assert rhs(dim=4) >= rhs(dim=2)
        assert rhs(k=10) >= rhs(k=2)
        assert rhs(diff=2.0) >= rhs(diff=1.0)
        assert rhs(diff=3.0) >= (1.0 + 2.0) * 3.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BoundParams(delta=0.0, m1=1.0, m2=1.0, dim=1,
                        n_candidates=1, n_obs=1, validation_fraction=0.5)
        with pytest.raises(ValueError):
            BoundParams(delta=1.0, m1=1.0, m2=1.0, dim=1,
                        n_candidates=1, n_obs=1, validation_fraction=1.0)


def test_scaling_policies():
    cov = np.diag([4.0, 9.0, 1.0, 1.0])
    assert _scaling("one", np.eye(7)) == 1.0
    assert _scaling("inv_J", cov) == 0.25
    assert _scaling("inv_J2", cov) == 1.0 / 16.0
    assert _scaling("weighted", cov)[0, 1] == 1.0 / 6.0
    with pytest.raises(ConfigError):
        _scaling("bogus", cov)
