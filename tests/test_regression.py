import json
import math

import numpy as np
import pytest

from hamfourier.features import FeatureMapConfig, feature_vector
from hamfourier.pipeline import json_17g
from hamfourier.regression import (
    DesignMatrix,
    Metrics,
    RegressionModel,
    evaluate,
    fit_constrained,
    fit_ols,
    fit_ridge,
)

from conftest import random_sector_state, random_spec


def random_problem(rng, n_rows=40, n_cols=7):
    x = rng.normal(size=(n_rows, n_cols))
    y = rng.normal(size=n_rows)
    return DesignMatrix(X=x, y=y)


class TestDesignMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DesignMatrix(X=np.zeros((0, 3)), y=np.zeros(0))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            DesignMatrix(X=np.zeros((3, 2)), y=np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DesignMatrix(X=np.array([[np.nan]]), y=np.array([1.0]))

    def test_gram_trace_bound_on_exact_features(self, rng):
        # exact features satisfy |x_k| <= 1, so sum_i ||x_i||^2 <= (2K+1) N
        k_order = 5
        cfg = FeatureMapConfig(K=k_order, C=3.0)
        rows = []
        for _ in range(20):
            spec = random_spec(4, rng)
            psi = random_sector_state(4, 2, rng)
            rows.append(feature_vector(spec, psi, cfg))
        x = np.array(rows)
        assert np.sum(x**2) <= (2 * k_order + 1) * len(rows) + 1e-9


class TestFitOls:
    def test_exact_line(self):
        data = DesignMatrix(X=np.array([[1.0], [2.0]]), y=np.array([2.0, 4.0]))
        model = fit_ols(data)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-12)

    def test_recovers_exactly_expressible_targets(self, rng):
        x = rng.normal(size=(30, 5))
        c = rng.normal(size=5)
        data = DesignMatrix(X=x, y=x @ c)
        model = fit_ols(data)
        assert np.mean((data.y - model.predict(x)) ** 2) <= 1e-10

    def test_residual_orthogonal_to_columns(self, rng):
        # normal-equations oracle: X^T (y - X w) = 0 at the minimizer
        data = random_problem(rng)
        model = fit_ols(data)
        grad = data.X.T @ (data.y - model.predict(data.X))
        assert np.max(np.abs(grad)) <= 1e-8


class TestFitRidge:
    def test_large_alpha_shrinks_to_zero(self, rng):
        data = random_problem(rng)
        model = fit_ridge(data, 1e12)
        assert np.linalg.norm(model.weights) <= 1e-9

    def test_zero_alpha_matches_ols_on_full_rank(self, rng):
        data = random_problem(rng)
        np.testing.assert_allclose(fit_ridge(data, 0.0).weights,
                                   fit_ols(data).weights, atol=1e-10)

    def test_norm_non_increasing_in_alpha(self, rng):
        for _ in range(5):
            data = random_problem(rng)
            norms = [np.linalg.norm(fit_ridge(data, a).weights)
                     for a in (0.0, 0.1, 1.0, 10.0, 100.0)]
            assert all(n1 - n0 <= 1e-12 for n0, n1 in zip(norms, norms[1:]))

    def test_rejects_negative_alpha(self, rng):
        with pytest.raises(ValueError):
            fit_ridge(random_problem(rng), -1.0)


class TestFitConstrained:
    def test_one_dimensional_boundary(self):
        data = DesignMatrix(X=np.array([[1.0], [2.0]]), y=np.array([2.0, 4.0]))
        model = fit_constrained(data, 1.0)
        assert model.weights[0] == pytest.approx(1.0, rel=1e-6)
        assert model.norm_budget == 1.0

    def test_inactive_constraint_returns_ols(self, rng):
        data = random_problem(rng)
        w_ols = fit_ols(data).weights
        model = fit_constrained(data, np.linalg.norm(w_ols) * 2)
        np.testing.assert_allclose(model.weights, w_ols, atol=1e-10)

    def test_active_constraint_sits_on_boundary(self, rng):
        for _ in range(5):
            data = random_problem(rng)
            w_bound = 0.5 * np.linalg.norm(fit_ols(data).weights)
            model = fit_constrained(data, w_bound)
            assert np.linalg.norm(model.weights) == pytest.approx(w_bound,
                                                                  rel=1e-6)
            assert np.linalg.norm(model.weights) <= w_bound * (1 + 1e-8)

    def test_monte_carlo_optimality(self, rng):
        # no feasible w sampled at random beats the returned minimizer
        data = random_problem(rng, n_rows=25, n_cols=4)
        w_bound = 0.3 * np.linalg.norm(fit_ols(data).weights)
        model = fit_constrained(data, w_bound)
        best = np.mean((data.y - model.predict(data.X)) ** 2)
        for _ in range(1000):
            direction = rng.normal(size=4)
            w = direction / np.linalg.norm(direction) * rng.uniform(0, w_bound)
            loss = np.mean((data.y - data.X @ w) ** 2)
            assert loss >= best - 1e-12

    def test_rank_deficient_design(self, rng):
        x = rng.normal(size=(10, 2))
        x = np.hstack([x, x[:, :1]])  # duplicated column
        data = DesignMatrix(X=x, y=rng.normal(size=10))
        model = fit_constrained(data, 0.1)
        assert np.linalg.norm(model.weights) <= 0.1 * (1 + 1e-8)

    def test_rejects_nonpositive_budget(self, rng):
        with pytest.raises(ValueError):
            fit_constrained(random_problem(rng), 0.0)


class TestEvaluate:
    def test_perfect_predictions(self):
        data = DesignMatrix(X=np.array([[1.0], [2.0], [3.0]]),
                            y=np.array([2.0, 4.0, 6.0]))
        m = evaluate(RegressionModel(weights=np.array([2.0])), data, n_train=5)
        assert m.mse == 0.0
        assert m.r2 == 1.0
        assert m.n_train == 5 and m.n_test == 3

    def test_constant_mean_predictor_scores_zero(self):
        # predicting the test mean makes SS_res = SS_tot
        data = DesignMatrix(X=np.array([[1.0], [1.0]]), y=np.array([1.0, 3.0]))
        m = evaluate(RegressionModel(weights=np.array([2.0])), data)
        assert m.r2 == pytest.approx(0.0, abs=1e-12)

    def test_zero_variance_targets_flagged(self):
        data = DesignMatrix(X=np.array([[1.0], [2.0]]), y=np.array([1.0, 1.0]))
        m = evaluate(RegressionModel(weights=np.array([0.5])), data)
        assert math.isnan(m.r2)
        assert m.to_dict()["r2"] is None

    def test_mse_non_negative(self, rng):
        data = random_problem(rng)
        m = evaluate(fit_ols(data), data)
        assert m.mse >= 0.0


class TestModelSerialization:
    def test_roundtrip(self, rng):
        # the model file is to_dict at 17 digits: its keys, weights bit-exact
        model = fit_constrained(random_problem(rng), 0.5)
        back = json.loads(json_17g(model.to_dict()))
        assert set(back) == {"weights", "norm_budget", "method"}
        np.testing.assert_array_equal(back["weights"], model.weights)
        assert back["norm_budget"] == 0.5 and back["method"] == "constrained"

    def test_metrics_dict_keys(self):
        m = Metrics(mse=0.5, r2=0.9, n_train=4, n_test=2)
        assert set(m.to_dict()) == {"r2", "mse", "n_train", "n_test"}
