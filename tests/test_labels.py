import numpy as np
import pytest

from hamfourier.features import FeatureMapConfig, feature_vector
from hamfourier.labels import (
    DomainError,
    FunctionSpec,
    cosine,
    eval_f,
    exp_neg_beta,
    fourier_series,
    label,
    sine,
    step,
)
from hamfourier.states import basis_state

from conftest import random_sector_state, random_spec


class TestEvalF:
    def test_exp_at_zero(self):
        assert eval_f(exp_neg_beta(1.0, 3.0), 0.0) == 1.0

    def test_exp_at_lower_edge(self):
        assert eval_f(exp_neg_beta(1.0, 3.0), -3.0) == pytest.approx(np.exp(3.0),
                                                                     rel=1e-12)

    def test_single_cosine_term(self):
        f = fourier_series([0.0, 0.0, 1.0], 3.0)  # unit weight on cos l=1
        for x in np.linspace(-3, 3, 7):
            assert eval_f(f, x) == pytest.approx(np.cos(np.pi * x / 3), abs=1e-12)

    def test_sine_kind_carries_feature_sign(self):
        f = sine(0.4, 3.0)
        assert eval_f(f, 1.0) == pytest.approx(-np.sin(0.4), abs=1e-15)

    def test_fourier_sine_basis_sign(self):
        f = fourier_series([0.0, 1.0, 0.0], 3.0)  # unit weight on sin l=1
        assert eval_f(f, 1.5) == pytest.approx(-np.sin(np.pi * 1.5 / 3),
                                               abs=1e-12)

    def test_step(self):
        f = step(0.5, 3.0)
        assert eval_f(f, 0.4) == 0.0
        assert eval_f(f, 0.5) == 1.0
        assert eval_f(f, 2.0) == 1.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_f(exp_neg_beta(1.0, 3.0), 3.5)

    def test_vectorized(self):
        out = eval_f(cosine(1.0, 3.0), np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, np.cos(1.0)])


class TestSupNorm:
    @pytest.mark.parametrize("fspec,expected", [
        (exp_neg_beta(1.0, 3.0), np.exp(3.0)),
        (exp_neg_beta(-2.0, 3.0), np.exp(6.0)),
        (cosine(0.2, 3.0), 1.0),
        (sine(0.1, 3.0), np.sin(0.3)),
        (sine(2.0, 3.0), 1.0),
        (step(0.5, 3.0), 1.0),
        (step(4.0, 3.0), 0.0),
    ])
    def test_closed_forms(self, fspec, expected):
        assert fspec.sup_norm == pytest.approx(expected, rel=1e-12)

    def test_grid_check_ten_thousand_points(self, rng):
        coeffs = rng.normal(size=11)
        specs = [exp_neg_beta(1.0, 3.0), cosine(1.3, 3.0), sine(0.7, 3.0),
                 step(-1.0, 3.0), fourier_series(coeffs, 3.0)]
        grid = np.linspace(-3.0, 3.0, 10_000)
        for fspec in specs:
            assert np.all(np.abs(eval_f(fspec, grid)) <= fspec.sup_norm + 1e-12)


class TestFunctionSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FunctionSpec(kind="tanh", C=3.0)

    def test_fourier_needs_odd_coefficient_count(self):
        with pytest.raises(ValueError):
            fourier_series([1.0, 2.0], 3.0)

    def test_fourier_needs_coefficients(self):
        with pytest.raises(ValueError):
            FunctionSpec(kind="fourier", C=3.0)

    def test_positive_domain(self):
        with pytest.raises(ValueError):
            exp_neg_beta(1.0, 0.0)


class TestLabel:
    def test_constant_function_gives_trace(self, rng):
        f_one = fourier_series([1.0], 3.0)
        for n in (2, 4, 5):
            spec = random_spec(n, rng)
            psi = random_sector_state(n, n // 2, rng)
            assert label(spec, psi, f_one) == pytest.approx(1.0, abs=1e-10)

    def test_n2_thermal_example(self):
        from hamfourier.hamiltonians import CouplingSpec
        spec = CouplingSpec(n=2, couplings=(1.0,))
        y = label(spec, basis_state(2, "01"), exp_neg_beta(1.0, 3.0))
        assert y == pytest.approx((np.exp(-1.0) + np.exp(3.0)) / 2, rel=1e-12)

    def test_feature_label_consistency(self, rng):
        # f = cos(l pi x / C) labels the cosine feature, the sine kind the
        # sine feature (shared sign convention)
        spec = random_spec(4, rng)
        psi = random_sector_state(4, 2, rng)
        x = feature_vector(spec, psi, FeatureMapConfig(K=3, C=3.0))
        for l in (1, 2, 3):
            t_l = l * np.pi / 3.0
            assert label(spec, psi, cosine(t_l, 3.0)) == pytest.approx(
                x[2 * l], abs=1e-10)
            assert label(spec, psi, sine(t_l, 3.0)) == pytest.approx(
                x[2 * l - 1], abs=1e-10)

    def test_bounded_by_sup_norm(self, rng):
        fspec = exp_neg_beta(1.0, 3.0)
        for _ in range(10):
            spec = random_spec(5, rng)
            psi = random_sector_state(5, 2, rng)
            assert abs(label(spec, psi, fspec)) <= fspec.sup_norm + 1e-12

    def test_fourier_labels_are_linear_in_features(self, rng):
        # with w = c the model reproduces the labels with zero residual
        k_order = 4
        coeffs = rng.normal(size=2 * k_order + 1)
        fspec = fourier_series(coeffs, 3.0)
        cfg = FeatureMapConfig(K=k_order, C=3.0)
        for _ in range(5):
            spec = random_spec(4, rng)
            psi = random_sector_state(4, 2, rng)
            y = label(spec, psi, fspec)
            x = feature_vector(spec, psi, cfg)
            assert abs(y - coeffs @ x) <= 1e-10
