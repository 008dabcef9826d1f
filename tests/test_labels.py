import numpy as np
import pytest

from hamfourier.features import FeatureMapConfig, feature_vector
from hamfourier.hamiltonians import ConfigError
from hamfourier.labels import FunctionSpec, label
from hamfourier.states import basis_state

from conftest import random_sector_state, random_spec


class TestEvalF:
    """Pointwise evaluation, fspec(x)."""

    def test_exp_at_zero(self):
        assert FunctionSpec("exp", 3.0, 1.0)(0.0) == 1.0

    def test_exp_at_lower_edge(self):
        assert FunctionSpec("exp", 3.0, 1.0)(-3.0) == pytest.approx(
            np.exp(3.0), rel=1e-12)

    def test_single_cosine_term(self):
        # unit weight on cos l=1
        f = FunctionSpec("fourier", 3.0, coeffs=[0.0, 0.0, 1.0])
        for x in np.linspace(-3, 3, 7):
            assert f(x) == pytest.approx(np.cos(np.pi * x / 3), abs=1e-12)

    def test_sine_kind_carries_feature_sign(self):
        f = FunctionSpec("sin", 3.0, 0.4)
        assert f(1.0) == pytest.approx(-np.sin(0.4), abs=1e-15)

    def test_fourier_sine_basis_sign(self):
        # unit weight on sin l=1
        f = FunctionSpec("fourier", 3.0, coeffs=[0.0, 1.0, 0.0])
        assert f(1.5) == pytest.approx(-np.sin(np.pi * 1.5 / 3), abs=1e-12)

    def test_step(self):
        f = FunctionSpec("step", 3.0, 0.5)
        assert f(0.4) == 0.0
        assert f(0.5) == 1.0
        assert f(2.0) == 1.0

    def test_domain_error(self):
        with pytest.raises(ConfigError, match="argument outside"):
            FunctionSpec("exp", 3.0, 1.0)(3.5)

    def test_vectorized(self):
        out = FunctionSpec("cos", 3.0, 1.0)(np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, np.cos(1.0)])


class TestSupNorm:
    @pytest.mark.parametrize("fspec,expected", [
        (FunctionSpec("exp", 3.0, 1.0), np.exp(3.0)),
        (FunctionSpec("exp", 3.0, -2.0), np.exp(6.0)),
        (FunctionSpec("cos", 3.0, 0.2), 1.0),
        (FunctionSpec("sin", 3.0, 0.1), np.sin(0.3)),
        (FunctionSpec("sin", 3.0, 2.0), 1.0),
        (FunctionSpec("step", 3.0, 0.5), 1.0),
        (FunctionSpec("step", 3.0, 4.0), 0.0),
    ])
    def test_closed_forms(self, fspec, expected):
        assert fspec.sup_norm == pytest.approx(expected, rel=1e-12)

    def test_grid_check_ten_thousand_points(self, rng):
        coeffs = rng.normal(size=11)
        specs = [FunctionSpec("exp", 3.0, 1.0), FunctionSpec("cos", 3.0, 1.3),
                 FunctionSpec("sin", 3.0, 0.7), FunctionSpec("step", 3.0, -1.0),
                 FunctionSpec("fourier", 3.0, coeffs=coeffs)]
        grid = np.linspace(-3.0, 3.0, 10_000)
        for fspec in specs:
            assert np.all(np.abs(fspec(grid)) <= fspec.sup_norm + 1e-12)


class TestFunctionSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="not in"):
            FunctionSpec(kind="tanh", C=3.0)

    def test_fourier_needs_odd_coefficient_count(self):
        with pytest.raises(ConfigError, match="odd number"):
            FunctionSpec("fourier", 3.0, coeffs=[1.0, 2.0])

    def test_fourier_needs_coefficients(self):
        with pytest.raises(ConfigError, match="needs coeffs"):
            FunctionSpec(kind="fourier", C=3.0)

    def test_positive_domain(self):
        with pytest.raises(ConfigError, match="C must be positive"):
            FunctionSpec("exp", 0.0, 1.0)


class TestLabel:
    def test_constant_function_gives_trace(self, rng):
        f_one = FunctionSpec("fourier", 3.0, coeffs=[1.0])
        for n in (2, 4, 5):
            spec = random_spec(n, rng)
            psi = random_sector_state(n, n // 2, rng)
            assert label(spec, psi, f_one) == pytest.approx(1.0, abs=1e-10)

    def test_n2_thermal_example(self):
        from hamfourier.hamiltonians import CouplingSpec
        spec = CouplingSpec(n=2, couplings=(1.0,))
        y = label(spec, basis_state(2, "01"), FunctionSpec("exp", 3.0, 1.0))
        assert y == pytest.approx((np.exp(-1.0) + np.exp(3.0)) / 2, rel=1e-12)

    def test_feature_label_consistency(self, rng):
        # f = cos(l pi x / C) labels the cosine feature, the sine kind the
        # sine feature (shared sign convention)
        spec = random_spec(4, rng)
        psi = random_sector_state(4, 2, rng)
        x = feature_vector(spec, psi, FeatureMapConfig(K=3, C=3.0))
        for l in (1, 2, 3):
            t_l = l * np.pi / 3.0
            assert label(spec, psi, FunctionSpec("cos", 3.0, t_l)) == (
                pytest.approx(x[2 * l], abs=1e-10))
            assert label(spec, psi, FunctionSpec("sin", 3.0, t_l)) == (
                pytest.approx(x[2 * l - 1], abs=1e-10))

    def test_bounded_by_sup_norm(self, rng):
        fspec = FunctionSpec("exp", 3.0, 1.0)
        for _ in range(10):
            spec = random_spec(5, rng)
            psi = random_sector_state(5, 2, rng)
            assert abs(label(spec, psi, fspec)) <= fspec.sup_norm + 1e-12

    def test_fourier_labels_are_linear_in_features(self, rng):
        # with w = c the model reproduces the labels with zero residual
        k_order = 4
        coeffs = rng.normal(size=2 * k_order + 1)
        fspec = FunctionSpec("fourier", 3.0, coeffs=coeffs)
        cfg = FeatureMapConfig(K=k_order, C=3.0)
        for _ in range(5):
            spec = random_spec(4, rng)
            psi = random_sector_state(4, 2, rng)
            y = label(spec, psi, fspec)
            x = feature_vector(spec, psi, cfg)
            assert abs(y - coeffs @ x) <= 1e-10
