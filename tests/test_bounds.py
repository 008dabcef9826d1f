import math

import pytest

from hamfourier.bounds import (
    BoundInputs,
    noisy_expected_loss_bound,
    sufficient_parameters,
    hoeffding_shots,
    noise_terms,
    expected_loss_bound,
    expected_loss_terms,
)

REFERENCE_INPUTS = BoundInputs(K=1, W=1.0, f_inf=1.0, N_d=100, delta=0.1)


def scalar_oracle_noiseless(K, W, f_inf, N_d, delta, eps_K):
    # written out independently of the implementation
    d = 2 * K + 1
    m = math.sqrt(d) * W + f_inf
    return (eps_K**2
            + 4 * m * W * math.sqrt(d / N_d)
            + 3 * m**2 * math.sqrt(math.log(2 / delta) / (2 * N_d)))


class TestExpectedLossBound:
    def test_reference_value(self):
        # frozen from the scalar oracle: 1.8928203... + 2.7405346...
        assert expected_loss_bound(REFERENCE_INPUTS) == pytest.approx(
            4.633354983877501, rel=1e-12)
        assert expected_loss_bound(REFERENCE_INPUTS) == pytest.approx(4.6333, abs=1e-3)

    def test_matches_scalar_oracle(self):
        for b in (REFERENCE_INPUTS,
                  BoundInputs(K=11, W=2.5, f_inf=20.0, N_d=55, delta=0.05,
                              eps_K=0.01)):
            oracle = scalar_oracle_noiseless(b.K, b.W, b.f_inf, b.N_d, b.delta,
                                            b.eps_K)
            assert expected_loss_bound(b) == pytest.approx(oracle, rel=1e-13)

    def test_term_decomposition(self):
        terms = expected_loss_terms(REFERENCE_INPUTS)
        assert terms["approximation"] == 0.0
        assert terms["rademacher"] == pytest.approx(1.8928203230275509, rel=1e-12)
        assert terms["concentration"] == pytest.approx(2.74053466084995, rel=1e-12)

    def test_scaling_in_sample_count(self):
        big = BoundInputs(K=1, W=1.0, f_inf=1.0, N_d=100 * 10**6, delta=0.1)
        assert expected_loss_bound(big) == pytest.approx(
            expected_loss_bound(REFERENCE_INPUTS) / 1000, rel=1e-12)

    def test_limit_is_approximation_error(self):
        b = BoundInputs(K=1, W=1.0, f_inf=1.0, N_d=10**30, delta=0.1, eps_K=0.2)
        assert expected_loss_bound(b) == pytest.approx(0.04, abs=1e-10)

    def test_monotonicity(self):
        base = expected_loss_bound(REFERENCE_INPUTS)
        assert expected_loss_bound(BoundInputs(K=1, W=1.0, f_inf=1.0, N_d=200,
                                        delta=0.1)) < base
        assert expected_loss_bound(BoundInputs(K=2, W=1.0, f_inf=1.0, N_d=100,
                                        delta=0.1)) > base
        assert expected_loss_bound(BoundInputs(K=1, W=2.0, f_inf=1.0, N_d=100,
                                        delta=0.1)) > base
        assert expected_loss_bound(BoundInputs(K=1, W=1.0, f_inf=2.0, N_d=100,
                                        delta=0.1)) > base
        assert expected_loss_bound(BoundInputs(K=1, W=1.0, f_inf=1.0, N_d=100,
                                        delta=0.05)) > base


class TestNoisyExpectedLossBound:
    def test_zero_noise_reduces_to_noiseless_bound(self):
        assert noisy_expected_loss_bound(REFERENCE_INPUTS) == expected_loss_bound(REFERENCE_INPUTS)

    def test_reference_value_with_noise(self):
        b = BoundInputs(K=1, W=1.0, f_inf=1.0, N_d=100, delta=0.1, eta=0.1)
        # 4.6333549... + 4*0.1*sqrt(3)*(1+sqrt(3)) + 2*0.01*3
        assert noisy_expected_loss_bound(b) == pytest.approx(6.586175306905052, rel=1e-12)
        terms = noise_terms(b)
        assert terms["noise_linear"] == pytest.approx(1.8928203230275509,
                                                      rel=1e-12)
        assert terms["noise_quadratic"] == pytest.approx(0.06, rel=1e-12)

    def test_strictly_increasing_in_eta(self):
        vals = [noisy_expected_loss_bound(BoundInputs(K=1, W=1.0, f_inf=1.0, N_d=100,
                                           delta=0.1, eta=eta))
                for eta in (0.0, 0.05, 0.1, 0.2)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSufficientParameters:
    def test_reference_point(self):
        # ln(10)/0.1 = 23.0259 -> K = 24; (ln(10)/0.1)^4 = 281101.236 -> 281102
        assert sufficient_parameters(0.1, 1.0, 1.0) == (24, 281102)

    def test_k_more_than_doubles_when_eps_halves(self):
        for eps in (0.2, 0.1, 0.05):
            k1, _ = sufficient_parameters(eps, 1.0, 1.0)
            k2, _ = sufficient_parameters(eps / 2, 1.0, 1.0)
            assert k2 > 2 * k1

    def test_fourth_power_in_budget(self):
        _, n1 = sufficient_parameters(0.1, 1.0, 1.0)
        _, n2 = sufficient_parameters(0.1, 2.0, 1.0)
        assert n2 / n1 == pytest.approx(16.0, rel=1e-3)

    @pytest.mark.parametrize("eps", [1.0, 1.5, 0.0, -0.2])
    def test_domain(self, eps):
        with pytest.raises(ValueError):
            sufficient_parameters(eps, 1.0, 1.0)

    @pytest.mark.parametrize("w_budget, f_inf", [(0, 1), (1, 0), (-1, 1)])
    def test_budget_and_sup_norm_must_be_positive(self, w_budget, f_inf):
        with pytest.raises(ValueError, match="W and f_inf must be positive"):
            sufficient_parameters(0.1, w_budget, f_inf)


class TestHoeffdingShots:
    def test_reference_values(self):
        assert hoeffding_shots(0.05, 0.05, 11) == 5460
        assert hoeffding_shots(0.1, 0.1, 5) == 1079
        assert hoeffding_shots(0.1, 0.05, 5) == 1218  # ceil(200 ln 440)

    def test_inverse_square_scaling(self):
        n = hoeffding_shots(0.1, 0.1, 5)
        n_half = hoeffding_shots(0.05, 0.1, 5)
        assert abs(n_half - 4 * n) <= 4  # equal up to ceiling slack

    def test_covers_union_bound(self):
        # with the returned count the per-feature tail is below delta/(2K+1)
        eta, delta, K = 0.07, 0.02, 8
        n = hoeffding_shots(eta, delta, K)
        assert 2 * math.exp(-n * eta**2 / 2) <= delta / (2 * K + 1)
        assert 2 * math.exp(-(n - 1) * eta**2 / 2) > delta / (2 * K + 1)

    @pytest.mark.parametrize("args", [(0.0, 0.1, 5), (0.1, 0.0, 5),
                                      (0.1, 1.0, 5), (0.1, 0.1, -1)])
    def test_domain(self, args):
        with pytest.raises(ValueError):
            hoeffding_shots(*args)


class TestBoundInputs:
    @pytest.mark.parametrize("kwargs", [
        dict(K=-1, W=1.0, f_inf=1.0, N_d=10, delta=0.1),
        dict(K=1, W=1.0, f_inf=1.0, N_d=0, delta=0.1),
        dict(K=1, W=1.0, f_inf=1.0, N_d=10, delta=0.0),
        dict(K=1, W=1.0, f_inf=1.0, N_d=10, delta=1.0),
        dict(K=1, W=-1.0, f_inf=1.0, N_d=10, delta=0.1),
        dict(K=1, W=1.0, f_inf=1.0, N_d=10, delta=0.1, eta=-0.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BoundInputs(**kwargs)
