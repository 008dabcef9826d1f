import numpy as np
import pytest

from hamfourier.features import overlap_reference
from hamfourier.hamiltonians import ConfigError
from hamfourier.states import (
    StateVector,
    basis_state,
    domain_wall,
)

from conftest import (
    dense_hamiltonian,
    inner,
    random_dense_state,
    random_sector_state,
    random_spec,
    superpose,
)


class TestBasisState:
    def test_two_qubit_01(self):
        v = basis_state(2, "01")
        np.testing.assert_array_equal(v.amplitudes, [0, 1, 0, 0])

    def test_single_qubit(self):
        np.testing.assert_array_equal(basis_state(1, "0").amplitudes, [1, 0])

    def test_msb_convention(self):
        # "111" -> index 7; "100" -> index 4 (qubit 0 is the MSB)
        assert basis_state(3, "111").amplitudes[7] == 1.0
        assert basis_state(3, "100").amplitudes[4] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="has 2 bits, expected 3"):
            basis_state(3, "01")

    def test_non_binary(self):
        with pytest.raises(ValueError):
            basis_state(2, "0x")


class TestDomainWall:
    def test_n4(self):
        np.testing.assert_array_equal(domain_wall(4).amplitudes,
                                      basis_state(4, "0110").amplitudes)

    def test_n12_pattern(self):
        v = domain_wall(12)
        idx = int("000111111000", 2)
        assert v.amplitudes[idx] == 1.0
        assert int(idx).bit_count() == 6

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_rejects_n_not_multiple_of_four(self, n):
        with pytest.raises(ConfigError, match="divisible by 4"):
            domain_wall(n)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_orthogonal_to_all_zeros(self, n):
        assert inner(basis_state(n, "0" * n), domain_wall(n)) == 0


class TestInner:
    def test_self_inner_is_one(self, rng):
        v = random_dense_state(4, rng)
        assert inner(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis(self):
        assert inner(basis_state(2, "00"), basis_state(2, "11")) == 0

    def test_conjugation_on_first_argument(self, rng):
        a, b = random_dense_state(3, rng), random_dense_state(3, rng)
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-14)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ConfigError, match="qubit counts differ"):
            inner(random_dense_state(2, rng), random_dense_state(3, rng))


class TestSuperpose:
    def test_plus_phase(self):
        v = superpose(basis_state(2, "00"), basis_state(2, "11"), 1)
        np.testing.assert_allclose(
            v.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    def test_i_phase_normalized(self):
        v = superpose(basis_state(2, "00"), basis_state(2, "11"), 1j)
        np.testing.assert_allclose(
            v.amplitudes, np.array([1, 0, 0, 1j]) / np.sqrt(2), atol=1e-15)
        assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_equal_states(self):
        v = basis_state(2, "01")
        with pytest.raises(ValueError):
            superpose(v, v, 1)

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            superpose(basis_state(2, "00"), basis_state(2, "11"), 2)

    def test_pairwise_relations(self, rng):
        # <psi_+|psi_-> = 0 and |<psi_+|psi_{+i}>|^2 = 1/2 for any orthogonal pair
        for _ in range(5):
            ref = random_sector_state(4, 1, rng)
            psi = random_sector_state(4, 3, rng)
            plus = superpose(ref, psi, 1)
            minus = superpose(ref, psi, -1)
            plus_i = superpose(ref, psi, 1j)
            assert abs(inner(plus, minus)) <= 1e-10
            assert abs(inner(plus, plus_i)) ** 2 == pytest.approx(0.5, abs=1e-10)
            for v in (plus, minus, plus_i):
                assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0, abs=1e-10)


class TestReferenceEigenstate:
    def test_eigen_residual(self, rng):
        for n in (2, 4, 7):
            spec = random_spec(n, rng)
            lambda_ref = overlap_reference(spec, basis_state(n, "1" * n))
            e = basis_state(n, "0" * n).amplitudes
            residual = dense_hamiltonian(spec) @ e - lambda_ref * e
            assert np.linalg.norm(residual) <= 1e-12


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(n=1, amplitudes=np.array([1.0, 1.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ConfigError, match="amplitudes shape"):
            StateVector(n=2, amplitudes=np.array([1.0, 0.0]))
