import numpy as np
import pytest

from hamfourier.features import overlap_reference
from hamfourier.hamiltonians import ConfigError, spectral_measures
from hamfourier.labels import FunctionSpec
from hamfourier.states import (
    StateVector,
    basis_state,
    domain_wall,
)

from conftest import (
    dense,
    dense_hamiltonian,
    from_dense,
    inner,
    random_dense_state,
    random_sector_state,
    random_spec,
    superpose,
)


class TestBasisState:
    def test_two_qubit_01(self):
        v = basis_state(2, "01")
        np.testing.assert_array_equal(dense(v), [0, 1, 0, 0])

    def test_single_qubit(self):
        np.testing.assert_array_equal(dense(basis_state(1, "0")), [1, 0])

    def test_msb_convention(self):
        # "111" -> index 7; "100" -> index 4 (qubit 0 is the MSB)
        assert dense(basis_state(3, "111"))[7] == 1.0
        assert dense(basis_state(3, "100"))[4] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="has 2 bits, expected 3"):
            basis_state(3, "01")

    def test_non_binary(self):
        with pytest.raises(ValueError):
            basis_state(2, "0x")


class TestDomainWall:
    def test_n4(self):
        np.testing.assert_array_equal(dense(domain_wall(4)),
                                      dense(basis_state(4, "0110")))

    def test_n12_pattern(self):
        v = domain_wall(12)
        idx = int("000111111000", 2)
        assert dense(v)[idx] == 1.0
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
            dense(v), np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    def test_i_phase_normalized(self):
        v = superpose(basis_state(2, "00"), basis_state(2, "11"), 1j)
        np.testing.assert_allclose(
            dense(v), np.array([1, 0, 0, 1j]) / np.sqrt(2), atol=1e-15)
        assert np.linalg.norm(dense(v)) == pytest.approx(1.0, abs=1e-12)

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
                assert np.linalg.norm(dense(v)) == pytest.approx(1.0, abs=1e-10)


class TestReferenceEigenstate:
    def test_eigen_residual(self, rng):
        for n in (2, 4, 7):
            spec = random_spec(n, rng)
            lambda_ref = overlap_reference(spec, basis_state(n, "1" * n))
            e = dense(basis_state(n, "0" * n))
            residual = dense_hamiltonian(spec) @ e - lambda_ref * e
            assert np.linalg.norm(residual) <= 1e-12


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, [0, 1], np.array([1.0, 1.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ConfigError, match="one strictly ascending index"):
            StateVector(2, [0, 1], np.array([1.0]))

    @pytest.mark.parametrize("support", [[2, 1], [1, 1], [1, 4], [-1, 1]],
                             ids=["descending", "repeated", "past-2^n",
                                  "negative"])
    def test_rejects_bad_support(self, support):
        with pytest.raises(ConfigError, match=r"one strictly ascending index "
                           r"in \[0, 2\^2\) per amplitude"):
            StateVector(2, support, [0.6, 0.8])

    @pytest.mark.parametrize("make", [
        lambda: StateVector(64, [0], [1.0]),
        lambda: basis_state(64, "1" * 64),  # int("1" * 64, 2) > int64 max
    ], ids=["state", "basis_state"])
    def test_rejects_n_past_int64(self, make):
        with pytest.raises(ConfigError, match=r"n in \[1, 63\], got 64"):
            make()

    def test_drops_exact_zeros(self):
        v = StateVector(3, [0, 3, 5, 6], [0.6, 0.0, -0.0, 0.8j])
        assert v.support.tolist() == [0, 6]
        assert v.amplitudes.tolist() == [0.6, 0.8j]

    def test_explicit_zero_on_a_second_sector_changes_nothing(self, rng):
        # a zero-weight sector would run moments of a zero component: the
        # dropped zero gives the domain wall's records, bit for bit
        n, wall = 12, domain_wall(12)
        zero = StateVector(n, [int("000011111000", 2), *wall.support],
                           [0.0, 1.0])
        specs = [random_spec(n, rng) for _ in range(3)]
        cos = FunctionSpec("cos", 3.0, 1.0).exponentials()

        def records(psi):
            return [(r.magnetization, r.moments.tobytes(), r.centre.tobytes(),
                     r.half_width, r.bound)
                    for r in spectral_measures(specs, psi, cos)]
        assert records(zero) == records(wall)
        assert len(records(wall)) == 1  # one chunk
