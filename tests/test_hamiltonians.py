import json
import math

import numpy as np
import pytest

from hamfourier.hamiltonians import (
    SECTOR_DIM_CAP,
    CouplingSpec,
    ConfigError,
    apply_hamiltonian,
    coupling_from_record,
    coupling_record,
    sample_couplings,
    sector_eigensystem,
    sector_matrix,
    sector_states,
    spectral_bound,
    spectral_measures,
)
from hamfourier.pipeline import json_17g

from conftest import dense_hamiltonian, random_dense_state, random_sector_state, random_spec


class TestCouplingSpec:
    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError, match="expected 3 couplings"):
            CouplingSpec(n=4, couplings=(0.5, 0.5))

    def test_too_few_qubits_rejected(self):
        with pytest.raises(ConfigError, match="need at least 2 qubits"):
            CouplingSpec(n=1, couplings=())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            CouplingSpec(n=2, couplings=(math.inf,))

    def test_already_normalized_draw_kept(self):
        spec = CouplingSpec(n=4, couplings=(0.5, -0.25, 0.25))
        assert spec.couplings == (0.5, -0.25, 0.25)


class TestSampleCouplings:
    def test_normalization(self, rng):
        spec = sample_couplings(12, rng)
        assert len(spec.couplings) == 11
        assert abs(sum(abs(j) for j in spec.couplings) - 1.0) < 1e-12
        assert all(abs(j) <= 1.0 for j in spec.couplings)

    def test_two_qubits_gives_unit_coupling(self, rng):
        for _ in range(10):
            spec = sample_couplings(2, rng)
            assert abs(abs(spec.couplings[0]) - 1.0) < 1e-15

    def test_deterministic_given_seed(self):
        a = sample_couplings(8, np.random.default_rng(42))
        b = sample_couplings(8, np.random.default_rng(42))
        assert a == b

    def test_invalid_dimension(self, rng):
        with pytest.raises(ConfigError, match="need at least 2 qubits"):
            sample_couplings(1, rng)

    def test_all_zero_draw_redrawn(self):
        class ZeroFirst:
            def __init__(self):
                self.calls = 0
                self.inner = np.random.default_rng(0)

            def uniform(self, lo, hi, size):
                self.calls += 1
                if self.calls == 1:
                    return np.zeros(size)
                return self.inner.uniform(lo, hi, size)

        fake = ZeroFirst()
        spec = sample_couplings(4, fake)
        assert fake.calls == 2
        assert abs(sum(abs(j) for j in spec.couplings) - 1.0) < 1e-12

    def test_normalized_raw_draw_passes_through(self):
        # a draw already satisfying sum |J| = 1 is returned unchanged
        class Fixed:
            def uniform(self, lo, hi, size):
                return np.array([0.5, -0.25, 0.25])

        spec = sample_couplings(4, Fixed())
        assert spec.couplings == (0.5, -0.25, 0.25)


class TestSpectralBound:
    def test_normalized_spec_bound_is_three(self, rng):
        assert spectral_bound(sample_couplings(6, rng)) == pytest.approx(3.0, abs=1e-12)

    def test_zero_couplings(self):
        assert spectral_bound(CouplingSpec(n=3, couplings=(0.0, 0.0))) == 0.0

    def test_unnormalized(self):
        assert spectral_bound(CouplingSpec(n=3, couplings=(1.0, 1.0))) == 6.0


class TestApplyHamiltonian:
    def test_matches_dense_oracle(self, rng):
        for n in range(2, 7):
            spec = random_spec(n, rng)
            h = dense_hamiltonian(spec)
            for _ in range(3):
                v = random_dense_state(n, rng)
                np.testing.assert_allclose(
                    apply_hamiltonian(spec, v), h @ v.amplitudes, atol=1e-12)

    def test_all_zeros_is_eigenvector(self, rng):
        for n in (2, 5, 9):
            spec = random_spec(n, rng)
            e0 = np.zeros(2**n, dtype=complex)
            e0[0] = 1.0
            hv = apply_hamiltonian(spec, e0)
            lam = sum(spec.couplings)
            assert np.linalg.norm(hv - lam * e0) <= 1e-12

    def test_n2_example(self):
        # H|01> for a single unit bond: ZZ gives -|01>, the flip term 2|10>
        spec = CouplingSpec(n=2, couplings=(1.0,))
        v = np.zeros(4, dtype=complex)
        v[0b01] = 1.0
        expected = np.zeros(4, dtype=complex)
        expected[0b01] = -1.0
        expected[0b10] = 2.0
        np.testing.assert_allclose(apply_hamiltonian(spec, v), expected, atol=0)

    def test_zero_vector(self, rng):
        spec = random_spec(3, rng)
        out = apply_hamiltonian(spec, np.zeros(8, dtype=complex))
        assert np.all(out == 0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ConfigError, match="state has shape"):
            apply_hamiltonian(random_spec(3, rng), np.zeros(4, dtype=complex))

    def test_magnetization_conserved_exactly(self, rng):
        # amplitude created on a different-popcount bitstring must be exact zero
        for n in (3, 5):
            spec = random_spec(n, rng)
            for idx in rng.choice(2**n, size=4, replace=False):
                v = np.zeros(2**n, dtype=complex)
                v[idx] = 1.0
                out = apply_hamiltonian(spec, v)
                pop = int(idx).bit_count()
                for j in np.nonzero(out)[0]:
                    assert int(j).bit_count() == pop


class TestSectorBasis:
    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 1), (5, 0), (5, 5)])
    def test_size_and_order(self, n, k):
        basis = sector_states(n, k)
        assert basis.dim == math.comb(n, k)
        states = basis.states
        assert np.all(np.diff(states) > 0)
        assert all(int(s).bit_count() == k for s in states)

    def test_invalid_magnetization(self):
        with pytest.raises(ConfigError, match="magnetization 5 outside"):
            sector_states(4, 5)


class TestSectorEigensystem:
    def test_n2_singlet_triplet(self):
        spec = CouplingSpec(n=2, couplings=(1.0,))
        evals, evecs, basis = sector_eigensystem(spec, 1)
        np.testing.assert_allclose(evals, [-3.0, 1.0], atol=1e-12)

    def test_magnetization_zero_sector(self, rng):
        spec = random_spec(5, rng)
        evals, _, basis = sector_eigensystem(spec, 0)
        assert basis.dim == 1
        # |0...0> eigenvalue equals the coupling sum (cross-check with apply)
        e0 = np.zeros(2**5, dtype=complex)
        e0[0] = 1.0
        lam = apply_hamiltonian(spec, e0)[0].real
        assert evals[0] == pytest.approx(lam, abs=1e-12)

    def test_block_matches_dense_oracle(self, rng):
        for n in (3, 4, 5):
            spec = random_spec(n, rng)
            h = dense_hamiltonian(spec)
            for k in range(n + 1):
                basis = sector_states(n, k)
                block = h[np.ix_(basis.states, basis.states)]
                np.testing.assert_allclose(
                    sector_matrix(spec, basis), block.real, atol=1e-12)
                assert np.max(np.abs(block.imag)) == 0

    def test_reconstruction_and_order(self, rng):
        spec = random_spec(6, rng)
        evals, evecs, basis = sector_eigensystem(spec, 3)
        assert np.all(np.diff(evals) >= -1e-12)
        rebuilt = evecs @ np.diag(evals) @ evecs.T
        assert np.max(np.abs(rebuilt - sector_matrix(spec, basis))) <= 1e-10

    def test_half_filled_12_qubits(self, rng):
        spec = random_spec(12, rng)
        evals, _, basis = sector_eigensystem(spec, 6)
        assert basis.dim == 924
        assert len(evals) == 924
        bound = spectral_bound(spec)
        assert np.all(np.abs(evals) <= bound + 1e-9)

    def test_all_sector_eigenvalues_bounded(self, rng):
        for _ in range(5):
            spec = random_spec(5, rng)
            for k in range(6):
                evals, _, _ = sector_eigensystem(spec, k)
                assert np.all(np.abs(evals) <= spectral_bound(spec) + 1e-9)

    def test_dimension_cap(self, rng):
        spec = random_spec(18, rng)
        assert math.comb(18, 9) > SECTOR_DIM_CAP
        with pytest.raises(ConfigError, match="> cap"):
            sector_eigensystem(spec, 9)


class TestSpectralWeights:
    def test_probabilities_sum_to_one_in_sector(self, rng):
        spec = random_spec(5, rng)
        psi = random_sector_state(5, 2, rng)
        records = list(spectral_measures([spec], psi))
        assert len(records) == 1
        assert records[0].magnetization == 2
        assert abs(np.sum(records[0].probabilities) - 1.0) <= 1e-10

    def test_multi_sector_state(self, rng):
        spec = random_spec(4, rng)
        psi = random_dense_state(4, rng)
        records = list(spectral_measures([spec], psi))
        total = sum(np.sum(r.probabilities) for r in records)
        assert abs(total - 1.0) <= 1e-10


class TestRecordInterchange:
    def test_bit_exact_roundtrip(self, rng):
        spec = sample_couplings(10, rng)
        line = json_17g(coupling_record(spec))
        back = coupling_from_record(json.loads(line))
        assert back == spec  # exact float equality

    def test_record_shape(self, rng):
        rec = coupling_record(sample_couplings(3, rng))
        assert set(rec) == {"n", "couplings"}
        assert rec["n"] == 3 and len(rec["couplings"]) == 2
        json.loads(json_17g(rec))
