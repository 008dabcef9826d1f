import math

import numpy as np
import pytest

from hamfourier.evolution import amplitude_rows
from hamfourier.hamiltonians import (
    CouplingSpec,
    ConfigError,
    _sector_operator,
    _sector_pattern,
    sample_couplings,
    spectral_bound,
    spectral_measures,
)
from hamfourier.states import basis_state, domain_wall

from conftest import (dense, dense_hamiltonian, random_dense_state,
                      random_sector_state, random_spec, sector_block,
                      sector_indices, spin_dims)


class TestCouplingSpec:
    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError, match="expected 3 couplings"):
            CouplingSpec(n=4, couplings=(0.5, 0.5))

    def test_too_few_qubits_rejected(self):
        with pytest.raises(ConfigError, match="n must be >= 2, got 1"):
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
        with pytest.raises(ConfigError, match="n must be >= 2, got 1"):
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


def sector_apply(spec, k):
    """The sector H·v of one spec: _sector_operator on a batch of one."""
    apply = _sector_operator([spec.couplings], k)
    return lambda x: apply(x[None])[0]


class TestApplyHamiltonian:
    # the sector H·v of the Lanczos oracle, against the Kronecker block
    def test_matches_dense_oracle(self, rng):
        for n in range(2, 7):
            spec = random_spec(n, rng)
            for k in range(n + 1):
                block, apply = sector_block(spec, k), sector_apply(spec, k)
                d = len(block)
                for x in (rng.normal(size=d),
                          rng.normal(size=d) + 1j * rng.normal(size=d)):
                    out = apply(x)
                    assert np.iscomplexobj(out) == np.iscomplexobj(x)
                    np.testing.assert_allclose(out, block @ x, atol=1e-12)

    def test_batch_rows_equal_single_rows(self, rng):
        # row b of H·X is spec b's H·v alone, bit for bit (flat index b·d + row)
        specs = [random_spec(8, rng) for _ in range(5)]
        for k in (1, 4):
            x = rng.normal(size=(5, math.comb(8, k))) * (1 + 1j)
            out = _sector_operator([s.couplings for s in specs], k)(x)
            for spec, row, xb in zip(specs, out, x):
                np.testing.assert_array_equal(row, sector_apply(spec, k)(xb))

    def test_all_zeros_is_eigenvector(self, rng):
        for n in (2, 5, 9):
            spec = random_spec(n, rng)
            hv = sector_apply(spec, 0)(np.ones(1))
            assert abs(hv[0] - sum(spec.couplings)) <= 1e-12

    def test_n2_example(self):
        # H|01> for a single unit bond: ZZ gives -|01>, the flip term 2|10>
        apply = sector_apply(CouplingSpec(n=2, couplings=(1.0,)), 1)
        np.testing.assert_allclose(apply(np.array([1.0, 0.0])), [-1.0, 2.0],
                                   atol=0)

    def test_zero_vector(self, rng):
        for k in range(4):
            out = sector_apply(random_spec(3, rng), k)(
                np.zeros(math.comb(3, k), dtype=complex))
            assert np.all(out == 0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ConfigError, match="specs and its state must share"):
            amplitude_rows([random_spec(3, rng)], basis_state(2, "01"), [0.0])

    def test_magnetization_conserved_exactly(self, rng):
        # H maps a sector into itself, so its sector block is all of H·v
        for n in (3, 5):
            spec = random_spec(n, rng)
            h = dense_hamiltonian(spec)
            for k in range(n + 1):
                idx = sector_indices(n, k)
                v = np.zeros(2**n, dtype=complex)
                v[idx] = rng.normal(size=len(idx))
                out = h @ v
                assert np.all(np.delete(out, idx) == 0), k
                np.testing.assert_allclose(
                    sector_apply(spec, k)(v[idx]), out[idx], atol=1e-12)


class TestSectorBasis:
    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 1), (5, 0), (5, 5)])
    def test_size_and_order(self, n, k):
        states = _sector_pattern(n, k)[0]
        assert len(states) == math.comb(n, k)
        assert np.all(np.diff(states) > 0)
        assert all(int(s).bit_count() == k for s in states)
        np.testing.assert_array_equal(states, sector_indices(n, k))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_flip_pairs_cover_every_bond_flip_once(self, n):
        for k in range(n + 1):
            states, signs, pairs, cut = _sector_pattern(n, k)
            assert not any(arr.flags.writeable
                           for arr in (states, signs, pairs, cut)), k
            assert cut[0] == 0 and cut[-1] == pairs.shape[1], k
            assert np.all(np.diff(cut) >= 0), k  # bonds in order
            expected = set()
            for m in range(n - 1):
                bond = 3 << (n - 2 - m)  # qubits m, m+1
                ones = 1 << (n - 2 - m)  # |01> on them
                a, b = states[pairs[:, cut[m]:cut[m + 1]]]
                assert np.all(a ^ b == bond), (k, m)  # differ in m, m+1 only
                assert np.all(a & bond == ones), (k, m)
                assert np.all(np.diff(a) > 0), (k, m)
                assert len(set(a)) == len(a), (k, m)
                expected |= {(m, int(s)) for s in states
                             if int(s) & bond == ones}
                flipped = (states & bond != 0) & (states & bond != bond)
                np.testing.assert_array_equal(signs[m], np.where(flipped, -1, 1))
            found = {(m, int(states[i])) for m in range(n - 1)
                     for i in pairs[0, cut[m]:cut[m + 1]]}
            assert found == expected and pairs.shape[1] == len(expected), k


class TestSectorEigensystem:
    # dense spectral_measures records (no integrand: all eigenvalues)
    def test_n2_singlet_triplet(self):
        spec = CouplingSpec(n=2, couplings=(1.0,))
        (rec,) = spectral_measures([spec], basis_state(2, "01"))
        np.testing.assert_allclose(rec.eigenvalues[0], [-3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(rec.probabilities[0], [0.5, 0.5],
                                   atol=1e-12)

    def test_magnetization_zero_sector(self, rng):
        spec = random_spec(5, rng)
        (rec,) = spectral_measures([spec], basis_state(5, "00000"))
        assert rec.magnetization == 0 and rec.depth == 1
        # |0...0> eigenvalue equals the coupling sum (cross-check with H·v)
        lam = sector_apply(spec, 0)(np.ones(1))[0]
        assert rec.eigenvalues[0, 0] == pytest.approx(lam, abs=1e-12)
        assert rec.eigenvalues[0, 0] == pytest.approx(sum(spec.couplings),
                                                      abs=1e-12)

    def test_block_matches_dense_oracle(self, rng):
        # the tests' sparse Kronecker sector blocks are the sector blocks
        # of the dense Kronecker matrix
        for n in range(2, 7):
            spec = random_spec(n, rng)
            h = dense_hamiltonian(spec)
            assert np.max(np.abs(h.imag)) == 0
            for k in range(n + 1):
                idx = sector_indices(n, k)
                np.testing.assert_allclose(
                    sector_block(spec, k), h[np.ix_(idx, idx)].real, atol=1e-12)

    def test_reconstruction_and_order(self, rng):
        # eigenvalues ascend within each spin block, and the record's
        # moments are <psi|H^j|psi> of the Kronecker block
        spec = random_spec(6, rng)
        psi = random_sector_state(6, 3, rng)
        (rec,) = spectral_measures([spec], psi)
        blocks = np.split(rec.eigenvalues[0], np.cumsum(spin_dims(6, 3))[:-1])
        assert all(np.all(np.diff(b) >= -1e-12) for b in blocks)
        h, comp = sector_block(spec, 3), dense(psi)[sector_indices(6, 3)]
        for power in range(4):
            moment = np.vdot(comp, np.linalg.matrix_power(h, power) @ comp).real
            assert rec.eigenvalues[0] ** power @ rec.probabilities[0] == \
                pytest.approx(moment, abs=1e-10)

    def test_half_filled_12_qubits(self, rng):
        spec = random_spec(12, rng)
        (rec,) = spectral_measures([spec], domain_wall(12))
        assert rec.depth == 924
        assert rec.eigenvalues.shape == (1, 924)
        bound = spectral_bound(spec)
        assert np.all(np.abs(rec.eigenvalues) <= bound + 1e-9)

    def test_all_sector_eigenvalues_bounded(self, rng):
        for _ in range(5):
            spec = random_spec(5, rng)
            for k in range(6):
                (rec,) = spectral_measures([spec],
                                           random_sector_state(5, k, rng))
                assert rec.eigenvalues.shape == (1, math.comb(5, k))
                assert np.all(np.abs(rec.eigenvalues)
                              <= spectral_bound(spec) + 1e-9)


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

