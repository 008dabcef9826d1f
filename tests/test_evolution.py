import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

import hamfourier.evolution as evo
from hamfourier.evolution import (
    amplitude_rows,
    amplitudes,
    trotter_evolve,
)
from hamfourier.features import FeatureMapConfig
from hamfourier.hamiltonians import (
    ConfigError,
    CouplingSpec,
    _sector_bytes,
    _sector_pattern,
    _spin_blocks,
    spectral_sum,
)
from hamfourier.pipeline import SCHEDULE_12Q, ExperimentConfig
from hamfourier.states import basis_state, domain_wall

from conftest import (
    IDENTITY,
    dense,
    dense_hamiltonian,
    exact_evolve,
    from_dense,
    inner,
    kron_chain,
    random_dense_state,
    random_sector_state,
    random_spec,
    superpose,
)

BOND = dense_hamiltonian(CouplingSpec(n=2, couplings=(1.0,)))  # XX+YY+ZZ, 4x4


def heisenberg_gate(j, dt):
    """exp(-i·j·dt·(XX+YY+ZZ)) as the kernel applies it: the n=2 Strang
    circuit with one step is the single gate of its one (even) bond."""
    spec = CouplingSpec(n=2, couplings=(j,))
    return np.column_stack([
        dense(trotter_evolve(spec, from_dense(2, e), dt, 1))
        for e in np.eye(4, dtype=complex)])


class TestHeisenbergGate:
    def test_dt_zero_is_identity(self):
        np.testing.assert_allclose(heisenberg_gate(0.7, 0.0), np.eye(4),
                                   atol=1e-15)

    def test_matches_matrix_exponential(self, rng):
        # independent oracle: scipy expm of the dense 4x4 bond term
        for _ in range(20):
            j = rng.uniform(-2, 2)
            dt = rng.uniform(-3, 3)
            oracle = expm(-1j * j * dt * BOND)
            np.testing.assert_allclose(heisenberg_gate(j, dt), oracle,
                                       atol=1e-12)

    def test_quarter_pi_swaps_with_phase(self):
        # theta = pi/4: cos(2 theta) = 0, so |01> -> e^{i pi/4} (-i) |10>
        u = heisenberg_gate(1.0, np.pi / 4)
        out = u @ np.array([0, 1, 0, 0], dtype=complex)
        expected = np.zeros(4, dtype=complex)
        expected[2] = np.exp(1j * np.pi / 4) * (-1j)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_unitarity(self, rng):
        for _ in range(10):
            u = heisenberg_gate(rng.uniform(-2, 2), rng.uniform(-3, 3))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


class TestTrotterEvolve:
    def test_t_zero_leaves_state(self, rng):
        spec = random_spec(4, rng)
        v = random_dense_state(4, rng)
        out = trotter_evolve(spec, v, 0.0, 3)
        np.testing.assert_allclose(dense(out), dense(v), atol=1e-14)

    def test_single_step_matches_dense_gate_product(self, rng):
        # oracle: expand each layer gate with np.kron and multiply explicitly
        spec = random_spec(4, rng)
        t = 0.9
        mats = []
        for parity, dt in ((1, t / 2), (0, t), (1, t / 2)):
            for m, j in enumerate(spec.couplings):
                if m % 2 == parity:
                    ops = [IDENTITY] * 3
                    ops[m] = expm(-1j * j * dt * BOND)
                    mats.append(kron_chain(ops))
        u = np.eye(16, dtype=complex)
        for mat in mats:
            u = mat @ u
        v = random_dense_state(4, rng)
        np.testing.assert_allclose(dense(trotter_evolve(spec, v, t, 1)),
                                   u @ dense(v), atol=1e-12)

    def test_unit_norm_for_any_step_count(self, rng):
        spec = random_spec(5, rng)
        v = random_dense_state(5, rng)
        for n_step in (1, 3, 17):
            out = trotter_evolve(spec, v, 2.3, n_step)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10

    def test_converges_to_exact(self, rng):
        spec = random_spec(4, rng)
        v = domain_wall(4)
        exact = exact_evolve(spec, v, 1.0)
        approx = trotter_evolve(spec, v, 1.0, 64)
        assert np.linalg.norm(dense(exact) - dense(approx)) <= 1e-3

    def test_second_order_convergence_slope(self, rng):
        spec = random_spec(4, rng)
        v = domain_wall(4)
        exact = dense(exact_evolve(spec, v, 1.0))
        steps = np.array([4, 8, 16, 32])
        errs = [np.linalg.norm(exact - dense(trotter_evolve(spec, v, 1.0, s)))
                for s in steps]
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.3)

    def test_sector_weights_preserved_exactly(self, rng):
        spec = random_spec(4, rng)
        out = trotter_evolve(spec, domain_wall(4), 1.7, 5)
        for idx in out.support:
            assert int(idx).bit_count() == 2

    def test_invalid_step_count(self, rng):
        with pytest.raises(ConfigError, match="n_step must be >= 1, got 0"):
            trotter_evolve(random_spec(4, rng), domain_wall(4), 1.0, 0)


def sparse_strang(spec, t, n_step, amps):
    """The Strang circuit with n_step steps on the columns of amps, every
    layer of every step in order, each gate a sparse Kronecker product of an
    expm bond gate: independent of the sector kernel and its half circuit."""
    n, dt = spec.n, t / n_step
    for parity, tau in ((1, dt / 2), *((0, dt), (1, dt / 2), (1, dt / 2))
                        * n_step)[:-1]:
        for m, j in enumerate(spec.couplings):
            if m % 2 == parity:
                amps = sparse.kron(sparse.kron(
                    sparse.identity(2**m), expm(-1j * j * tau * BOND)),
                    sparse.identity(2**(n - m - 2)), format="csr") @ amps
    return amps


def multi_sector_state(n, rng):
    """A state on three or four sectors, |0...0> and |1...1> included, with
    relative phases 1, -1, i, -i."""
    amps = sum(phase * dense(random_sector_state(n, k, rng))
               for phase, k in zip((1, -1, 1j, -1j), (0, 1, n // 2, n)))
    return from_dense(n, amps / np.linalg.norm(amps))


class TestStrangKernel:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
    def test_matches_kronecker_circuit(self, rng, n):
        # columns finish after 1..4 steps, so each merged odd layer runs
        # with both halves, with the first only and with neither; n=2 has
        # no odd bond
        spec = random_spec(n, rng)
        psi = multi_sector_state(n, rng)
        times = np.array([0.0, 1.1, 2.3, 0.9, 3.7, 2.9])
        schedule = (2, 1, 2, 3, 4, 4)
        evolved = [sparse_strang(spec, t, s, dense(psi))
                   for t, s in zip(times, schedule)]
        for t, s, u_psi in zip(times, schedule, evolved):
            np.testing.assert_allclose(
                dense(trotter_evolve(spec, psi, t, s)), u_psi, rtol=0,
                atol=1e-13)
        expected = [np.vdot(dense(psi), u_psi) for u_psi in evolved]
        np.testing.assert_allclose(amplitudes(spec, psi, times, schedule),
                                   expected, rtol=0, atol=1e-13)

    def test_unit_norm_at_12_qubits(self, rng):
        out = trotter_evolve(random_spec(12, rng), random_dense_state(12, rng),
                             3.7, 3)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-14

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (5, 5), (9, 4), (12, 6)])
    def test_sector_bytes_count_the_cached_pattern(self, n, k):
        assert _sector_bytes(n, k) == sum(
            arr.nbytes for arr in _sector_pattern(n, k))

    def test_refuses_a_sweep_that_would_not_fit(self, rng):
        # n=24 at half filling, 8 steps at every time: the domain wall's cone
        # through 9 layers passes 1 GB of pattern and 2·16·(K+1) bytes of
        # components per state, so its closure stops there and the sweep is
        # refused before anything is built or read: neither sector cache
        # changes
        def caches():
            return _sector_pattern.cache_info(), _spin_blocks.cache_info()
        before = caches()
        with pytest.raises(ConfigError, match=r"\(n=24, magnetization=12\) "
                           r"needs at least 1\.1 GB of pattern and components "
                           r"> cap 1 GB"):
            amplitude_rows([random_spec(24, rng)], domain_wall(24),
                           np.arange(12.0), (8,) * 12)
        assert caches() == before

    def test_sweeps_a_cone_where_the_sector_would_not_fit(self, rng):
        # the whole n=24 half-filling sector would need 1.8 GB; the domain
        # wall's cone through the 2 layers of one step holds 25 states
        amps = amplitude_rows([random_spec(24, rng)], domain_wall(24),
                              np.arange(12.0), (1,) * 12)[0]
        assert amps[0] == 1.0
        assert np.all(np.abs(amps) <= 1.0 + 1e-14)


def real_sector_state(n, k, rng):
    amps = dense(random_sector_state(n, k, rng)).real
    return from_dense(n, amps / np.linalg.norm(amps) + 0j)


class CountingPairs(np.ndarray):
    """A pattern's flip pairs that count the bond slices taken from them:
    the Strang kernel takes one per gate update."""
    slices = 0

    def __getitem__(self, key):
        CountingPairs.slices += isinstance(key, tuple)
        return np.asarray(super().__getitem__(key))


def watch_sweeps(monkeypatch):
    """The rows of every pattern the Strang kernel reads, one entry per
    occupied sector, its flip pairs counting their bond slices."""
    swept, sectors = [], evo._sectors

    def watched(*args):
        for k, (states, signs, pairs, cut), comp in sectors(*args):
            swept.append(len(states))
            yield k, (states, signs, pairs.view(CountingPairs), cut), comp
    monkeypatch.setattr(evo, "_sectors", watched)
    return swept


def basis_mix(n, amps):
    """sum_bits amps[bits] |bits>, the amplitudes already of unit norm."""
    vec = np.zeros(2**n, dtype=complex)
    for bits, amp in amps.items():
        vec[int(bits, 2)] = amp
    return from_dense(n, vec)


def sweep_whole_sectors(monkeypatch):
    """The Strang kernel on every row of ψ's sectors, not only its cone."""
    sectors = evo._sectors
    monkeypatch.setattr(evo, "_sectors", lambda specs, v, extra_bytes,
                        layers: sectors(specs, v, extra_bytes))


class TestHalfCircuit:
    # amplitudes run layers 0..s-1 and the middle layer at half its τ and
    # read A = φ'ᵀφ; trotter_evolve reads the same layers forward and back
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
    @pytest.mark.parametrize("schedule", [(2, 4, 2, 4), (3, 1, 3, 1)],
                             ids=["middle-odd-group", "middle-even-group"])
    def test_matches_kronecker_circuit(self, rng, n, schedule):
        # real, complex and multi-sector states; schedules not monotone in
        # l, a t = 0 column; n=2 has no odd bond
        states = [real_sector_state(n, n // 2, rng),
                  random_sector_state(n, n // 2, rng),
                  multi_sector_state(n, rng)]
        amps = np.column_stack([dense(psi) for psi in states])
        times = np.array([1.3, 0.0, 3.4, 2.1])
        for spec in (random_spec(n, rng), random_spec(n, rng)):
            evolved = [sparse_strang(spec, t, s, amps)
                       for t, s in zip(times, schedule)]
            for col, psi in enumerate(states):
                for t, s, u_amps in zip(times, schedule, evolved):
                    np.testing.assert_allclose(
                        dense(trotter_evolve(spec, psi, t, s)),
                        u_amps[:, col], rtol=0, atol=1e-13)
                expected = [np.vdot(dense(psi), u_amps[:, col])
                            for u_amps in evolved]
                np.testing.assert_allclose(
                    amplitudes(spec, psi, times, schedule), expected,
                    rtol=0, atol=1e-13)

    @pytest.mark.parametrize("state,rows", [("domain-wall", 196),
                                            ("complex", 924)],
                             ids=["domain-wall", "complex"])
    def test_amplitudes_apply_half_the_gates(self, rng, monkeypatch, state,
                                             rows):
        # 12 qubits, the 12Q schedule: layers 0..3 are 5 + 6 + 5 + 6 = 22
        # gates per sample, where the whole circuit has 38; trotter_evolve
        # reads the list forward and back, 44 for s = 3.  The domain wall's
        # cone through layers 0..3 holds 196 of the sector's 924 states
        swept = watch_sweeps(monkeypatch)
        psi = (domain_wall(12) if state == "domain-wall"
               else random_sector_state(12, 6, rng))
        schedule = ExperimentConfig(k=11, schedule=SCHEDULE_12Q).feature_map(
        ).schedule
        specs = [random_spec(12, rng) for _ in range(3)]
        CountingPairs.slices = 0
        amplitude_rows(specs, psi, np.arange(12) * np.pi / 3, schedule)
        assert CountingPairs.slices == 3 * 22
        assert swept == [rows]
        CountingPairs.slices = 0
        trotter_evolve(specs[0], psi, 11 * np.pi / 3, 3)
        assert CountingPairs.slices == 2 * 22

    @pytest.mark.parametrize("n,rows", [(12, 196), (16, 1764), (20, 196)])
    def test_sweeps_the_light_cone(self, rng, monkeypatch, n, rows):
        # the 12Q schedule's 4 layers spread the domain wall's two walls,
        # on bond n/4 - 1 and its mirror; layer 0 already moves a wall on an
        # odd bond (n=16), so its cone is a layer deeper than on an even one
        # (n=12, 20); the couplings play no part
        swept = watch_sweeps(monkeypatch)
        schedule = ExperimentConfig(k=11, schedule=SCHEDULE_12Q).feature_map(
        ).schedule
        for spec in (random_spec(n, rng), random_spec(n, rng)):
            amplitude_rows([spec], domain_wall(n), np.arange(12) * np.pi / 3,
                           schedule)
        assert swept == [rows, rows]


class TestLightCone:
    # rows outside ψ's cone hold exact zeros through every gate, so the
    # amplitudes are the whole sectors' bit for bit; trotter_evolve is equal
    # by value (the whole-sector sweep may leave -0.0 outside the cone)
    @pytest.mark.parametrize("n", [8, 12, 16, 20])
    @pytest.mark.parametrize("schedule", [(1, 3, 2, 1), (2, 1, 3, 2)],
                             ids=["largest-at-odd-l", "largest-at-even-l"])
    def test_matches_whole_sectors(self, rng, monkeypatch, n, schedule):
        wall, q = "0" * (n // 4) + "1" * (n // 2) + "0" * (n // 4), n // 4
        states = {
            "real": domain_wall(n),
            "complex": basis_mix(n, {wall: 0.6, wall[1:] + "0": 0.8j}),
            "two-sector": basis_mix(n, {wall: 0.8, "0" * (q + 1) + "1" * (
                2 * q - 1) + "0" * q: -0.6j}),
        }
        specs = [random_spec(n, rng) for _ in range(2 if n < 20 else 1)]
        times = np.array([1.3, 0.0, 3.4, 2.1])

        def sweeps(psi):  # trotter_evolve's whole sectors are slow at n=20
            return (amplitude_rows(specs, psi, times, schedule), n < 20 and
                    dense(trotter_evolve(specs[0], psi, 2.9, 3)))
        cone = {name: sweeps(psi) for name, psi in states.items()}
        sweep_whole_sectors(monkeypatch)
        for name, psi in states.items():
            (amps, evolved), (whole, whole_evolved) = cone[name], sweeps(psi)
            assert whole.tobytes() == amps.tobytes(), name
            assert np.array_equal(whole_evolved, evolved), name


class TestExactEvolve:
    # exact evolution in the package is the amplitude layer without a
    # schedule: A(t) = <psi|e^{-iHt}|psi> from psi's spectral measure
    def test_reference_state_accumulates_phase_only(self, rng):
        for n in (2, 5):
            spec = random_spec(n, rng)
            times = np.array([0.0, 1.3, 4.2])
            expected = np.exp(-1j * sum(spec.couplings) * times)
            np.testing.assert_allclose(
                amplitudes(spec, basis_state(n, "0" * n), times), expected,
                atol=1e-12)

    def test_n2_singlet_triplet_closed_form(self):
        # (|01> ± |10>)/sqrt(2) are the triplet (λ = 1) and singlet (λ = -3)
        spec = CouplingSpec(n=2, couplings=(1.0,))
        times = np.array([0.3, 1.0, 2.7])
        for phase, lam in ((1, 1.0), (-1, -3.0)):
            psi = superpose(basis_state(2, "01"), basis_state(2, "10"), phase)
            np.testing.assert_allclose(amplitudes(spec, psi, times),
                                       np.exp(-1j * lam * times), atol=1e-12)

    def test_matches_dense_expm_oracle(self, rng):
        for n in (3, 4):
            spec = random_spec(n, rng)
            u = expm(-1j * 0.8 * dense_hamiltonian(spec))
            v = random_dense_state(n, rng)
            assert amplitudes(spec, v, 0.8)[0] == pytest.approx(
                np.vdot(dense(v), u @ dense(v)), abs=1e-10)

    def test_energy_conserved(self, rng):
        # the measure of psi(t) is that of psi, so <H> stays put
        spec = random_spec(4, rng)
        v = random_dense_state(4, rng)

        def energy(state):
            return spectral_sum([spec], state, lambda lam: lam)[0]

        e0 = energy(v)
        assert e0 == pytest.approx(
            np.vdot(dense(v), dense_hamiltonian(spec) @ dense(v)).real,
            abs=1e-12)
        for t in (0.5, 2.0, 7.0):
            assert abs(energy(exact_evolve(spec, v, t)) - e0) <= 1e-10

    def test_two_sector_superposition(self, rng):
        # evolution acts on each occupied sector independently, so the
        # cross terms of a two-sector superposition vanish
        spec = random_spec(4, rng)
        ref = basis_state(4, "0000")
        psi = domain_wall(4)
        times = np.array([0.4, 1.1, 2.9])
        expected = (amplitudes(spec, ref, times)
                    + amplitudes(spec, psi, times)) / 2
        np.testing.assert_allclose(
            amplitudes(spec, superpose(ref, psi, 1), times), expected,
            atol=1e-12)


class TestAmplitude:
    def test_t_zero_is_one(self, rng):
        spec = random_spec(5, rng)
        psi = random_sector_state(5, 2, rng)
        assert amplitudes(spec, psi, 0.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_n2_closed_form(self):
        spec = CouplingSpec(n=2, couplings=(1.0,))
        psi = basis_state(2, "01")
        times = np.array([0.4, np.pi / 3, 2.0])
        expected = (np.exp(-1j * times) + np.exp(3j * times)) / 2
        assert np.max(np.abs(amplitudes(spec, psi, times) - expected)) <= 1e-12

    def test_modulus_bounded(self, rng):
        spec = random_spec(5, rng)
        psi = random_sector_state(5, 3, rng)
        assert np.all(np.abs(amplitudes(spec, psi, np.linspace(0, 12, 25)))
                      <= 1.0 + 1e-10)

    def test_agrees_with_evolution_inner_product(self, rng):
        for n in (2, 4, 5):
            spec = random_spec(n, rng)
            psi = random_dense_state(n, rng)
            times = (0.7, 3.1)
            for t, a in zip(times, amplitudes(spec, psi, times)):
                via_evolve = inner(psi, exact_evolve(spec, psi, t))
                assert a == pytest.approx(via_evolve, abs=1e-10)

    def test_schedule_runs_the_strang_circuit(self, rng):
        spec = random_spec(4, rng)
        psi = random_sector_state(4, 2, rng)
        times = np.array([0.0, 0.9, 2.5])
        schedule = (1, 2, 3)
        expected = [inner(psi, trotter_evolve(spec, psi, t, s))
                    for t, s in zip(times, schedule)]
        np.testing.assert_allclose(amplitudes(spec, psi, times, schedule),
                                   expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_times, n_steps", [(3, 5), (4, 2)])
    def test_schedule_length_must_match_times(self, rng, n_times, n_steps):
        spec = random_spec(4, rng)
        schedule = (1,) * n_steps
        with pytest.raises(ConfigError, match=f"{n_steps} .* {n_times} times"):
            amplitudes(spec, domain_wall(4), np.linspace(0, 2, n_times),
                       schedule)

    @pytest.mark.parametrize("schedule", [(1, 0, 1), (1, 1, -2)])
    def test_schedule_refuses_nonpositive_steps(self, rng, schedule):
        spec = random_spec(4, rng)
        with pytest.raises(ConfigError, match="must be >= 1"):
            amplitudes(spec, domain_wall(4), [0.0, 1.0, 2.0], schedule)


class TestTrotterSchedule:
    # the schedule is parsed once, by ExperimentConfig.feature_map, into the
    # tuple FeatureMapConfig checks
    def test_parse_render_roundtrip(self):
        sched = ExperimentConfig(k=11, schedule=SCHEDULE_12Q).feature_map(
        ).schedule
        assert sched == (1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3)
        assert ",".join(map(str, sched)) == "1,1,1,1,1,2,2,2,2,3,3,3"

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ConfigError, match="must be >= 1"):
            FeatureMapConfig(K=2, C=3.0, schedule=(1, 0, 2))
        with pytest.raises(ConfigError, match="must be >= 1"):
            ExperimentConfig(k=2, schedule="1,0,2").feature_map()

    def test_rejects_non_integer_token(self):
        with pytest.raises(ConfigError, match="comma-separated ints"):
            ExperimentConfig(k=2, schedule="1,x,2").feature_map()
