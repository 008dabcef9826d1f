import numpy as np
import pytest
from scipy.linalg import expm

from hamfourier.evolution import (
    TrotterSchedule,
    amplitudes,
    exact_evolve,
    heisenberg_gate,
    trotter_evolve,
)
from hamfourier.hamiltonians import (
    CouplingSpec,
    ResourceLimitError,
    apply_hamiltonian,
)
from hamfourier.states import (
    StateVector,
    basis_state,
    domain_wall,
    inner,
    superpose,
)

from conftest import (
    IDENTITY,
    dense_hamiltonian,
    kron_chain,
    random_dense_state,
    random_sector_state,
    random_spec,
)

BOND = dense_hamiltonian(CouplingSpec(n=2, couplings=(1.0,)))  # XX+YY+ZZ, 4x4


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
        np.testing.assert_allclose(out.amplitudes, v.amplitudes, atol=1e-14)

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
        np.testing.assert_allclose(trotter_evolve(spec, v, t, 1).amplitudes,
                                   u @ v.amplitudes, atol=1e-12)

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
        assert np.linalg.norm(exact.amplitudes - approx.amplitudes) <= 1e-3

    def test_second_order_convergence_slope(self, rng):
        spec = random_spec(4, rng)
        v = domain_wall(4)
        exact = exact_evolve(spec, v, 1.0).amplitudes
        steps = np.array([4, 8, 16, 32])
        errs = [np.linalg.norm(exact - trotter_evolve(spec, v, 1.0, s).amplitudes)
                for s in steps]
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.3)

    def test_sector_weights_preserved_exactly(self, rng):
        spec = random_spec(4, rng)
        out = trotter_evolve(spec, domain_wall(4), 1.7, 5)
        for idx in np.nonzero(out.amplitudes)[0]:
            assert int(idx).bit_count() == 2

    def test_invalid_step_count(self, rng):
        with pytest.raises(ValueError):
            trotter_evolve(random_spec(4, rng), domain_wall(4), 1.0, 0)


def strang_oracle(spec, t, n_step):
    """The full 2^n Strang circuit as a product of np.kron-expanded expm
    bond gates, independent of the sector kernel."""
    n, dt = spec.n, t / n_step
    step = np.eye(2**n, dtype=complex)
    for parity, tau in ((1, dt / 2), (0, dt), (1, dt / 2)):
        for m, j in enumerate(spec.couplings):
            if m % 2 == parity:
                ops = [IDENTITY] * (n - 1)
                ops[m] = expm(-1j * j * tau * BOND)
                step = kron_chain(ops) @ step
    return np.linalg.matrix_power(step, n_step)


def multi_sector_state(n, rng):
    """A state on three or four sectors, |0...0> and |1...1> included, with
    relative phases 1, -1, i, -i."""
    amps = sum(phase * random_sector_state(n, k, rng).amplitudes
               for phase, k in zip((1, -1, 1j, -1j), (0, 1, n // 2, n)))
    return StateVector(n=n, amplitudes=amps / np.linalg.norm(amps))


class TestStrangKernel:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_kronecker_circuit(self, rng, n):
        spec = random_spec(n, rng)
        psi = multi_sector_state(n, rng)
        times = np.array([0.0, 2.3, 0.9, 3.7])
        schedule = TrotterSchedule(steps=(3, 1, 2, 1))
        oracles = [strang_oracle(spec, t, s)
                   for t, s in zip(times, schedule.steps)]
        for t, s, u in zip(times, schedule.steps, oracles):
            np.testing.assert_allclose(
                trotter_evolve(spec, psi, t, s).amplitudes,
                u @ psi.amplitudes, rtol=0, atol=1e-13)
        expected = [np.vdot(psi.amplitudes, u @ psi.amplitudes)
                    for u in oracles]
        np.testing.assert_allclose(amplitudes(spec, psi, times, schedule),
                                   expected, rtol=0, atol=1e-13)

    def test_broadcast_gate_equals_scalar_gates(self, rng):
        j = rng.uniform(-1, 1, size=5)
        dt = np.concatenate([[0.0], rng.uniform(-4, 4, size=6)])
        stacked = np.array([[heisenberg_gate(a, b) for b in dt] for a in j])
        np.testing.assert_array_equal(heisenberg_gate(j[:, None], dt), stacked)


class TestExactEvolve:
    def test_reference_state_accumulates_phase_only(self, rng):
        for n in (2, 5):
            spec = random_spec(n, rng)
            v = basis_state(n, "0" * n)
            t = 1.3
            out = exact_evolve(spec, v, t)
            lam = sum(spec.couplings)
            expected = np.exp(-1j * lam * t) * v.amplitudes
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_n2_singlet_triplet_closed_form(self):
        spec = CouplingSpec(n=2, couplings=(1.0,))
        v01 = basis_state(2, "01")
        for t in (0.3, 1.0, 2.7):
            out = exact_evolve(spec, v01, t)
            expected = np.zeros(4, dtype=complex)
            expected[1] = (np.exp(-1j * t) + np.exp(3j * t)) / 2
            expected[2] = (np.exp(-1j * t) - np.exp(3j * t)) / 2
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_matches_dense_expm_oracle(self, rng):
        for n in (3, 4):
            spec = random_spec(n, rng)
            u = expm(-1j * 0.8 * dense_hamiltonian(spec))
            v = random_dense_state(n, rng)
            np.testing.assert_allclose(exact_evolve(spec, v, 0.8).amplitudes,
                                       u @ v.amplitudes, atol=1e-10)

    def test_energy_conserved(self, rng):
        spec = random_spec(4, rng)
        v = random_dense_state(4, rng)
        e0 = np.vdot(v.amplitudes, apply_hamiltonian(spec, v)).real
        for t in (0.5, 2.0, 7.0):
            vt = exact_evolve(spec, v, t)
            et = np.vdot(vt.amplitudes, apply_hamiltonian(spec, vt)).real
            assert abs(et - e0) <= 1e-10

    def test_two_sector_superposition(self, rng):
        # evolution acts on each occupied sector independently
        spec = random_spec(4, rng)
        ref = basis_state(4, "0000")
        psi = domain_wall(4)
        plus = superpose(ref, psi, 1)
        t = 1.1
        out = exact_evolve(spec, plus, t)
        expected = (exact_evolve(spec, ref, t).amplitudes
                    + exact_evolve(spec, psi, t).amplitudes) / np.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_sector_cap_propagates(self, rng):
        spec = random_spec(18, rng)
        v = random_sector_state(18, 9, rng)
        with pytest.raises(ResourceLimitError):
            exact_evolve(spec, v, 1.0)


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
        schedule = TrotterSchedule.parse("1,2,3")
        expected = [inner(psi, trotter_evolve(spec, psi, t, s))
                    for t, s in zip(times, schedule.steps)]
        np.testing.assert_allclose(amplitudes(spec, psi, times, schedule),
                                   expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_times, n_steps", [(3, 5), (4, 2)])
    def test_schedule_length_must_match_times(self, rng, n_times, n_steps):
        spec = random_spec(4, rng)
        schedule = TrotterSchedule(steps=(1,) * n_steps)
        with pytest.raises(ValueError, match=f"{n_steps} .* {n_times} times"):
            amplitudes(spec, domain_wall(4), np.linspace(0, 2, n_times),
                       schedule)


class TestTrotterSchedule:
    def test_parse_render_roundtrip(self):
        sched = TrotterSchedule.parse("1,1,1,1,1,2,2,2,2,3,3,3")
        assert len(sched) == 12
        assert sched[5] == 2
        assert sched.render() == "1,1,1,1,1,2,2,2,2,3,3,3"

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            TrotterSchedule(steps=(1, 0, 2))
