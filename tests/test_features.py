import itertools
import tracemalloc

import numpy as np
import pytest

from hamfourier.evolution import amplitudes
from hamfourier.features import (
    OVERLAP_NAMES,
    ConfigError,
    FeatureMapConfig,
    estimate,
    feature_rows,
    feature_vector,
    overlap_frequencies,
    overlap_reference,
    overlaps_from_amplitudes,
    reconstruct_amplitudes,
)
from hamfourier.hamiltonians import CouplingSpec
from hamfourier.pipeline import SCHEDULE_12Q, ExperimentConfig
from hamfourier.states import basis_state, domain_wall

from conftest import (
    dense,
    dense_hamiltonian,
    exact_evolve,
    inner,
    random_sector_state,
    random_spec,
    superpose,
)


def overlaps_at(spec, psi, times):
    """The four exact w's (columns in OVERLAP_NAMES order) at every time."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return overlaps_from_amplitudes(amplitudes(spec, psi, times),
                                    overlap_reference(spec, psi), times)


def quadrature_oracle(spec, psi, k_order, c_bound):
    """Feature vector computed from the dense Kronecker Hamiltonian:
    x_cos,l = sum_l p cos(l pi lam / C), x_sin,l = -sum_l p sin(...)."""
    evals, evecs = np.linalg.eigh(dense_hamiltonian(spec))
    p = np.abs(evecs.conj().T @ dense(psi)) ** 2
    x = np.empty(2 * k_order + 1)
    x[0] = np.sum(p * np.cos(0 * evals))
    for l in range(1, k_order + 1):
        arg = l * np.pi * evals / c_bound
        x[2 * l - 1] = -np.sum(p * np.sin(arg))
        x[2 * l] = np.sum(p * np.cos(arg))
    return x


class TestFeatureMapConfig:
    def test_times(self):
        cfg = FeatureMapConfig(K=3, C=3.0)
        np.testing.assert_allclose(cfg.times(),
                                   [0, np.pi / 3, 2 * np.pi / 3, np.pi])

    def test_schedule_length_must_match(self):
        with pytest.raises(ConfigError, match="need K\\+1 = 4"):
            FeatureMapConfig(K=3, C=3.0, schedule=(1, 1))

    @pytest.mark.parametrize("kwargs", [
        dict(K=-1, C=3.0),
        dict(K=2, C=0.0),
        dict(K=2, C=3.0, backend="qpu"),
        dict(K=2, C=3.0, n_shot=-5),
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            FeatureMapConfig(**kwargs)


class TestExactFeatures:
    def test_vector_length_and_x0(self, rng):
        spec = random_spec(4, rng)
        x = feature_vector(spec, domain_wall(4), FeatureMapConfig(K=11, C=3.0))
        assert x.shape == (23,)
        assert x[0] == pytest.approx(1.0, abs=1e-10)

    def test_n2_first_harmonic(self):
        # A(pi/3) = (e^{-i pi/3} + e^{i pi})/2 -> cos part -1/4, sin part -sqrt(3)/4
        spec = CouplingSpec(n=2, couplings=(1.0,))
        x = feature_vector(spec, basis_state(2, "01"), FeatureMapConfig(K=1, C=3.0))
        assert x[2] == pytest.approx(-0.25, abs=1e-10)
        assert x[1] == pytest.approx(-np.sqrt(3) / 4, abs=1e-10)

    def test_interleaving_against_dense_oracle(self, rng):
        for n in (2, 3, 4):
            spec = random_spec(n, rng)
            psi = random_sector_state(n, 1, rng)
            cfg = FeatureMapConfig(K=2, C=3.0)
            np.testing.assert_allclose(feature_vector(spec, psi, cfg),
                                       quadrature_oracle(spec, psi, 2, 3.0),
                                       atol=1e-10)

    def test_entries_bounded(self, rng):
        for _ in range(5):
            spec = random_spec(5, rng)
            psi = random_sector_state(5, 2, rng)
            x = feature_vector(spec, psi, FeatureMapConfig(K=6, C=3.0))
            assert np.all(np.abs(x) <= 1.0 + 1e-10)

    def test_rejects_small_spectral_window(self, rng):
        spec = random_spec(4, rng)  # spectral bound 3
        with pytest.raises(ConfigError):
            feature_vector(spec, domain_wall(4), FeatureMapConfig(K=2, C=2.0))

    def test_forty_qubits_build_no_dense_vector(self, rng):
        # the domain wall is one basis index, and the 12-qubit schedule's
        # half circuit sweeps its cone of 1,764 states, about 2 MB at the
        # peak; a vector of 2^40 amplitudes would take 17.6 TB
        cfg = ExperimentConfig(n=40, k=11, schedule=SCHEDULE_12Q).feature_map()
        specs = [random_spec(40, rng) for _ in range(5)]
        tracemalloc.start()
        try:
            x = feature_rows(specs, domain_wall(40), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak
        assert np.all(x[:, 0] == 1.0)
        amps = x[:, 0::2] + 1j * np.pad(x[:, 1::2], ((0, 0), (1, 0)))
        assert np.all(np.abs(amps) <= 1.0 + 1e-12)


class TestExactOverlaps:
    def test_t_zero_peaks(self, rng):
        spec = random_spec(4, rng)
        (w,) = overlaps_at(spec, domain_wall(4), 0.0)
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert w[1] == pytest.approx(0.0, abs=1e-12)
        assert w[2] == pytest.approx(0.5, abs=1e-12)
        assert w[3] == pytest.approx(0.5, abs=1e-12)

    def test_values_in_unit_interval(self, rng):
        spec = random_spec(5, rng)
        psi = random_sector_state(5, 2, rng)
        w = overlaps_at(spec, psi, np.linspace(0, np.pi, 17))
        assert w.shape == (17, 4)
        assert np.all((-1e-12 <= w) & (w <= 1.0 + 1e-12))

    def test_sum_rule(self, rng):
        spec = random_spec(5, rng)
        psi = random_sector_state(5, 3, rng)
        times = np.array([0.3, 1.7, 3.0])
        w = overlaps_at(spec, psi, times)
        half = (1 + np.abs(amplitudes(spec, psi, times)) ** 2) / 2
        assert np.all(np.abs(w[:, 0] + w[:, 1] - half) <= 1e-10)
        assert np.all(np.abs(w[:, 2] + w[:, 3] - half) <= 1e-10)

    def test_matches_explicit_superposition_evolution(self, rng):
        # oracle: evolve psi_+ as a statevector and project on the four
        # superpositions directly
        for n in (2, 4, 6):
            spec = random_spec(n, rng)
            k = rng.integers(1, n + 1)
            psi = random_sector_state(n, int(k), rng)
            ref_state = basis_state(n, "0" * n)
            plus = superpose(ref_state, psi, 1)
            t = float(rng.uniform(0, np.pi))
            evolved = exact_evolve(spec, plus, t)
            (w,) = overlaps_at(spec, psi, t)
            targets = [superpose(ref_state, psi, phase)
                       for phase in (1, -1, 1j, -1j)]  # OVERLAP_NAMES order
            for name, target, value in zip(OVERLAP_NAMES, targets, w):
                oracle = abs(inner(target, evolved)) ** 2
                assert value == pytest.approx(oracle, abs=1e-10), name

    def test_orthogonality_enforced(self, rng):
        spec = random_spec(3, rng)
        with pytest.raises(ValueError):
            overlap_reference(spec, basis_state(3, "000"))


class TestReconstructAmplitude:
    def test_t_zero(self):
        w = np.array([[1.0, 0.0, 0.5, 0.5]])
        assert reconstruct_amplitudes(w, 0.37, [0.0])[0] == pytest.approx(
            1.0 + 0j, abs=1e-15)

    def test_identity_over_random_instances(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            spec = random_spec(n, rng)
            psi = random_sector_state(n, int(rng.integers(1, n + 1)), rng)
            t = float(rng.uniform(0, np.pi))
            rec = reconstruct_amplitudes(overlaps_at(spec, psi, t),
                                         overlap_reference(spec, psi), [t])
            assert abs(rec[0] - amplitudes(spec, psi, t)[0]) <= 1e-10

    def test_perturbation_bound(self, rng):
        # worst-case |delta| over the corner grid of per-coordinate shifts
        # is 2*sqrt(2)*eta (each quadrature moves by at most 2 eta)
        spec = random_spec(4, rng)
        lambda_ref = overlap_reference(spec, domain_wall(4))
        w = overlaps_at(spec, domain_wall(4), 1.2)
        base = reconstruct_amplitudes(w, lambda_ref, [1.2])[0]
        eta = 0.05
        shifts = np.array(list(itertools.product((-eta, 0, eta), repeat=4)))
        shifted = reconstruct_amplitudes(w + shifts, lambda_ref,
                                         np.full(len(shifts), 1.2))
        worst = float(np.max(np.abs(shifted - base)))
        assert worst <= 2 * np.sqrt(2) * eta + 1e-12
        assert worst == pytest.approx(2 * np.sqrt(2) * eta, rel=1e-9)


class TestSampleOverlaps:
    # rows of w are time indices l, each circuit (l, c) with its own
    # substream, so a tall w gives one independent draw per row
    SEED = 20260811

    def test_degenerate_probability_stays_exact(self):
        w = np.array([[1.0, 0.0, 0.5, 0.5]])
        for n_shot in (1, 10, 1000):
            est = overlap_frequencies(w, n_shot, self.SEED, n_shot)
            assert est[0, 0] == 1.0
            assert est[0, 1] == 0.0

    def test_unbiased(self):
        exact = np.array([0.3, 0.45, 0.8, 0.05])
        reps, n_shot = 10_000, 64
        est = overlap_frequencies(np.tile(exact, (reps, 1)), n_shot, self.SEED, 0)
        means = est.mean(axis=0)
        stderr = np.sqrt(exact * (1 - exact) / n_shot / reps)
        assert np.all(np.abs(means - exact) <= 3 * stderr)

    def test_hoeffding_coverage(self):
        # failure rate of |w_hat - w| > eta stays below 2 exp(-2 N eta^2)
        n_shot, eta, trials = 200, 0.1, 4000
        bound = 2 * np.exp(-2 * n_shot * eta**2)  # 0.0366
        est = overlap_frequencies(np.full((trials, 4), 0.3), n_shot, self.SEED, 0)
        fails = int(np.sum(np.abs(est[:, 0] - 0.3) > eta))
        rate = fails / trials
        assert rate <= bound + 3 * np.sqrt(bound / trials)

    def test_requires_shots(self):
        with pytest.raises(ValueError):
            overlap_frequencies(np.array([[1.0, 0.0, 0.5, 0.5]]), 0, self.SEED, 0)


class TestHadamardEstimate:
    # the Hadamard readout of estimate on a column of amplitudes (K = 0):
    # one row per repetition, each with its own substreams
    SEED = 20260811

    def hadamard(self, amps, n_shot):
        cfg = FeatureMapConfig(K=0, C=3.0, backend="hadamard-shots",
                               n_shot=n_shot, seed=self.SEED)
        amps = np.asarray(amps, dtype=complex).reshape(-1, 1)
        return estimate(amps, cfg, np.arange(len(amps)))[:, 0]

    def test_extreme_amplitude_is_deterministic(self):
        est = self.hadamard([1.0 + 0j, -1j], 50)
        assert est[0].real == 1.0
        assert est[1].imag == -1.0

    def test_zero_amplitude_statistics(self):
        n_shot, reps = 400, 2000
        vals = self.hadamard(np.zeros(reps), n_shot).real
        assert abs(vals.mean()) <= 3 / np.sqrt(n_shot * reps)
        assert vals.std() == pytest.approx(1 / np.sqrt(n_shot), rel=0.1)

    def test_unbiased_both_parts(self):
        a = 0.3 - 0.55j
        n_shot, reps = 128, 8000
        est = self.hadamard(np.full(reps, a), n_shot)
        for vals, target in ((est.real, a.real), (est.imag, a.imag)):
            stderr = np.sqrt((1 - target**2) / n_shot / reps)
            assert abs(np.mean(vals) - target) <= 3 * stderr

    def test_rejects_super_unit_amplitude(self):
        with pytest.raises(ValueError):
            self.hadamard([1.1 + 0j], 10)


class TestNoisyFeatures:
    def test_zero_noise_limit_equals_exact(self, rng):
        # with n_shot = 0 the noise layer returns A unchanged
        spec = random_spec(4, rng)
        psi = domain_wall(4)
        exact = feature_vector(spec, psi, FeatureMapConfig(K=4, C=3.0))
        for backend in ("overlap-shots", "hadamard-shots"):
            cfg = FeatureMapConfig(K=4, C=3.0, backend=backend, n_shot=0)
            np.testing.assert_array_equal(feature_vector(spec, psi, cfg), exact)

    def test_paper_protocol_shape(self, rng):
        spec = random_spec(12, rng)
        cfg = FeatureMapConfig(
            K=11, C=3.0, backend="overlap-shots", n_shot=256,
            schedule=(1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3), seed=5)
        x = feature_vector(spec, domain_wall(12), cfg)
        assert x.shape == (23,)
        assert np.all(np.isfinite(x))
        # overlap backend can overshoot [-1, 1] but never sqrt(2)
        assert np.all(np.abs(x) <= np.sqrt(2) + 1e-12)

    def test_deterministic_given_seed(self, rng):
        spec = random_spec(4, rng)
        psi = domain_wall(4)
        for backend in ("overlap-shots", "hadamard-shots"):
            cfg = FeatureMapConfig(K=3, C=3.0, backend=backend, n_shot=100,
                                   seed=123)
            a = feature_vector(spec, psi, cfg, sample_index=4)
            b = feature_vector(spec, psi, cfg, sample_index=4)
            np.testing.assert_array_equal(a, b)

    def test_distinct_samples_get_distinct_streams(self, rng):
        spec = random_spec(4, rng)
        psi = domain_wall(4)
        cfg = FeatureMapConfig(K=3, C=3.0, backend="overlap-shots", n_shot=40,
                               seed=9)
        a = feature_vector(spec, psi, cfg, sample_index=0)
        b = feature_vector(spec, psi, cfg, sample_index=1)
        assert not np.array_equal(a, b)

    def test_hadamard_estimates_near_exact_at_large_shots(self, rng):
        spec = random_spec(4, rng)
        psi = domain_wall(4)
        cfg = FeatureMapConfig(K=3, C=3.0, backend="hadamard-shots",
                               n_shot=200_000, seed=17)
        x = feature_vector(spec, psi, cfg)
        exact = feature_vector(spec, psi, FeatureMapConfig(K=3, C=3.0))
        assert np.max(np.abs(x - exact)) <= 0.02

    def test_x0_is_computed_and_lands_on_one(self, rng):
        # t = 0 probabilities are degenerate, so the estimate is exactly 1
        spec = random_spec(4, rng)
        cfg = FeatureMapConfig(K=2, C=3.0, backend="overlap-shots", n_shot=7,
                               seed=3)
        x = feature_vector(spec, domain_wall(4), cfg)
        assert x[0] == 1.0

    def test_requires_shot_backend(self):
        # the exact backend has no readout to sample: shots are refused,
        # not silently ignored
        with pytest.raises(ConfigError, match="exact"):
            FeatureMapConfig(K=2, C=3.0, backend="exact", n_shot=10)

    def test_overlap_estimate_needs_the_reference_eigenvalues(self):
        # the recombination phase e^{-i λ_ref t} cannot be guessed
        cfg = FeatureMapConfig(K=1, C=3.0, backend="overlap-shots", n_shot=5)
        with pytest.raises(ConfigError, match="needs lambda_ref"):
            estimate(np.ones((1, 2), dtype=complex), cfg, [0])

    def test_hadamard_coverage_at_prescribed_budget(self, rng):
        # N_shot = hoeffding_shots(0.05, 0.05, 11) = 5460 keeps all 23
        # estimates within 0.05 for >= 95% of seeds
        from hamfourier.bounds import hoeffding_shots

        eta, k_order = 0.05, 11
        n_shot = hoeffding_shots(eta, 0.05, k_order)
        assert n_shot == 5460
        psi = basis_state(6, "000111")
        cfg_exact = FeatureMapConfig(K=k_order, C=3.0)
        hits = 0
        seeds = 100
        for seed in range(seeds):
            spec = random_spec(6, rng)
            x = feature_vector(spec, psi, cfg_exact)
            cfg = FeatureMapConfig(K=k_order, C=3.0, backend="hadamard-shots",
                                   n_shot=n_shot, seed=seed)
            x_tilde = feature_vector(spec, psi, cfg)
            hits += np.max(np.abs(x_tilde - x)) <= eta
        assert hits >= 0.95 * seeds


class TestOverlapsFromAmplitude:
    def test_reconstruction_roundtrip(self, rng):
        for _ in range(20):
            a = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            if abs(a) > 1:
                a /= abs(a) * 1.01
            lam, t = rng.uniform(-3, 3), rng.uniform(0, np.pi)
            w = overlaps_from_amplitudes(np.array([a]), lam, [t])
            assert w.shape == (1, 4)
            assert reconstruct_amplitudes(w, lam, [t])[0] == pytest.approx(
                a, abs=1e-12)
