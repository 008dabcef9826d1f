"""Batched layers against their batch of one, bit for bit.

feature_rows, label_rows and amplitude_rows take a batch of specs; the
single-sample calls are batches of one.  Features and smooth labels run
chunks of hamiltonians.STACK_ENTRIES // 3d samples in lockstep through
their Chebyshev moments; step labels are diagonalized per total-spin
block, in stacks of samples whose blocks hold at most STACK_ENTRIES
entries.  So batches just below, at and above a chunk or stack boundary
must give every row exactly as the sample alone does, across n = 4..10,
states on several sectors with phases ±1 and ±i, every backend with and
without a schedule, and step, exp and fourier labels; n = 12 checks the
real chunks, with a chain of zero couplings, whose half-width 0 splits its
chunk, and one coupled on bond 0 alone.  test_lanczos_chunk_boundaries
keeps the name of the Lanczos test it replaced."""

import math

import numpy as np
import pytest

import hamfourier.hamiltonians as hm
from hamfourier.evolution import amplitude_rows
from hamfourier.features import FeatureMapConfig, feature_rows, feature_vector
from hamfourier.labels import FunctionSpec, label_rows
from hamfourier.pipeline import ExperimentConfig, cmd_features, json_17g
from hamfourier.states import basis_state, domain_wall

from conftest import (dense_measure, random_sector_state, random_spec,
                      spin_dims, superpose)

STACK = 3  # samples per stack of the largest dense sector (through the constant)
K, C = 3, 3.0


def batch_sizes(stack):
    return (1, stack - 1, stack, stack + 1, 2 * stack + 3)


def mixed_states(n, rng):
    """States on two sectors, none touching |0...0>, with phases ±1, ±i:
    a half-filled or nearly half-filled sector beside a small one, two
    large ones, and two small ones."""
    wall = basis_state(n, "1" * (n // 2) + "0" * (n - n // 2))
    single = basis_state(n, "0" * (n - 1) + "1")
    return {
        "wall-single": superpose(wall, single, -1),
        "pair+i": superpose(random_sector_state(n, n // 2, rng),
                            random_sector_state(n, 1, rng), 1j),
        "pair-i": superpose(random_sector_state(n, n // 2 - 1, rng),
                            random_sector_state(n, n // 2, rng), -1j),
        "single-double": superpose(
            single, basis_state(n, "0" * (n - 2) + "11"), 1),
    }


def spin_entries(n, k):
    """Entries of one sample's spin blocks in sector k: sum_S d_S²."""
    return sum(d * d for d in spin_dims(n, k))


def sectors(psi):
    return {int(i).bit_count() for i in psi.support}


def chunk_entries(n, psi):
    """STACK_ENTRIES per sample of the largest chunk of moments: 3d."""
    return max(3 * math.comb(n, k) for k in sectors(psi))


def largest_dense_entries(n, psi):
    return max(spin_entries(n, k) for k in sectors(psi))


@pytest.fixture
def small_stacks(monkeypatch):
    """Chunks or stacks of STACK samples for a sector with the given
    entries per sample."""
    def set_entries(entries):
        monkeypatch.setattr(hm, "STACK_ENTRIES", STACK * entries)
    return set_entries


CONFIGS = {  # every backend with and without a schedule
    f"{backend}{'+schedule' if schedule else ''}": FeatureMapConfig(
        K=K, C=C, backend=backend, n_shot=0 if backend == "exact" else 50,
        seed=11, schedule=schedule)
    for backend in ("exact", "hadamard-shots", "overlap-shots")
    for schedule in (None, (1, 2, 1, 3))
}


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_feature_rows_equal_single_samples(n, rng, small_stacks):
    specs = [random_spec(n, rng) for _ in range(2 * STACK + 3)]
    for name, psi in mixed_states(n, rng).items():
        small_stacks(chunk_entries(n, psi))
        singles = {key: np.array([feature_vector(s, psi, cfg, b + 40)
                                  for b, s in enumerate(specs)])
                   for key, cfg in CONFIGS.items()}
        for size in batch_sizes(STACK):
            for key, cfg in CONFIGS.items():
                rows = feature_rows(specs[:size], psi, cfg,
                                    np.arange(size) + 40)
                np.testing.assert_array_equal(rows, singles[key][:size],
                                              err_msg=f"{name} {key} B={size}")


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_label_rows_equal_single_samples(n, rng, small_stacks):
    specs = [random_spec(n, rng) for _ in range(2 * STACK + 3)]
    coeffs = rng.normal(size=2 * K + 1)
    targets = [FunctionSpec("exp", C, 1.0), FunctionSpec(
        "fourier", C, coeffs=coeffs / np.linalg.norm(coeffs))]
    if n < 10:  # a step is dense in every sector
        targets.append(FunctionSpec("step", C, 0.1))
    for name, psi in mixed_states(n, rng).items():
        for fspec in targets:
            small_stacks(largest_dense_entries(n, psi) if fspec.kind == "step"
                         else chunk_entries(n, psi))
            singles = np.array([label_rows([s], psi, fspec)[0] for s in specs])
            for size in batch_sizes(STACK):
                np.testing.assert_array_equal(
                    label_rows(specs[:size], psi, fspec), singles[:size],
                    err_msg=f"{name} {fspec.kind} B={size}")


def test_default_stack_boundaries(rng):
    # the real constant at n = 8 for step labels: the half-filled sector
    # (d = 70, spin blocks 14/28/20/7/1) stacks 22 samples, the k = 3 one
    # (28/20/7/1) 26; the features' moments run in chunks of 156 and 192
    psi = superpose(domain_wall(8), basis_state(8, "00000111"), 1j)
    cfg = FeatureMapConfig(K=K, C=C, backend="hadamard-shots", n_shot=20,
                           seed=2)
    stack = hm.STACK_ENTRIES // spin_entries(8, 4)
    assert stack == 22 and hm.STACK_ENTRIES // spin_entries(8, 3) == 26
    specs = [random_spec(8, rng) for _ in range(2 * stack + 3)]
    singles = np.array([feature_vector(s, psi, cfg, b)
                        for b, s in enumerate(specs)])
    step = FunctionSpec("step", C, 0.1)
    labels = np.array([label_rows([s], psi, step)[0] for s in specs])
    for size in batch_sizes(stack):
        np.testing.assert_array_equal(feature_rows(specs[:size], psi, cfg),
                                      singles[:size])
        np.testing.assert_array_equal(
            label_rows(specs[:size], psi, step), labels[:size])


@pytest.mark.parametrize("phase", [None, 1j, -1j])
def test_lanczos_chunk_boundaries(phase, rng):
    # the real constant at n = 12 runs the half-filled sector (d = 924) in
    # chunks of 11 samples and the k = 5 one (d = 792), imaginary in the ±i
    # states, in chunks of 13.  A chain of zero couplings has half-width 0,
    # so it runs alone on one moment; a chain coupled on bond 0 alone keeps
    # both basis components eigenvectors (bits 11 and 00 on qubits 0, 1)
    # and runs in its chunk
    chunk = hm.STACK_ENTRIES // (3 * math.comb(12, 6))
    assert chunk == 11
    specs = [random_spec(12, rng) for _ in range(2 * chunk + 3)]
    specs[1] = specs[chunk + 1] = hm.CouplingSpec(12, (0.0,) * 11)
    specs[2] = specs[chunk] = hm.CouplingSpec(12, (1.0,) + (0.0,) * 10)
    wall = domain_wall(12)
    psi = wall if phase is None else superpose(
        wall, basis_state(12, "0" * 7 + "1" * 5), phase)
    times = np.arange(K + 1) * np.pi / C
    exp = FunctionSpec("exp", C, 1.0)
    singles = np.array([amplitude_rows([s], psi, times)[0] for s in specs])
    labels = np.array([label_rows([s], psi, exp)[0] for s in specs])
    for size in batch_sizes(chunk)[1:]:
        np.testing.assert_array_equal(amplitude_rows(specs[:size], psi, times),
                                      singles[:size], err_msg=f"B={size}")
        np.testing.assert_array_equal(label_rows(specs[:size], psi, exp),
                                      labels[:size], err_msg=f"B={size}")
    records = hm.spectral_measures(specs[:3], psi, exp.exponentials())
    runs = [(len(rec.centre), rec.order) for rec in records]
    assert runs[:3] == [(1, runs[0][1]), (1, 1), (1, runs[0][1])]
    assert runs[0][1] > 1


def test_deep_quadrature_matches_dense_oracle(rng):
    # K = 60 puts t up to 20π, so the features take 199 moments (99
    # products of H), each within its bound
    times = np.arange(61) * np.pi / C
    specs = [random_spec(12, rng) for _ in range(3)]
    psi = domain_wall(12)
    dense = [dense_measure(spec, psi) for spec in specs]
    rows = amplitude_rows(specs, psi, times)
    targets = [FunctionSpec("exp", C, 1.0), FunctionSpec("cos", C, 2.3)]
    ys = [label_rows(specs, psi, fspec) for fspec in targets]
    for b, measure in enumerate(dense):
        oracle = sum(np.exp(-1j * np.outer(times, evals)) @ p
                     for evals, p in measure)
        assert np.max(np.abs(rows[b] - oracle)) <= 1e-13
        for fspec, y in zip(targets, ys):
            y_dense = sum(np.sum(p * fspec(evals)) for evals, p in measure)
            assert abs(y[b] - y_dense) <= 1e-13
    phases = hm.ExponentialSum(-1j * times, np.eye(len(times)))
    (rec,) = hm.spectral_measures(specs, psi, phases)
    assert rec.order == 199 and rec.bound <= hm.MOMENT_TOL


@pytest.mark.parametrize("n", [6, 10])
def test_batch_matches_dense_oracle(n, rng, small_stacks):
    small_stacks(spin_entries(6, 3))
    times = np.arange(K + 1) * np.pi / C
    specs = [random_spec(n, rng) for _ in range(2 * STACK + 3)]
    for psi in mixed_states(n, rng).values():
        rows = amplitude_rows(specs, psi, times)
        for spec, row in zip(specs, rows):
            oracle = sum(np.exp(-1j * np.outer(times, evals)) @ p
                         for evals, p in dense_measure(spec, psi))
            assert np.max(np.abs(row - oracle)) <= 1e-13


def test_dataset_mixing_states(tmp_path, rng):
    # rows of different states (and qubit counts) are batched per state and
    # keep their row index as the sample index of their shot streams
    states = ["domain_wall", {"basis": "0101"}, "domain_wall",
              {"basis": "000111"}, {"basis": "0101"}, {"basis": "000111"}]
    specs = [random_spec(6 if isinstance(s, dict) and len(s["basis"]) == 6
                         else 4, rng) for s in states]
    path = tmp_path / "mixed.jsonl"
    path.write_text("".join(
        json_17g({"n": spec.n, "couplings": list(spec.couplings),
                  "state": state, "y": 0.0}) + "\n"
        for spec, state in zip(specs, states)))
    config = ExperimentConfig(n=4, k=K, c=C, backend="overlap-shots",
                              shots=30, seed=5)
    cmd_features(config, path, tmp_path / "f.csv")
    got = np.loadtxt(tmp_path / "f.csv", delimiter=",", skiprows=1)
    cfg = config.feature_map()
    for i, (spec, state) in enumerate(zip(specs, states)):
        psi = (domain_wall(4) if state == "domain_wall"
               else basis_state(spec.n, state["basis"]))
        np.testing.assert_array_equal(got[i], feature_vector(spec, psi, cfg, i))


def test_batch_must_share_n(rng):
    with pytest.raises(hm.ConfigError, match="must share n"):
        label_rows([random_spec(4, rng), random_spec(5, rng)], domain_wall(4),
                   FunctionSpec("exp", C, 1.0))
    # the Strang circuit reads the state once for the batch, so it checks too
    mixed = [random_spec(4, rng), random_spec(3, rng)]
    with pytest.raises(hm.ConfigError, match="must share n"):
        amplitude_rows(mixed, domain_wall(4), [0.0, 1.0, 2.0], (1, 1, 1))
    with pytest.raises(hm.ConfigError, match="must share n"):
        feature_rows(mixed, domain_wall(4),
                     FeatureMapConfig(K=K, C=C, schedule=(1, 1, 1, 1)))
