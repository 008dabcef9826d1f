"""Batched layers against their batch of one, bit for bit.

feature_rows, label_rows and amplitude_rows take a batch of specs; the
single-sample calls are batches of one.  Dense sectors are diagonalized in
stacks of hamiltonians.EIGH_STACK_ENTRIES entries, so batches just below,
at and above a stack boundary must give every row exactly as the sample
alone does, across n = 4, 6, 8 (dense stacks) and n = 10 (Lanczos beside
stacks), states on several sectors with phases ±1 and ±i, every backend
with and without a schedule, and step, exp and fourier labels."""

import math

import numpy as np
import pytest

import hamfourier.hamiltonians as hm
from hamfourier.evolution import amplitude_rows
from hamfourier.features import FeatureMapConfig, feature_rows, feature_vector
from hamfourier.labels import FunctionSpec, label, label_rows
from hamfourier.pipeline import ExperimentConfig, cmd_features, json_17g
from hamfourier.states import basis_state, domain_wall

from conftest import dense_measure, random_sector_state, random_spec, superpose

STACK = 3  # samples per stack of the largest dense sector (through the constant)
K, C = 3, 3.0


def batch_sizes(stack):
    return (1, stack - 1, stack, stack + 1, 2 * stack + 3)


def mixed_states(n, rng):
    """States on two sectors, none touching |0...0>, with phases ±1, ±i;
    at n = 10 the first two put a Lanczos sector beside a dense one, the
    third is Lanczos only and the last dense only."""
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


def largest_dense_dim(n, psi):
    return max((d for k in hm.occupied_magnetizations(n, psi.amplitudes)
                if (d := math.comb(n, k)) < hm.LANCZOS_MIN_DIM), default=1)


@pytest.fixture
def small_stacks(monkeypatch):
    """Stacks of STACK samples for a given sector dimension."""
    def set_dim(d):
        monkeypatch.setattr(hm, "EIGH_STACK_ENTRIES", STACK * d * d)
    return set_dim


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
        small_stacks(largest_dense_dim(n, psi))
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
    if n < 10:  # a step is dense in every sector; n = 10 adds Lanczos ones
        targets.append(FunctionSpec("step", C, 0.1))
    for name, psi in mixed_states(n, rng).items():
        small_stacks(largest_dense_dim(n, psi))
        for fspec in targets:
            singles = np.array([label(s, psi, fspec) for s in specs])
            for size in batch_sizes(STACK):
                np.testing.assert_array_equal(
                    label_rows(specs[:size], psi, fspec), singles[:size],
                    err_msg=f"{name} {fspec.kind} B={size}")


def test_default_stack_boundaries(rng):
    # the real constant at n = 8: the half-filled sector (d = 70) stacks
    # 6 samples, the k = 3 one (d = 56) 10
    psi = superpose(domain_wall(8), basis_state(8, "00000111"), 1j)
    cfg = FeatureMapConfig(K=K, C=C, backend="hadamard-shots", n_shot=20,
                           seed=2)
    stack = hm.EIGH_STACK_ENTRIES // 70**2
    specs = [random_spec(8, rng) for _ in range(2 * stack + 3)]
    singles = np.array([feature_vector(s, psi, cfg, b)
                        for b, s in enumerate(specs)])
    step = FunctionSpec("step", C, 0.1)
    labels = np.array([label(s, psi, step) for s in specs])
    for size in batch_sizes(stack):
        np.testing.assert_array_equal(feature_rows(specs[:size], psi, cfg),
                                      singles[:size])
        np.testing.assert_array_equal(
            label_rows(specs[:size], psi, step), labels[:size])


@pytest.mark.parametrize("n", [6, 10])
def test_batch_matches_dense_oracle(n, rng, small_stacks):
    small_stacks(20)
    times = np.arange(K + 1) * np.pi / C
    specs = [random_spec(n, rng) for _ in range(2 * STACK + 3)]
    for psi in mixed_states(n, rng).values():
        rows = amplitude_rows(specs, psi, times)
        for spec, row in zip(specs, rows):
            oracle = sum(np.exp(-1j * np.outer(times, evals)) @ p
                         for evals, p in dense_measure(spec, psi))
            assert np.max(np.abs(row - oracle)) <= 1e-12


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
