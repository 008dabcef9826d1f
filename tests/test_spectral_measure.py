"""The Lanczos spectral measure against the dense sector eigendecomposition.

Features A(t_l) = sum_l p_l e^{-iλ_l t_l} and labels y = sum_l p_l f(λ_l)
from hamiltonians.spectral_measures must match the dense oracle (eigh of
each sector's Kronecker block, conftest) to 1e-12 across n = 4..12, for
single-sector, multi-sector and complex (phase ±i) states, and every
record must carry its certificate.
Sectors below LANCZOS_MIN_DIM take the dense path, so Lanczos itself runs
at n = 10 and 12 (and at n = 8 nowhere: its largest sector has d = 70), and
at n = 18 against expm_multiply on the Kronecker sector block.  Every path
refuses a sector over the one memory budget before touching a sector cache.
The dense path diagonalizes each sector per total-spin block; the blocks
are checked against the whole-sector oracle at n = 2..10 in every sector.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

import hamfourier.hamiltonians as hm
from hamfourier.evolution import amplitude_rows, amplitudes
from hamfourier.features import FeatureMapConfig, feature_vector
from hamfourier.hamiltonians import (
    LANCZOS_MIN_DIM,
    LANCZOS_TOL,
    ConfigError,
    _lanczos_bytes,
    _sector_bytes,
    _sector_pattern,
    _spin_blocks,
    spectral_measures,
)
from hamfourier.labels import FunctionSpec, label_rows
from hamfourier.states import StateVector, basis_state, domain_wall

from conftest import (dense, dense_measure, kronecker_sum, random_sector_state,
                      random_spec, sector_block, sector_eigensystem,
                      sector_indices, spin_dims, superpose)

K, C = 11, 3.0
TIMES = np.arange(K + 1) * np.pi / C


def _bits(n: int, ones: int, shift: int = 0) -> str:
    return "".join("1" if (q + shift) % n < ones else "0" for q in range(n))


def sweep_states(n: int, rng):
    """Domain wall (n divisible by 4), basis states in several sectors, and
    two-sector superpositions with phases ±1 and ±i."""
    states = {} if n % 4 else {"domain_wall": domain_wall(n)}
    for ones in (0, 1, n // 2 - 1, n // 2):
        states[f"basis_{ones}"] = basis_state(n, _bits(n, ones, shift=ones))
    for phase in (1, -1, 1j, -1j):
        states[f"basis_pair_{phase}"] = superpose(
            basis_state(n, _bits(n, 1)), basis_state(n, _bits(n, n // 2)), phase)
        states[f"random_pair_{phase}"] = superpose(
            random_sector_state(n, n // 2 - 1, rng),
            random_sector_state(n, n // 2, rng), phase)
    return states


def targets(rng):
    coeffs = rng.normal(size=2 * 4 + 1)
    return [FunctionSpec("exp", C, 1.0), FunctionSpec("cos", C, 2.3),
            FunctionSpec("sin", C, 1.7),
            FunctionSpec("fourier", C, coeffs=coeffs / np.linalg.norm(coeffs))]


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_lanczos_matches_dense(n, rng):
    spec = random_spec(n, rng)
    for name, psi in sweep_states(n, rng).items():
        dense = dense_measure(spec, psi)
        a_dense = sum(np.exp(-1j * np.outer(TIMES, evals)) @ p for evals, p in dense)
        assert np.max(np.abs(amplitudes(spec, psi, TIMES) - a_dense)) <= 1e-12, name
        for fspec in targets(rng):
            y_dense = sum(np.sum(p * fspec(evals)) for evals, p in dense)
            y = label_rows([spec], psi, fspec)[0]
            assert abs(y - y_dense) <= 1e-12 * max(1.0, abs(y_dense)), (name, fspec.kind)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_records_carry_certificate(n, rng):
    spec = random_spec(n, rng)

    def phases(nodes):  # nodes carry leading axes: a chunk of samples
        return np.exp(-1j * TIMES[:, None] * nodes[..., None, :])

    for name, psi in sweep_states(n, rng).items():
        for rec in spectral_measures([spec], psi, phases):
            d = math.comb(n, rec.magnetization)
            assert 1 <= rec.depth <= d, name
            assert 0.0 <= rec.gap <= LANCZOS_TOL, name
            if d <= 4:  # tiny sectors exhaust the Krylov space: exact
                assert rec.gap == 0.0, name
            if d >= LANCZOS_MIN_DIM:  # the certificate was reached below d
                assert rec.depth < d, name
            assert rec.probabilities.sum() <= 1.0 + 1e-12


def test_invariant_krylov_space_exhausts_exactly(rng):
    # a state on three eigenvectors of a d=252 block spans a 3-dim Krylov
    # space: Lanczos stops there and its quadrature is the exact measure
    spec = random_spec(10, rng)
    evals, evecs, idx = sector_eigensystem(spec, 5)
    assert len(idx) >= LANCZOS_MIN_DIM
    amps = evecs[:, [3, 100, 250]] @ np.array([0.6, 0.64j, -0.48])
    (rec,) = spectral_measures([spec], StateVector(10, idx, amps),
                               lambda nodes: nodes)
    assert rec.depth == 3 and rec.gap == 0.0
    np.testing.assert_allclose(rec.eigenvalues[0], evals[[3, 100, 250]],
                               atol=1e-12)
    np.testing.assert_allclose(rec.probabilities[0], [0.36, 0.4096, 0.2304],
                               atol=1e-12)


@pytest.mark.parametrize("state", ["domain_wall", "two_sectors"])
def test_certified_value_is_the_returned_value(state, rng, monkeypatch):
    # _lanczos certifies each row by the _integral that spectral_sum then
    # makes of its record, bit for bit: features and an exp label of 13
    # n=12 samples, which cross the chunk of 11 (d=924) and sectors k=5, 6
    n = 12
    psi = domain_wall(n) if state == "domain_wall" else superpose(
        basis_state(n, _bits(n, 5)), basis_state(n, _bits(n, 6)), 1j)
    specs = [random_spec(n, rng) for _ in range(13)]
    certified, parts, integral = {}, [], hm._integral

    def recorded(integrand, nodes, weights):
        value = integral(integrand, nodes, weights)
        if sys._getframe(1).f_code.co_name == "_lanczos":  # a checkpoint
            certified.update(zip(map(bytes, weights), value))
        else:  # spectral_sum's record: one row, Lanczos records come singly
            parts.append((bytes(weights[0]), value[0]))
        return value

    monkeypatch.setattr(hm, "_integral", recorded)
    exp = FunctionSpec("exp", C, 1.0)
    for rows in (lambda: amplitude_rows(specs, psi, TIMES),
                 lambda: label_rows(specs, psi, exp)):
        certified.clear()
        parts.clear()
        out = rows()
        assert len(parts) == len(specs) * (1 + (state == "two_sectors"))
        expected = np.zeros_like(out)
        for i, (weights, part) in enumerate(parts):  # sectors in turn
            assert bytes(certified[weights]) == bytes(part), i
            expected[i % len(specs)] += part
        assert bytes(expected) == bytes(out)


def test_features_use_one_measure(rng, monkeypatch):
    import hamfourier.evolution as ev
    calls = []
    original = ev.spectral_sum
    monkeypatch.setattr(ev, "spectral_sum",
                        lambda *a: calls.append(1) or original(*a))
    feature_vector(random_spec(8, rng), domain_wall(8), FeatureMapConfig(K=K, C=C))
    assert len(calls) == 1


@pytest.mark.parametrize("n", [4, 8])
def test_step_label_matches_dense(n, rng):
    # every threshold clears the spectrum, so 1e-12 cannot hide a flipped node
    spec = random_spec(n, rng)
    for psi in sweep_states(n, rng).values():
        dense = dense_measure(spec, psi)
        for threshold in (-0.4, 0.1, 0.9):
            assert min(np.min(np.abs(evals - threshold))
                       for evals, _ in dense) > 1e-9
            fspec = FunctionSpec("step", C, threshold)
            y_dense = sum(np.sum(p * fspec(evals)) for evals, p in dense)
            assert abs(label_rows([spec], psi, fspec)[0] - y_dense) <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_spin_blocks_split_every_sector(n, rng):
    # odd n too: there S is a half-integer, and S = 1/2 must stay one block
    spec = random_spec(n, rng)
    for k in range(n + 1):
        blocks = [q for q, _ in _spin_blocks(n, k)]
        dims = [q.shape[1] for q in blocks]
        assert dims == spin_dims(n, k) and sum(dims) == math.comb(n, k), k
        q = np.concatenate(blocks, axis=1)
        assert np.max(np.abs(q.T @ q - np.eye(sum(dims)))) <= 1e-12, k
        h = sector_block(spec, k)
        for a, b in itertools.combinations(blocks, 2):
            assert np.max(np.abs(a.T @ h @ b)) <= 1e-12, k
        psi = random_sector_state(n, k, rng)
        (rec,) = spectral_measures([spec], psi)
        ((evals, p),) = dense_measure(spec, psi)
        assert np.max(np.abs(np.sort(rec.eigenvalues[0]) - evals)) <= 1e-12, k
        a = np.exp(-1j * np.outer(TIMES, rec.eigenvalues[0])) @ rec.probabilities[0]
        a_dense = np.exp(-1j * np.outer(TIMES, evals)) @ p
        assert np.max(np.abs(a - a_dense)) <= 1e-12, k


def test_sector_pattern_is_cached_and_read_only():
    pattern = _sector_pattern(10, 5)
    assert _sector_pattern(10, 5) is pattern
    assert not any(arr.flags.writeable for arr in pattern)


def sector_caches():
    """Calls and entries of both sector caches: a refusal leaves them as
    they were, so nothing is built or read before it."""
    return _sector_pattern.cache_info(), _spin_blocks.cache_info()


def test_dense_path_refuses_spin_blocks_that_would_not_fit(rng):
    # an n=16 step label would cache 5.6 GB of spin blocks and peak at
    # 17 GB while building them: refused before anything is built, so
    # neither cache changes
    before = sector_caches()
    step = FunctionSpec("step", C, 0.1)
    with pytest.raises(ConfigError, match=r"needs 16\.8 GB of spin blocks"):
        label_rows([random_spec(16, rng)], domain_wall(16), step)
    assert sector_caches() == before


def test_lanczos_respects_sector_cap(rng):
    # n=24 at half filling: the 0.78 GB pattern and one sample's chunk
    # (Krylov rows, Z Z diagonals, flip index and columns) exceed the cap
    before = sector_caches()
    with pytest.raises(ConfigError, match=r"\(n=24, magnetization=12\) needs "
                       r"2\.3 GB of pattern and Lanczos chunk > cap 1 GB"):
        amplitudes(random_spec(24, rng), domain_wall(24), TIMES)
    assert sector_caches() == before


def test_every_sector_is_checked_before_any_is_built(rng, monkeypatch):
    # sectors k=1 (dense, 18 states) and k=9 (Lanczos, 48,620 states) at
    # n=18 under a cap that k=9 exceeds: k=1 is not built first
    n, budget = 18, _sector_bytes(18, 9) + _lanczos_bytes(18, 9, 1)
    monkeypatch.setattr(hm, "SECTOR_BYTES_CAP", budget - 1)
    psi = superpose(basis_state(n, _bits(n, 1)), basis_state(n, _bits(n, 9)),
                    1j)
    exp = FunctionSpec("exp", C, 0.5)
    before = sector_caches()
    with pytest.raises(ConfigError, match=r"\(n=18, magnetization=9\) needs"):
        label_rows([random_spec(n, rng)], psi, exp)
    assert sector_caches() == before
    monkeypatch.setattr(hm, "SECTOR_BYTES_CAP", budget)
    assert np.isfinite(label_rows([random_spec(n, rng)], psi, exp)[0])


@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("phase", [1, 1j])
def test_lanczos_estimate_bounds_a_chunk(n, phase, rng):
    # tracemalloc sees numpy's buffers: one chunk's peak, pattern cached
    k, d = n // 2, math.comb(n, n // 2)
    b = hm.STACK_ENTRIES // (3 * d)
    couplings = np.array([random_spec(n, rng).couplings for _ in range(b)])
    comp = np.zeros(d, dtype=complex)
    comp[[0, d // 2]] = np.array([1, phase]) / math.sqrt(2)
    _sector_pattern(n, k)
    tracemalloc.start()
    try:
        hm._lanczos(couplings, k, comp, lambda x: np.exp(
            -1j * TIMES[:, None] * x[..., None, :]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _lanczos_bytes(n, k, b), (peak, _lanczos_bytes(n, k, b))


@pytest.mark.parametrize("n", [2, 5, 8])
def test_one_pair_count_per_bond_in_every_sector(n):
    # the estimates share one count of flip pairs, that of the pattern; the
    # empty and the full sector (k = 0, n) hold one state and no pair
    for k in range(n + 1):
        pairs = _sector_pattern(n, k)[2].shape[1]
        assert pairs == (n - 1) * hm._bond_pairs(n, k)
    for k in (0, n):
        assert hm._bond_pairs(n, k) == 0
        assert _lanczos_bytes(n, k, 3) == 3 * 96  # three samples on d = 1


def test_spin_block_estimate_bounds_a_build(rng, monkeypatch):
    # growth of the peak RSS (Linux VmHWM, which starts afresh at exec,
    # unlike ru_maxrss) over one n=12 half-filling build in a new process;
    # tracemalloc would miss eigh's LAPACK workspace.  The pattern is built
    # and BLAS warmed up before the baseline is read
    code = """
import numpy as np
from hamfourier.hamiltonians import _sector_pattern, _spin_blocks
def hwm():
    with open("/proc/self/status") as f:
        return next(int(l.split()[1]) for l in f if l.startswith("VmHWM"))
_sector_pattern(12, 6)
x = np.linalg.eigh(np.eye(64) + 1)[1]
x = x.T @ (x @ x)[None]
before = hwm()
_spin_blocks(12, 6)
print(1024 * (hwm() - before))
"""
    src = str(Path(hm.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    growth = int(out.stdout)
    estimate = []

    def sectors(specs, v, extra_bytes):  # the dense path's bytes, no build
        estimate.append(extra_bytes(6, 924)[0])
        return iter(())

    monkeypatch.setattr(hm, "_sectors", sectors)
    list(hm.spectral_measures([random_spec(12, rng)], domain_wall(12)))
    assert 40e6 < growth <= estimate[0], (growth, estimate)


def test_half_filling_at_18_matches_kronecker_oracle(rng):
    # d = 48,620: the first sector the old 20,000-state cap refused
    n = 18
    spec, psi = random_spec(n, rng), basis_state(n, _bits(n, n // 2, 4))
    idx = sector_indices(n, n // 2)
    h = kronecker_sum(n, spec.couplings)[idx][:, idx]
    comp = dense(psi)[idx]
    evolved = expm_multiply(-1j * h, comp, start=TIMES[0], stop=TIMES[-1],
                            num=len(TIMES), endpoint=True)
    np.testing.assert_allclose(amplitudes(spec, psi, TIMES),
                               evolved @ comp.conj(), rtol=0, atol=1e-12)
    exp = FunctionSpec("exp", C, 0.5)
    expected = np.vdot(comp, expm_multiply(-exp.param * h, comp)).real
    assert abs(label_rows([spec], psi, exp)[0] - expected) <= 1e-12
