"""The Chebyshev moments against the dense sector eigendecomposition.

Features A(t_l) = <ψ|e^{-iHt_l}|ψ> and smooth labels y = <ψ|f(H)|ψ> from
the moments of hamiltonians.spectral_measures must match the dense oracle
(eigh of each sector's Kronecker block, conftest) across n = 4..12, for
single-sector, multi-sector and complex (phase ±i) states, and at n = 18
expm_multiply on the Kronecker sector block; every record must carry its
order and a truncation bound of at most MOMENT_TOL that holds against
scipy's Bessel coefficients, and a sample whose rounding estimate passes
the tolerance (an exp label of large β) takes the dense path or is
refused.  Step labels take the dense path, which
diagonalizes each sector per total-spin block; the blocks are checked
against the whole-sector oracle at n = 2..10 in every sector.  Every path
refuses a sector over the one memory budget before touching a sector cache.
test_lanczos_matches_dense and test_lanczos_estimate_bounds_a_chunk keep
the names of the tests of the Lanczos oracle that the moments replaced.
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
from scipy.special import jv

import hamfourier.hamiltonians as hm
from hamfourier.cli import main
from hamfourier.evolution import amplitude_rows, amplitudes
from hamfourier.features import FeatureMapConfig, feature_vector
from hamfourier.hamiltonians import (
    MOMENT_TOL,
    ChebyshevMoments,
    ConfigError,
    CouplingSpec,
    ExponentialSum,
    _moment_bytes,
    _sector_bytes,
    _sector_pattern,
    _spin_blocks,
    spectral_measures,
)
from hamfourier.labels import FunctionSpec, label_rows
from hamfourier.pipeline import read_dataset, read_features
from hamfourier.states import StateVector, basis_state, domain_wall

from conftest import (dense, dense_measure, kronecker_sum, random_sector_state,
                      random_spec, sector_block, sector_indices, spin_dims,
                      superpose)

K, C = 11, 3.0
TIMES = np.arange(K + 1) * np.pi / C
PHASES = ExponentialSum(-1j * TIMES, np.eye(K + 1))  # the feature integrand


def oracle_amplitudes(measure, times=TIMES):
    """A(t) from the dense oracle's [(eigenvalues, p)]."""
    return sum(np.exp(-1j * np.outer(times, evals)) @ p
               for evals, p in measure)


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
        assert np.max(np.abs(amplitudes(spec, psi, TIMES)
                             - oracle_amplitudes(dense))) <= 1e-13, name
        for fspec in targets(rng):
            y_dense = sum(np.sum(p * fspec(evals)) for evals, p in dense)
            y = label_rows([spec], psi, fspec)[0]
            assert abs(y - y_dense) <= 1e-13 * max(1.0, abs(y_dense)), (
                name, fspec.kind)


def bessel_tail(tau, order):
    """sum_{j >= order} |2 J_j(τ)| from scipy, to the point where the
    terms fall below 1e-300."""
    j = np.arange(order, order + 4 * int(tau) + 200)
    return 2 * np.sum(np.abs(jv(j, tau)))


@pytest.mark.parametrize("n", [4, 8, 12])
def test_records_carry_certificate(n, rng):
    # order N and bound: N odd and the bound at most MOMENT_TOL, and no
    # smaller than the true tail of the phases' expansion (scipy's J_j);
    # μ_0 is the sector's weight and |μ_j| <= μ_0, as x's spectrum lies in
    # [-1, 1]
    spec = random_spec(n, rng)
    for name, psi in sweep_states(n, rng).items():
        for rec in spectral_measures([spec], psi, PHASES):
            assert isinstance(rec, ChebyshevMoments), name
            assert rec.order % 2 == 1 and rec.moments.shape == (1, rec.order)
            assert rec.half_width >= 2 * sum(map(abs, spec.couplings))
            assert abs(rec.centre[0] + sum(spec.couplings)) <= 1e-15
            assert 0.0 < rec.bound <= MOMENT_TOL, name
            assert rec.coefficients.shape == (K + 1, rec.order)
            assert rec.rounding.shape == (1, K + 1)
            assert np.all(rec.rounding <= MOMENT_TOL), name
            weight = np.sum(np.abs(psi.amplitudes[np.bitwise_count(
                psi.support) == rec.magnetization]) ** 2)
            assert abs(rec.moments[0, 0] - weight) <= 1e-15
            assert np.all(np.abs(rec.moments) <= weight * (1 + 1e-12))
            tail = bessel_tail(rec.half_width * TIMES[-1], rec.order)
            assert weight * tail <= rec.bound, name


def test_zero_and_bond_0_chains_match_dense(rng):
    # all couplings 0 (half-width 0: x = 0, one moment, bound 0) and a chain
    # coupled on bond 0 alone, where both basis components are eigenvectors
    # (bits 00 and 11 on qubits 0, 1); a third sample between them
    n = 8
    psi = superpose(domain_wall(n), basis_state(n, "00000111"), 1j)
    zero = CouplingSpec(n, (0.0,) * (n - 1))
    bond_0 = CouplingSpec(n, (1.0,) + (0.0,) * (n - 2))
    specs = [zero, random_spec(n, rng), bond_0]
    rows = amplitude_rows(specs, psi, TIMES)
    targets = [FunctionSpec("exp", C, 1.0), FunctionSpec("cos", C, 2.3)]
    ys = [label_rows(specs, psi, fspec) for fspec in targets]
    for b, spec in enumerate(specs):
        measure = dense_measure(spec, psi)
        assert np.max(np.abs(rows[b] - oracle_amplitudes(measure))) <= 1e-13
        for fspec, y in zip(targets, ys):
            y_dense = sum(np.sum(p * fspec(evals)) for evals, p in measure)
            assert abs(y[b] - y_dense) <= 1e-13, (b, fspec.kind)
    np.testing.assert_allclose(rows[0], np.ones(K + 1), rtol=0, atol=1e-15)
    for rec in spectral_measures(specs[:1], psi, PHASES):
        assert rec.half_width == 0.0 and rec.order == 1 and rec.bound == 0.0
    assert amplitude_rows(specs, psi, []).shape == (3, 0)  # no time at all


@pytest.mark.parametrize("state", ["domain_wall", "two_sectors"])
def test_certified_value_is_the_returned_value(state, rng):
    # each sample's value is the expansion of its record cut at the
    # record's order, the one its bound covers, bit for bit: features and
    # an exp label of 13 n=12 samples, which cross the chunk of 11 (d=924)
    # and sectors k=5, 6
    n = 12
    psi = domain_wall(n) if state == "domain_wall" else superpose(
        basis_state(n, _bits(n, 5)), basis_state(n, _bits(n, 6)), 1j)
    specs = [random_spec(n, rng) for _ in range(13)]
    exp = FunctionSpec("exp", C, 1.0)
    for integrand, out in ((PHASES, amplitude_rows(specs, psi, TIMES)),
                           (exp.exponentials(), label_rows(specs, psi, exp))):
        records = list(spectral_measures(specs, psi, integrand))
        # k=6 in chunks of 11 and 2 (d = 924), k=5 in one of 13 (d = 792)
        assert [len(rec.centre) for rec in records] == (
            [11, 2] if state == "domain_wall" else [13, 11, 2])
        assert all(0.0 < rec.bound <= MOMENT_TOL for rec in records)
        expected = np.zeros((len(specs), len(integrand.weights)), complex)
        for rec in records:  # sectors in turn, each covering the batch
            rows = slice(11, 13) if len(rec.centre) == 2 else slice(
                0, len(rec.centre))
            expected[rows] += hm._integral(rec, integrand)
        if out.ndim == 1:
            expected = expected[:, 0].real
        assert bytes(expected) == bytes(out)


@pytest.mark.parametrize("beta", [10.0, 30.0])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_steep_exp_label_matches_dense(n, beta, rng):
    # e^{-βx} expands in terms up to e^{β(h - centre)}, which the moments
    # sum with cancellation: a sample whose rounding estimate passes
    # MOMENT_TOL·max(1, |y|) takes the dense path.  There, and in the
    # oracle, a rounding of eps in ψ's projection √p_l moves y by about
    # 2 eps √p_l e^{-βλ_l}: at β = 30, for a basis state with 1e-9 of its
    # weight on the lowest eigenvalue, 1e-11·y (the oracle was 6.8e-13·y
    # off a long-double exponential there), so there the tolerance adds
    # twice that sum, and a sample whose eps² leak could pass it is refused
    spec, fspec = random_spec(n, rng), FunctionSpec("exp", C, beta)
    eps = np.finfo(float).eps
    for name, psi in sweep_states(n, rng).items():
        measure = dense_measure(spec, psi)
        y_dense = sum(np.sum(p * fspec(evals)) for evals, p in measure)
        leak = sum(4 * eps * np.sqrt(p) @ fspec(evals)
                   for evals, p in measure) if beta == 30.0 else 0.0
        try:
            y = label_rows([spec], psi, fspec)[0]
        except ConfigError as err:
            assert beta == 30.0 and "a rounding of ψ moves" in str(err), name
            continue
        assert abs(y - y_dense) <= 1e-13 * max(1.0, abs(y_dense)) + leak, (
            name)


def test_steep_exp_label_of_the_triplet():
    # (|01> + |10>)/√2 under J = 1 has y = e^{-β}, while the expansion's
    # terms reach e^{3β}: at β = 10 the record's rounding estimate is far
    # past MOMENT_TOL and the dense path returns y; at β = 30 a rounding of
    # eps in ψ alone could move y by eps²·e^{90}, so it is refused
    spec, psi = CouplingSpec(2, (1.0,)), StateVector(2, [1, 2], [2**-0.5] * 2)
    fspec = FunctionSpec("exp", C, 10.0)
    (rec,) = spectral_measures([spec], psi, fspec.exponentials())
    assert rec.bound <= MOMENT_TOL < 1e-6 < rec.rounding[0, 0]
    assert abs(label_rows([spec], psi, fspec)[0] - math.exp(-10)) <= 1e-13
    with pytest.raises(ConfigError, match=r"lose digits to rounding in "
                       r"Chebyshev moments .* a rounding of ψ moves them"):
        label_rows([spec], psi, FunctionSpec("exp", C, 30.0))


def test_steep_exp_label_is_refused_where_dense_would_not_fit(rng):
    # n=14 at half filling: the moments lose digits at β = 10 and the spin
    # blocks of d = 3,432 pass the cap
    with pytest.raises(ConfigError, match=r"lose digits to rounding .* dense "
                       r"path does not fit: .* GB of spin blocks"):
        label_rows([random_spec(14, rng)], random_sector_state(14, 7, rng),
                   FunctionSpec("exp", C, 10.0))


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


def test_moments_respect_sector_cap(rng):
    # n=24 at half filling: the 0.78 GB pattern and one sample's chunk
    # (the recurrence's rows, Z Z diagonal, flip index and columns, and
    # moments) exceed the cap
    before = sector_caches()
    with pytest.raises(ConfigError, match=r"\(n=24, magnetization=12\) needs "
                       r"2\.1 GB of pattern and moment chunk > cap 1 GB"):
        amplitudes(random_spec(24, rng), domain_wall(24), TIMES)
    assert sector_caches() == before


def test_every_sector_is_checked_before_any_is_built(rng, monkeypatch):
    # sectors k=1 (18 states) and k=9 (48,620 states) at n=18 under a cap
    # that k=9 exceeds: k=1 is not built first.  An exp label of a
    # normalized chain takes 15 moments at β = 0.5
    n, exp = 18, FunctionSpec("exp", C, 0.5)
    assert hm._truncation(exp.exponentials(), 2 + 2**-16)[0] == 15
    budget = _sector_bytes(n, 9) + _moment_bytes(n, 9, 1, 15)
    monkeypatch.setattr(hm, "SECTOR_BYTES_CAP", budget - 1)
    psi = superpose(basis_state(n, _bits(n, 1)), basis_state(n, _bits(n, 9)),
                    1j)
    before = sector_caches()
    with pytest.raises(ConfigError, match=r"\(n=18, magnetization=9\) needs"):
        label_rows([random_spec(n, rng)], psi, exp)
    assert sector_caches() == before
    monkeypatch.setattr(hm, "SECTOR_BYTES_CAP", budget)
    assert np.isfinite(label_rows([random_spec(n, rng)], psi, exp)[0])


@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("phase", [1, 1j])
def test_lanczos_estimate_bounds_a_chunk(n, phase, rng):
    # tracemalloc sees numpy's buffers: one chunk's peak, pattern cached,
    # at the features' order for K = 11 and for K = 200
    k, d = n // 2, math.comb(n, n // 2)
    b = hm.STACK_ENTRIES // (3 * d)
    couplings = np.array([random_spec(n, rng).couplings for _ in range(b)])
    comp = np.zeros(d, dtype=complex)
    comp[[0, d // 2]] = np.array([1, phase]) / math.sqrt(2)
    _sector_pattern(n, k)
    for order in (55, 597):
        tracemalloc.start()
        try:
            hm._moments(couplings, k, comp, 2.0, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = _moment_bytes(n, k, b, order)
        assert estimate / 2 < peak <= estimate, (order, peak, estimate)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_one_pair_count_per_bond_in_every_sector(n):
    # the estimates share one count of flip pairs, that of the pattern; the
    # empty and the full sector (k = 0, n) hold one state and no pair
    for k in range(n + 1):
        pairs = _sector_pattern(n, k)[2].shape[1]
        assert pairs == (n - 1) * hm._bond_pairs(n, k)
    for k in (0, n):
        assert hm._bond_pairs(n, k) == 0
        assert _moment_bytes(n, k, 3, 5) == 3 * (96 + 40)  # d = 1, 5 moments


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
                               evolved @ comp.conj(), rtol=0, atol=1e-13)
    exp = FunctionSpec("exp", C, 0.5)
    expected = np.vdot(comp, expm_multiply(-exp.param * h, comp)).real
    assert abs(label_rows([spec], psi, exp)[0] - expected) <= 1e-13
    for integrand in (PHASES, exp.exponentials()):
        (rec,) = spectral_measures([spec], psi, integrand)
        assert 0.0 < rec.bound <= MOMENT_TOL


@pytest.mark.parametrize("state", ["000011111", "010101011"])
def test_deep_features_stay_within_their_bound(state, tmp_path):
    # K = 200 puts t up to 200π/3 on d = 126 sectors, where Lanczos once
    # reported an exhausted Krylov space (gap 0) for features 4.0e-7
    # (000011111) and 5.2e-6 (010101011) off the oracle.  Each record's
    # bound holds up to rounding: the oracle's eigenvalues carry about
    # 1e-15, which t = 200π/3 turns into a few 1e-13.  The records' rounding
    # estimates (1.4e-13) pass MOMENT_TOL, so the CLI's features come from
    # the dense path; the moments' own values are checked here too
    data, feats = tmp_path / "d.jsonl", tmp_path / "f.csv"
    assert main(["generate", "--n", "9", "--state", state, "--num", "20",
                 "--out", str(data)]) == 0
    assert main(["features", "--in", str(data), "--k", "200", "--c", "3",
                 "--out", str(feats)]) == 0
    _, x = read_features(feats)
    specs = [spec for spec, _, _ in read_dataset(data)]
    psi, times = basis_state(9, state), np.arange(201) * np.pi / 3
    integrand = ExponentialSum(-1j * times, np.eye(201))
    records = list(spectral_measures(specs, psi, integrand))
    assert all(r.bound <= MOMENT_TOL < np.min(np.max(r.rounding, axis=1))
               for r in records)
    bounds = np.concatenate([np.full(len(r.centre), r.bound) for r in records])
    moments = np.concatenate([hm._integral(r, integrand) for r in records])
    for b, spec in enumerate(specs):
        a = oracle_amplitudes(dense_measure(spec, psi), times)
        assert np.max(np.abs(moments[b] - a)) <= bounds[b] + 1e-12, b
        oracle = np.insert(np.stack([a.imag[1:], a.real[1:]], 1).ravel(), 0,
                           a.real[0])
        assert np.max(np.abs(x[b] - oracle)) <= 1e-12, b
