"""The Lanczos spectral measure against the dense sector eigendecomposition.

Features A(t_l) = sum_l p_l e^{-iλ_l t_l} and labels y = sum_l p_l f(λ_l)
from hamiltonians.spectral_measures must match the dense oracle (one
sector_eigensystem per sector) to 1e-12 across n = 4..12, for
single-sector, multi-sector and complex (phase ±i) states, and every
record must carry its certificate.
Sectors below LANCZOS_MIN_DIM take the dense path, so Lanczos itself runs
at n = 10 and 12 (and at n = 8 nowhere: its largest sector has d = 70).
"""

import math

import numpy as np
import pytest

from hamfourier.evolution import amplitudes
from hamfourier.features import FeatureMapConfig, feature_vector
from hamfourier.hamiltonians import (
    LANCZOS_MIN_DIM,
    LANCZOS_TOL,
    ConfigError,
    sector_eigensystem,
    sector_states,
    spectral_measures,
)
from hamfourier.labels import FunctionSpec, label
from hamfourier.states import StateVector, basis_state, domain_wall

from conftest import dense_measure, random_sector_state, random_spec, superpose

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
            y = label(spec, psi, fspec)
            assert abs(y - y_dense) <= 1e-12 * max(1.0, abs(y_dense)), (name, fspec.kind)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_records_carry_certificate(n, rng):
    spec = random_spec(n, rng)

    def phases(nodes):
        return np.exp(-1j * np.outer(TIMES, nodes))

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
    evals, evecs, basis = sector_eigensystem(spec, 5)
    assert basis.dim >= LANCZOS_MIN_DIM
    amps = np.zeros(2**10, dtype=complex)
    amps[basis.states] = evecs[:, [3, 100, 250]] @ np.array([0.6, 0.64j, -0.48])
    (rec,) = spectral_measures([spec], StateVector(n=10, amplitudes=amps),
                               lambda nodes: nodes)
    assert rec.depth == 3 and rec.gap == 0.0
    np.testing.assert_allclose(rec.eigenvalues[0], evals[[3, 100, 250]],
                               atol=1e-12)
    np.testing.assert_allclose(rec.probabilities[0], [0.36, 0.4096, 0.2304],
                               atol=1e-12)


def test_features_use_one_measure(rng, monkeypatch):
    import hamfourier.evolution as ev
    calls = []
    original = ev.spectral_sum
    monkeypatch.setattr(ev, "spectral_sum",
                        lambda *a: calls.append(1) or original(*a))
    feature_vector(random_spec(8, rng), domain_wall(8), FeatureMapConfig(K=K, C=C))
    assert len(calls) == 1


@pytest.mark.parametrize("n", [4, 8])
def test_step_label_is_dense_bit_for_bit(n, rng):
    spec = random_spec(n, rng)
    for psi in sweep_states(n, rng).values():
        for threshold in (-0.4, 0.1, 0.9):
            fspec = FunctionSpec("step", C, threshold)
            dense = float(sum(np.sum(p * fspec(evals))
                              for evals, p in dense_measure(spec, psi)))
            assert label(spec, psi, fspec) == dense


def test_sector_pattern_is_cached_and_read_only():
    basis = sector_states(10, 5)
    assert sector_states(10, 5) is basis
    assert not basis.states.flags.writeable


def test_lanczos_respects_sector_cap(rng):
    spec = random_spec(18, rng)
    psi = random_sector_state(18, 9, rng)
    with pytest.raises(ConfigError, match="> cap"):
        amplitudes(spec, psi, TIMES)
