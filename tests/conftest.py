"""Shared oracles: Kronecker constructions that are independent of the
matrix-free / sector-block code paths they validate.  A sector is found by
popcount and its block is cut out of the Kronecker sum of Paulis; nothing
here reads the package's sector patterns, spin blocks or Strang kernel."""

import functools
import math

import numpy as np
import pytest
from scipy import sparse

from hamfourier.hamiltonians import ConfigError, CouplingSpec
from hamfourier.states import StateVector

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

ORTHO_TOL = 1e-10

#: Relative phases accepted by superpose.
PHASES = (1, -1, 1j, -1j)


def kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def sector_indices(n: int, magnetization: int) -> np.ndarray:
    """Ascending basis indices of popcount magnetization."""
    index = np.arange(2**n)
    popcount = sum(index >> q & 1 for q in range(n))
    return np.flatnonzero(popcount == magnetization)


@functools.lru_cache(maxsize=64)
def kronecker_sum(n: int, couplings: tuple[float, ...]) -> sparse.csr_matrix:
    """The sparse Kronecker sum J_m 1 ⊗ (X X + Y Y + Z Z) ⊗ 1 over bonds m,
    built once per chain and shared by all of its sectors (read-only)."""
    bond = sum(np.kron(p, p) for p in (PAULI_X, PAULI_Y, PAULI_Z)).real
    return sum(j * sparse.kron(sparse.kron(sparse.identity(2**m), bond),
                               sparse.identity(2**(n - m - 2)), format="csr")
               for m, j in enumerate(couplings))


def sector_block(spec: CouplingSpec, magnetization: int) -> np.ndarray:
    """H on one sector: the Kronecker sum restricted to the sector's
    indices, as a dense real matrix."""
    idx = sector_indices(spec.n, magnetization)
    return kronecker_sum(spec.n, spec.couplings)[idx][:, idx].toarray()


def sector_eigensystem(spec: CouplingSpec, magnetization: int):
    """(eigenvalues ascending, eigenvectors, indices) of one sector block."""
    return (*np.linalg.eigh(sector_block(spec, magnetization)),
            sector_indices(spec.n, magnetization))


def from_dense(n: int, vec) -> StateVector:
    """The state of a dense vector of 2^n amplitudes: its nonzero entries."""
    vec = np.asarray(vec, dtype=complex)
    support = np.flatnonzero(vec)
    return StateVector(n, support, vec[support])


def dense(psi: StateVector) -> np.ndarray:
    """psi's 2^n amplitudes as a dense vector, zero off its support."""
    vec = np.zeros(2**psi.n, dtype=complex)
    vec[psi.support] = psi.amplitudes
    return vec


def occupied(psi: StateVector) -> list[int]:
    """Popcounts of the basis states where psi is nonzero, ascending."""
    return sorted({int(i).bit_count() for i in psi.support})


def exact_evolve(spec: CouplingSpec, psi: StateVector, t: float) -> StateVector:
    """e^{-iHt}·psi, sector by sector from the Kronecker blocks' eigh."""
    out, amps = np.zeros(2**spec.n, dtype=complex), dense(psi)
    for k in occupied(psi):
        evals, evecs, idx = sector_eigensystem(spec, k)
        coeff = evecs.T @ amps[idx]
        out[idx] = evecs @ (np.exp(-1j * evals * t) * coeff)
    return from_dense(spec.n, out)


def dense_hamiltonian(spec: CouplingSpec) -> np.ndarray:
    """Kronecker-product construction of the full 2^n x 2^n matrix.

    Qubit 0 is the leftmost factor, matching the package's MSB convention.
    """
    n = spec.n
    h = np.zeros((2**n, 2**n), dtype=complex)
    for m, j in enumerate(spec.couplings):
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            ops = [IDENTITY] * n
            ops[m] = pauli
            ops[m + 1] = pauli
            h += j * kron_chain(ops)
    return h


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> with conjugation on a."""
    if a.n != b.n:
        raise ConfigError(f"qubit counts differ: {a.n} vs {b.n}")
    return complex(np.vdot(dense(a), dense(b)))


def superpose(psi_ref: StateVector, psi: StateVector, phase: complex) -> StateVector:
    """(psi_ref + phase·psi)/sqrt(2) for phase in {+1, -1, +i, -i}.

    Inputs must be orthogonal; the output is then exactly unit norm.
    """
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
    overlap = inner(psi_ref, psi)
    if abs(overlap) > ORTHO_TOL:
        raise ValueError(
            f"inputs are not orthogonal: |<psi_ref|psi>| = {abs(overlap):.3e}"
        )
    amps = (dense(psi_ref) + phase * dense(psi)) / np.sqrt(2.0)
    return from_dense(psi_ref.n, amps)


def dense_measure(spec: CouplingSpec, psi: StateVector):
    """Spectral measure of psi from the Kronecker blocks, one per occupied
    sector: [(eigenvalues, p_l = |<λ_l|ψ>|²)]."""
    records = []
    for k in occupied(psi):
        evals, evecs, idx = sector_eigensystem(spec, k)
        records.append((evals, np.abs(evecs.T @ dense(psi)[idx]) ** 2))
    return records


def spin_dims(n: int, k: int) -> list[int]:
    """Multiplicity of total spin S = n/2 - t in sector k, ascending S:
    C(n, t) - C(n, t-1) for t = min(k, n-k), ..., 0 (adding spins 1/2)."""
    return [math.comb(n, t) - (math.comb(n, t - 1) if t else 0)
            for t in range(min(k, n - k), -1, -1)]


def random_spec(n: int, rng: np.random.Generator) -> CouplingSpec:
    """Normalized coupling spec drawn directly (not via sample_couplings),
    so oracle tests do not depend on the sampler under test."""
    raw = rng.uniform(-1.0, 1.0, size=n - 1)
    while np.sum(np.abs(raw)) == 0:
        raw = rng.uniform(-1.0, 1.0, size=n - 1)
    raw /= np.sum(np.abs(raw))
    return CouplingSpec(n=n, couplings=tuple(raw))


def random_sector_state(n: int, magnetization: int,
                        rng: np.random.Generator) -> StateVector:
    """Random complex state supported on one magnetization sector."""
    idx = sector_indices(n, magnetization)
    comp = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    comp /= np.linalg.norm(comp)
    amps = np.zeros(2**n, dtype=complex)
    amps[idx] = comp
    return from_dense(n, amps)


def random_dense_state(n: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return from_dense(n, amps)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
