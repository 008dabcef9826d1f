"""Random 1-D Heisenberg chains with open boundaries.

H = sum_{m=0}^{n-2} J_m (X_m X_{m+1} + Y_m Y_{m+1} + Z_m Z_{m+1})

Bit convention (global, used by every module): qubit 0 is the most
significant bit of a basis index, so |b0 b1 ... b_{n-1}> lives at index
int("b0 b1 ... b_{n-1}", 2).  H conserves total magnetization (bitstring
popcount), which lets us work on one sector block at a time instead of
the full 2^n matrix, for a batch of specs at once (spectral_measures): by
certified Lanczos quadrature from matrix-free H·v or by stacked dense eigh.
sector_eigensystem (one dense eigh) is the tests' reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

#: Largest sector block either oracle handles (covers n=16 at half
#: filling): the dense one holds d×d matrices, the Lanczos one a d-vector
#: per Krylov step.  Exceeding it raises ConfigError.
SECTOR_DIM_CAP = 20_000

#: Lanczos certificate: the depth grows by LANCZOS_STEP until the requested
#: integrals move by at most LANCZOS_TOL·max(1, |value|) between checkpoints.
LANCZOS_TOL = 1e-13
LANCZOS_STEP = 8
#: Smaller sectors are diagonalized densely, which is cheaper there: the
#: per-sample crossover for K=11 features lies between d=70 and d=126.
LANCZOS_MIN_DIM = 100
#: Dense sector blocks go through eigh in stacks of at most this many
#: entries (6 samples at d=70, 81 at d=20, one from d=129 up): a stack's
#: blocks, eigenvectors and their complex copy then stay near 1 MiB.
EIGH_STACK_ENTRIES = 2**15


class ConfigError(ValueError):
    """The package's refusal of an input: a qubit count, vector length,
    sector size, setting or file content it cannot work with."""


@dataclass(frozen=True)
class CouplingSpec:
    """A Heisenberg chain given by its bond couplings J_0..J_{n-2}.

    Sampled specs are normalized to sum_m |J_m| = 1; unnormalized specs are
    legal (spectral_bound still applies) but the dataset only contains
    normalized ones.
    """

    n: int
    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigError(f"need at least 2 qubits, got n={self.n}")
        if len(self.couplings) != self.n - 1:
            raise ConfigError(
                f"expected {self.n - 1} couplings for n={self.n}, "
                f"got {len(self.couplings)}"
            )
        if not all(math.isfinite(j) for j in self.couplings):
            raise ConfigError("couplings must be finite")


@dataclass(frozen=True)
class SectorBasis:
    """Canonically ordered basis of one magnetization sector.

    states holds the basis bitstrings as integers, strictly ascending; the
    position of integer s is its row/column in the sector block.
    """

    n: int
    magnetization: int
    states: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class SpectralMeasure:
    """Measures of a state ψ on one sector for b samples of a batch, one row
    each: sum_j p_j g(λ_j) = <ψ_k|g(H)|ψ_k>, arrays of shape (b, depth).

    Dense records hold all eigenvalues and p_l = |<λ_l|ψ>|² (depth d, gap
    0); Lanczos records (b = 1) hold Gauss nodes and weights, the Krylov
    depth, and the last relative change of the certified integrals (0:
    exhausted)."""

    magnetization: int
    eigenvalues: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)
    depth: int
    gap: float


def sample_couplings(n: int, rng: np.random.Generator) -> CouplingSpec:
    """Draw each J_m uniformly from [-1, 1] and normalize to sum |J_m| = 1.

    An all-zero draw (possible in principle with a quantized source) is
    rejected and redrawn so the normalization never divides by zero.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 qubits, got n={n}")
    while True:
        raw = rng.uniform(-1.0, 1.0, size=n - 1)
        total = float(np.sum(np.abs(raw)))
        if total > 0.0:
            break
    return CouplingSpec(n=n, couplings=tuple(float(j) for j in raw / total))


def spectral_bound(spec: CouplingSpec) -> float:
    """Triangle-inequality bound on ||H||: each bond term has norm 3, so
    ||H|| <= 3 sum_m |J_m| (= 3 exactly for normalized specs)."""
    return 3.0 * float(np.sum(np.abs(spec.couplings)))


def _state_array(specs, v) -> np.ndarray:
    """The amplitudes of v for a batch of specs, which must share n."""
    n = specs[0].n
    if any(spec.n != n for spec in specs):
        raise ConfigError("a batch of specs must share n")
    vec = np.asarray(getattr(v, "amplitudes", v))
    if vec.shape != (2**n,):
        raise ConfigError(f"state has shape {vec.shape}, expected ({2**n},)")
    return vec


def apply_hamiltonian(spec: CouplingSpec, v) -> np.ndarray:
    """Matrix-free H·v over the full 2^n space, one sector block at a time,
    so components never leave their magnetization sector."""
    vec = _state_array([spec], v)
    out = np.zeros(2**spec.n, dtype=complex)
    for k in occupied_magnetizations(spec.n, vec):
        basis, apply = _sector_operator(spec, k)
        out[basis.states] = apply(vec[basis.states])
    return out


@functools.lru_cache(maxsize=32)
def _sector_pattern(n: int, magnetization: int):
    """Coupling-independent structure of one sector block, built once per
    (n, magnetization) and read-only: the basis, the Z_m Z_{m+1} sign of
    every bond on every basis state (shape (n-1, d)), and the (rows, cols,
    bonds) entries of the bond flips |01> <-> |10>."""
    if not 0 <= magnetization <= n:
        raise ConfigError(f"magnetization {magnetization} outside 0..{n}")
    states = np.array(sorted(
        sum(1 << (n - 1 - q) for q in ones)
        for ones in combinations(range(n), magnetization)
    ), dtype=np.int64)
    bits = (states >> (n - 1 - np.arange(n))[:, None]) & 1  # bits[q] = qubit q
    differ = bits[:-1] != bits[1:]
    signs = np.where(differ, -1.0, 1.0)
    bonds, cols = np.nonzero(differ)
    rows = np.searchsorted(states, states[cols] ^ (3 << (n - 2 - bonds)))
    for arr in (states, signs, rows, cols, bonds):
        arr.flags.writeable = False
    return SectorBasis(n, magnetization, states), signs, rows, cols, bonds


def _check_dim(n: int, magnetization: int) -> None:
    if (dim := math.comb(n, magnetization)) > SECTOR_DIM_CAP:
        raise ConfigError(f"sector (n={n}, magnetization={magnetization})"
                          f" has dimension {dim} > cap {SECTOR_DIM_CAP}")


def _sector_operator(spec: CouplingSpec, magnetization: int):
    """(basis, x -> H·x) of one sector block, matrix-free: per bond, Z Z adds
    ±J_m on the diagonal (+ for equal bits) and X X + Y Y swaps |01> <-> |10>
    with amplitude 2 J_m, all bonds in one bincount."""
    basis, signs, rows, cols, bonds = _sector_pattern(spec.n, magnetization)
    j = np.asarray(spec.couplings)
    diag, vals = (j[:, None] * signs).sum(axis=0), 2.0 * j[bonds]

    def hop(part):
        return np.bincount(rows, vals * part[cols], minlength=basis.dim)

    def apply(x):  # bincount weights are real: phases ±i need two passes
        out = diag * x + hop(x.real)
        return out + 1j * hop(x.imag) if np.iscomplexobj(x) else out

    return basis, apply


def sector_states(n: int, magnetization: int) -> SectorBasis:
    """Ascending integer basis of the popcount-k sector (cached)."""
    return _sector_pattern(n, magnetization)[0]


def _sector_blocks(couplings: np.ndarray, magnetization: int) -> np.ndarray:
    """Dense sector blocks (B, d, d) for the rows of a (B, n-1) coupling
    array: the Z Z diagonal summed over bonds in order, then the flips."""
    n = couplings.shape[1] + 1
    basis, signs, rows, cols, bonds = _sector_pattern(n, magnetization)
    mat = np.zeros((len(couplings), basis.dim, basis.dim))
    diag = np.arange(basis.dim)
    mat[:, diag, diag] = (couplings[:, :, None] * signs).sum(axis=1)
    mat[:, rows, cols] += 2.0 * couplings[:, bonds]
    return mat


def sector_matrix(spec: CouplingSpec, basis: SectorBasis) -> np.ndarray:
    """Dense real-symmetric block of H on one magnetization sector."""
    return _sector_blocks(np.array([spec.couplings]), basis.magnetization)[0]


def sector_eigensystem(spec: CouplingSpec, magnetization: int):
    """Eigendecomposition (ascending eigenvalues, orthonormal columns) of the
    sector block, together with its basis."""
    _check_dim(spec.n, magnetization)
    basis = sector_states(spec.n, magnetization)
    evals, evecs = np.linalg.eigh(sector_matrix(spec, basis))
    return evals, evecs, basis


def occupied_magnetizations(n: int, vec: np.ndarray) -> list[int]:
    """Sectors carrying exactly nonzero amplitude (exact-zero test, so basis
    and superposition states never trigger spurious large-sector work)."""
    return sorted({int(i).bit_count() for i in np.nonzero(vec)[0]})


def spectral_measures(specs, v, integrand=None):
    """Measures of a state v under a batch of specs sharing n: yields the
    records of ψ's occupied sectors in ascending order, each sector's
    records covering the batch in order.  Sectors below LANCZOS_MIN_DIM (all
    when integrand is None) are exact, by eigh of stacked blocks.  The rest
    get certified Gauss quadrature per sample: Lanczos from the component c
    gives a depth-m tridiagonal T whose eigenpairs (θ_j, u_j) are the nodes
    and weights ||c||²·u_j[0]², exact to degree 2m-1 (Golub & Meurant,
    2010), deep enough that integrand(θ) @ weights settles."""
    n, vec = specs[0].n, _state_array(specs, v)
    couplings = np.array([spec.couplings for spec in specs])
    for k in occupied_magnetizations(n, vec):
        _check_dim(n, k)
        basis = sector_states(n, k)
        comp = vec[basis.states]
        if integrand is not None and basis.dim >= LANCZOS_MIN_DIM:
            yield from (_lanczos(spec, k, comp, integrand) for spec in specs)
            continue
        size = max(1, EIGH_STACK_ENTRIES // basis.dim**2)
        for start in range(0, len(specs), size):
            evals, evecs = np.linalg.eigh(
                _sector_blocks(couplings[start:start + size], k))
            probs = np.abs(evecs.transpose(0, 2, 1) @ comp) ** 2  # real evecs
            yield SpectralMeasure(k, evals, probs, basis.dim, gap=0.0)


def spectral_sum(specs, v, reduce, integrand=None) -> np.ndarray:
    """Sum over occupied sectors of reduce(eigenvalues, probabilities), which
    maps a record's (b, m) arrays to b rows, for every sample of the batch;
    integrand is spectral_measures'."""
    total, sector, start = None, None, 0
    for rec in spectral_measures(specs, v, integrand):  # reduced as made
        part = reduce(rec.eigenvalues, rec.probabilities)
        if total is None:  # zeros + part rounds like sum()'s 0 + part
            total = np.zeros((len(specs), *part.shape[1:]), part.dtype)
        if rec.magnetization != sector:  # each sector covers the batch anew
            sector, start = rec.magnetization, 0
        total[start:start + len(part)] += part
        start += len(part)
    return total


def _lanczos(spec: CouplingSpec, k: int, comp: np.ndarray, integrand):
    """Certified Lanczos record of the sector-k component comp."""
    breakdown = 1e-12 * spectral_bound(spec)  # residual of an invariant space
    _, apply = _sector_operator(spec, k)
    d = len(comp)
    comp = comp.real if not np.any(comp.imag) else comp
    weight = float(np.vdot(comp, comp).real)
    r, krylov = comp / math.sqrt(weight), np.empty((0, d), comp.dtype)
    alphas, betas, prev = [], [], np.inf  # first checkpoint: gap inf
    while True:  # grow the basis by LANCZOS_STEP rows per checkpoint
        m0 = len(alphas)
        krylov = np.concatenate(
            [krylov, np.empty((min(LANCZOS_STEP, d - m0), d), r.dtype)])
        for i in range(m0, len(krylov)):
            krylov[i], r = r, apply(r)
            alphas.append(np.vdot(krylov[i], r).real)
            for _ in range(2):  # classical Gram-Schmidt, twice
                r = r - np.conj(krylov[:i + 1] @ np.conj(r)) @ krylov[:i + 1]
            betas.append(np.linalg.norm(r))
            exhausted = i + 1 == d or betas[-1] <= breakdown  # exact
            if exhausted:
                break
            r = r / betas[-1]
        off = betas[:-1]
        nodes, u = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1)
                                  + np.diag(off, -1))
        weights = weight * u[0] ** 2
        value = integrand(nodes) @ weights
        gap = 0.0 if exhausted else float(
            np.max(np.abs(value - prev) / np.maximum(1.0, np.abs(value))))
        if gap <= LANCZOS_TOL:
            break
        prev = value
    return SpectralMeasure(k, nodes[None], weights[None], len(alphas), gap)


# --- JSONL interchange -------------------------------------------------

def coupling_record(spec: CouplingSpec) -> dict:
    """JSON-ready record; floats are emitted with 17 significant digits by
    the writers, which round-trips every IEEE double bit-exactly."""
    return {"n": spec.n, "couplings": list(spec.couplings)}


def coupling_from_record(record: dict) -> CouplingSpec:
    return CouplingSpec(n=int(record["n"]),
                        couplings=tuple(float(j) for j in record["couplings"]))
