"""Random 1-D Heisenberg chains with open boundaries.

H = sum_{m=0}^{n-2} J_m (X_m X_{m+1} + Y_m Y_{m+1} + Z_m Z_{m+1})

Bit convention (global, used by every module): qubit 0 is the most
significant bit of a basis index, so |b0 b1 ... b_{n-1}> lives at index
int("b0 b1 ... b_{n-1}", 2).  H conserves total magnetization (bitstring
popcount), which lets us work on one sector block at a time instead of
the full 2^n matrix, for a batch of specs at once (spectral_measures): by
certified Lanczos quadrature, chunks of samples in lockstep on matrix-free
H·V, or by stacked dense eigh per total-spin block ([H, S²] = 0).  Every
path enters through _sectors, held to SECTOR_BYTES_CAP before any build;
H·V and the spin blocks then look up a sector's cached pattern (basis, Z Z
signs, bonds' flip pairs), the Strang gates read the cone's from _sectors.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

#: Lanczos certificate: the depth grows by LANCZOS_STEP until the requested
#: integrals move by at most LANCZOS_TOL·max(1, |value|) between checkpoints.
LANCZOS_TOL = 1e-13
LANCZOS_STEP = 8
#: Smaller sectors are diagonalized densely.  ms per sample (one BLAS thread,
#: K=11 features/exp label, batches of 55, median of 3 runs), dense vs
#: Lanczos: d=70 0.37/0.33 vs 0.45/0.13; d=126 1.1/1.0 vs 0.56/0.16; d=252
#: 3.6/3.4 vs 0.72/0.26.  Kept at 100: 2,000 n=8 samples take 0.52-0.61 s
#: of amplitudes dense against 0.77-0.86 s Lanczos (exp labels 0.46-0.57 s
#: against 0.19 s), and step labels are dense at any d.
LANCZOS_MIN_DIM = 100
#: The one memory budget, checked by _sectors from counts before any
#: sector is built: a sector's pattern plus the path's own arrays, a dense
#: sector's spin blocks at their build's peak (n=12 at half filling: 78 MB
#: for a 50 MB peak; n=14's is refused), a Lanczos chunk or a Strang sweep's
#: components on ψ's cone.  A state is stored as its support (states).
SECTOR_BYTES_CAP = 10**9
#: Samples go through a sector in stacks of STACK_ENTRIES // sum_S d_S² for
#: dense eigh (22 at d=70, 248 at d=20) and of STACK_ENTRIES // 3d for
#: Lanczos (11 at d=924: three Krylov rows each), so that a stack's arrays
#: stay near 1 MiB: spin blocks, eigenvectors and their complex copy, or the
#: Krylov block and its flip terms (2P = 6d entries per row at n=12).
STACK_ENTRIES = 2**15


class ConfigError(ValueError):
    """The package's refusal of an input: a qubit count, state support,
    sector size, setting or file content it cannot work with."""


def _count(name: str, value, least: int = 0) -> int:
    """A count that enters the package: an int (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _real(name: str, value) -> float:
    """A real that enters the package (an int or finite float) as a float."""
    if isinstance(value, (int, float, np.integer)) and not isinstance(
            value, bool) and abs(value) <= sys.float_info.max:  # not nan, inf
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


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
        object.__setattr__(self, "n", _count("n", self.n, 2))
        if len(js := tuple(self.couplings)) != self.n - 1:
            raise ConfigError(f"expected {self.n - 1} couplings for "
                              f"n={self.n}, got {len(js)}")
        if not all(type(j) is float and math.isfinite(j) for j in js):
            js = tuple(_real("coupling", j) for j in js)  # the slow path
        object.__setattr__(self, "couplings", js)


@dataclass(frozen=True)
class SpectralMeasure:
    """Measures of a state ψ on one sector for b samples of a batch, one row
    each: sum_j p_j g(λ_j) = <ψ_k|g(H)|ψ_k>, arrays of shape (b, depth).

    Dense records hold all eigenvalues, ascending within each total-spin
    block and the blocks concatenated in ascending S, and p_l = |<λ_l|ψ>|²
    (depth d, gap 0); Lanczos records (b = 1) hold Gauss nodes and weights,
    the Krylov depth, and the last relative change of the certified
    integrals (0: exhausted)."""

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
    _count("n", n, 2)
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


@functools.lru_cache(maxsize=32)
def _sector_pattern(n: int, magnetization: int):
    """_pattern of a whole sector, built once per (n, magnetization)."""
    return _pattern(n, np.array(sorted(
        sum(1 << (n - 1 - q) for q in ones)
        for ones in combinations(range(n), magnetization)
    ), dtype=np.int64))


def _pattern(n: int, states):
    """Coupling-independent, read-only structure of d basis states of one
    sector (ascending integers, a state's position its row): the states, the
    Z_m Z_{m+1} sign of every bond on every state (shape (n-1, d)), the flip
    pairs (a, b) of every bond with both ends among the states, a = |..01..>
    and b = |..10..> on qubits m, m+1, ascending within a bond and the bonds
    in order (shape (2, P)), and bond m's at pairs[:, cut[m]:cut[m+1]]."""
    bits = (states >> (n - 1 - np.arange(n))[:, None]) & 1  # bits[q] = qubit q
    signs = np.where(bits[:-1] != bits[1:], -1.0, 1.0)
    bonds, a = np.nonzero(bits[:-1] < bits[1:])  # |01> on qubits m, m+1
    b = np.searchsorted(states, flipped := states[a] ^ (3 << (n - 2 - bonds)))
    keep = states[b % len(states)] == flipped  # b among the states too
    pairs, cut = np.stack([a, b])[:, keep], np.searchsorted(bonds[keep],
                                                            np.arange(n))
    for arr in (states, signs, pairs, cut):
        arr.flags.writeable = False
    return states, signs, pairs, cut


def _cone(n: int, states, layers, fits):
    """The basis states that states (ascending, one sector) reach through
    layers of gates that swap 01 <-> 10 on their bonds, each layer a group
    of bonds: a brick wall's causal cone (Lieb & Robinson, Commun. Math.
    Phys. 28, 251, 1972), ascending, closed bond by bond while fits(size)."""
    for m in (m for bonds in layers for m in bonds):
        if not fits(len(states)):
            break
        mask = 3 << (n - 2 - m)  # qubits m and m+1
        flipped = states[(states & mask) % mask > 0] ^ mask  # pairs' far ends
        at = np.searchsorted(states, flipped) % len(states)
        new = np.sort(flipped[states[at] != flipped])  # each added once
        states = np.sort(np.concatenate([states, new]), kind="stable")
    return states


def _sector_operator(couplings, magnetization: int):
    """X -> H·X on one sector block, matrix-free, row b of X (B, d) under
    couplings[b] (B, n-1): per bond, Z Z adds ±J_m on the diagonal (+ for
    equal bits) and X X + Y Y swaps each flip pair with amplitude 2 J_m, all
    bonds and rows in one bincount at flat index b·d + row."""
    j = np.asarray(couplings, dtype=float)
    _, signs, pairs, cut = _sector_pattern(j.shape[1] + 1, magnetization)
    diag = sum((j[:, m, None] * signs[m] for m in range(1, len(signs))),
               j[:, 0, None] * signs[0])  # bond by bond: (B, d) at a time
    # bond by bond, its a's then its b's: each row's terms stay in bond
    # order, and each half reads and writes ascending indices
    bonds = [pairs[:, lo:hi] for lo, hi in zip(cut[:-1], cut[1:])]
    cols = np.concatenate([ab[::-1] for ab in bonds], axis=None)
    rows = (np.concatenate(bonds, axis=None)
            + diag.shape[1] * np.arange(len(j))[:, None]).ravel()
    scale = 2.0 * j[:, :, None]  # every bond flips _bond_pairs pairs

    def hop(part):  # gathered per row, scaled per bond, scattered flat
        terms = part.take(cols, axis=1).reshape(*scale.shape[:2], -1)
        terms *= scale
        return np.bincount(rows, terms.ravel(),
                           minlength=diag.size).reshape(diag.shape)

    def apply(x):  # bincount weights are real: phases ±i need two passes
        out = hop(x.real) + diag * x
        if np.iscomplexobj(x):
            out += 1j * hop(x.imag)
        return out

    return apply


def _bond_pairs(n: int, k: int) -> int:
    """Flip pairs of each bond in sector k: C(n-2, k-1), 0 at k = 0 or n."""
    return k and math.comb(n - 2, k - 1)


def _sector_bytes(n: int, k: int, d: int | None = None) -> int:
    """Bytes of _sector_pattern(n, k) from counts: 8 per state and Z Z sign,
    16 per flip pair, _bond_pairs per bond, 8 per bond offset; of a cone of
    d < C(n, k) of its states, each the a end of at most min(k, n-k) pairs."""
    d, pairs = d or math.comb(n, k), (n - 1) * _bond_pairs(n, k)
    pairs = pairs if d == math.comb(n, k) else d * min(k, n - k)
    return 8 * n * d + 16 * pairs + 8 * n


def _lanczos_bytes(n: int, k: int, b: int) -> int:
    """Bytes of a Lanczos chunk of b samples on sector k at its peak, as
    samples retire (H·V's 2P flip terms take less): per sample three complex
    Krylov rows, compacted copies of two, and the old and new operators'
    Z Z diagonals and 2P row indexes; per chunk their 2P columns and more."""
    d, pairs = math.comb(n, k), (n - 1) * _bond_pairs(n, k)
    return b * (96 * d + 32 * pairs) + 48 * pairs


def _sectors(specs, v, extra_bytes, layers=()):
    """The one way into a state's sectors for a batch of specs sharing n:
    (k, pattern, component) for each sector k where v is exactly nonzero,
    ascending, on v's cone there with layers (as _cone reads them; uncached
    unless it fills the sector).  extra_bytes(k, d) gives the calling path's
    bytes on d rows of sector k and what they hold; with the pattern's, each
    total is held to SECTOR_BYTES_CAP, as a cone grows and before any build."""
    n = specs[0].n
    if any(spec.n != n for spec in specs) or v.n != n:
        raise ConfigError("a batch of specs and its state must share n")
    ones, rows = np.bitwise_count(v.support), {}  # sector: cone, None if whole
    for k in sorted(set(ones.tolist())):
        whole = math.comb(n, k)
        cone = _cone(n, v.support[ones == k], layers, lambda d: d < whole and (
            _sector_bytes(n, k, d) + extra_bytes(k, d)[0] <= SECTOR_BYTES_CAP))
        d = len(cone) if layers else whole
        rows[k] = cone if d < whole else None
        size, what = extra_bytes(k, d)
        if (size := size + _sector_bytes(n, k, d)) > SECTOR_BYTES_CAP:
            raise ConfigError(f"sector (n={n}, magnetization={k}) needs "
                              f"{'at least ' * (d < whole)}{size / 1e9:.1f} "
                              f"GB of {what} > cap "
                              f"{SECTOR_BYTES_CAP / 1e9:g} GB")
    patterns = (_sector_pattern(n, k) if cone is None else _pattern(n, cone)
                for k, cone in rows.items())  # lazy
    return ((k, p, v.on(p[0])) for k, p in zip(rows, patterns))


@functools.lru_cache(maxsize=32)
def _spin_blocks(n: int, magnetization: int):
    """Total-spin decomposition of one sector block, coupling-independent
    and read-only: per S² eigenspace, in ascending S, its orthonormal basis
    Q_S (d, d_S) and the bond operators Q_Sᵀ P_m Q_S (n-1, d_S, d_S), with
    P_m = X X + Y Y + Z Z on bond m.  Every H commutes with S² = sum_{i<j}
    SWAP_ij + n(4-n)/4, so Q_Sᵀ H Q_S' = 0 for S != S' (Weiße & Fehske,
    Lect. Notes Phys. 739, 2008).  Eigenspaces are told apart by 2S, an
    integer (S itself is a half-integer at odd n)."""
    states, signs, pairs, cut = _sector_pattern(n, magnetization)
    ones = magnetization
    p, q = np.triu_indices(n, 1)  # bit positions of the qubit pairs
    pair, col = np.nonzero((states >> p[:, None] ^ states >> q[:, None]) & 1)
    s2 = np.eye(len(states)) * (len(p) - ones * (n - ones) + n * (4 - n) / 4)
    s2[np.searchsorted(states, states[col] ^ (1 << p | 1 << q)[pair]), col] = 1
    evals, vecs = np.linalg.eigh(s2)  # S(S+1), ascending
    del s2  # freed before the blocks are built
    vecs.flags.writeable = False  # and so are its views, the Q_S
    two_s = np.rint(np.sqrt(4 * evals + 1) - 1)
    blocks = []
    for q_s in np.split(vecs, np.flatnonzero(np.diff(two_s)) + 1, axis=1):
        pq = signs[:, :, None] * q_s  # P_m Q_S for every bond m
        for m, (a, b) in enumerate(np.split(pairs, cut[1:-1], axis=1)):
            pq[m, a] += 2.0 * q_s[b]  # bond by bond: (P/(n-1), d_S) rows
            pq[m, b] += 2.0 * q_s[a]
        blocks.append((q_s, q_s.T @ pq))
        blocks[-1][1].flags.writeable = False
        del pq  # freed before the next block's is built
    return tuple(blocks)


def spectral_measures(specs, v, integrand=None):
    """Measures of a state v under a batch of specs sharing n: yields the
    records of ψ's occupied sectors in ascending order, each sector's
    records covering the batch in order.  Sectors below LANCZOS_MIN_DIM (all
    when integrand is None) are exact: stacked eigh per spin block.  The rest
    get certified Gauss quadrature, chunks of samples in lockstep: Lanczos
    from the component c gives each a depth-m tridiagonal T whose eigenpairs
    (θ_j, u_j) are the nodes and weights ||c||²·u_j[0]², exact to degree
    2m-1 (Golub & Meurant, 2010), deep enough that the integrals settle of
    integrand(θ), which maps nodes (..., m) to values (..., [J,] m)."""
    n = specs[0].n

    def chunk(k):  # samples per Lanczos chunk, 0 on the dense path
        dim = math.comb(n, k)
        return 0 if integrand is None or dim < LANCZOS_MIN_DIM else min(
            len(specs), max(1, STACK_ENTRIES // (3 * dim)))

    def extra_bytes(k, d):  # a Lanczos chunk, or the spin blocks' build
        if size := chunk(k):
            return _lanczos_bytes(n, k, size), "pattern and Lanczos chunk"
        dims = [math.comb(n, t) - (t and math.comb(n, t - 1))  # d_S, S = n/2-t
                for t in range(min(k, n - k) + 1)]
        # every Q_S and bond operator, S², eigh's copy and workspace (3d²),
        # the largest block's P_m Q_S and one bond's 3 gathered (pairs, d_S)
        return 8 * ((n - 1) * sum(x * x for x in dims) + 5 * d * d + max(
            dims) * ((n - 1) * d + 3 * _bond_pairs(n, k))), "spin blocks"

    sectors = _sectors(specs, v, extra_bytes)  # checks specs share n
    couplings = np.array([spec.couplings for spec in specs])
    for k, _, comp in sectors:
        if size := chunk(k):
            for start in range(0, len(specs), size):
                yield from _lanczos(couplings[start:start + size], k, comp,
                                    integrand)
            continue
        blocks = [(q_s.T @ comp, b) for q_s, b in _spin_blocks(n, k)]
        size = max(1, STACK_ENTRIES // sum(b[0].size for _, b in blocks))
        for start in range(0, len(specs), size):
            j = couplings[start:start + size, :, None, None]
            # summed per sample: j @ b would round as one GEMM for the stack
            eigs = [np.linalg.eigh((j * b).sum(axis=1)) for _, b in blocks]
            probs = [np.abs(u.transpose(0, 2, 1) @ x) ** 2  # real u
                     for (_, u), (x, _) in zip(eigs, blocks)]
            yield SpectralMeasure(k, np.hstack([lam for lam, _ in eigs]),
                                  np.hstack(probs), len(comp), 0.0)


def _integral(integrand, nodes, weights):
    """sum_j w_j g(θ_j) per row of (b, m) nodes θ and weights w, g the
    integrand, for spectral_sum's records and _lanczos's certificate alike:
    a matrix-vector product per sample for (b, J, m) values, else a sum."""
    values = integrand(nodes)
    if values.ndim > weights.ndim:  # a block of J integrands
        return (values @ weights[..., None])[..., 0]
    return np.sum(weights * values, axis=-1)


def spectral_sum(specs, v, integrand, dense=False) -> np.ndarray:
    """<ψ|g(H)|ψ> for every sample of the batch, g = integrand (as in
    spectral_measures) summed over occupied sectors; dense puts every sector
    on the exact path (steps, where quadrature does not converge)."""
    parts = {}  # ascending sectors, each one's records in batch order
    for rec in spectral_measures(specs, v, None if dense else integrand):
        parts.setdefault(rec.magnetization, []).append(
            _integral(integrand, rec.eigenvalues, rec.probabilities))
    # from 0, sector by sector: one running total's rounding
    return sum(np.concatenate(part) for part in parts.values())


def _lanczos(couplings, k: int, comp: np.ndarray, integrand):
    """Certified Lanczos records of the sector-k component comp, one per row
    of couplings (B, n-1), in order.  The rows run in lockstep on a (B, d)
    block by the three-term recurrence, whose Gauss quadrature stays
    accurate in finite precision without reorthogonalization (Greenbaum,
    Lin. Alg. Appl. 113, 7, 1989); each row's dots run along its own
    contiguous row, so its arithmetic does not depend on B.  A row retires
    at the first checkpoint (every LANCZOS_STEP steps) where its integrals
    settle, or as soon as its Krylov space is exhausted (gap 0)."""
    d, records = len(comp), [None] * len(couplings)
    comp = comp.real if not np.any(comp.imag) else comp
    weight = float(np.vdot(comp, comp).real)
    live = np.arange(len(couplings))  # the batch rows still running
    v = np.repeat(comp[None] / math.sqrt(weight), len(live), axis=0)
    v_prev, beta, steps, prev = np.zeros_like(v), np.zeros(len(v)), [], np.inf
    breakdown = 1e-12 * (3.0 * np.abs(couplings).sum(axis=1))  # spectral_bound
    apply = _sector_operator(couplings, k)
    while True:
        w = apply(v)
        v_prev *= beta[:, None]  # in place: a chunk's block is large
        w -= v_prev
        alpha = np.vecdot(v, w, axis=1).real  # one dot per row
        w -= alpha[:, None] * v
        beta = np.sqrt(np.vecdot(w, w, axis=1).real)
        steps.append(np.array([alpha, beta]))
        m, checkpoint = len(steps), len(steps) % LANCZOS_STEP == 0
        # gap 0: the Krylov space is exhausted and the quadrature exact
        gaps = np.where((beta <= breakdown[live]) | (m == d), 0.0, np.inf)
        if checkpoint or not gaps.all():
            a, b = np.stack(steps, axis=2)[:, :, None]  # each row's T:
            t = np.eye(m) * a + np.eye(m, k=-1) * b  # eigh reads lower half
            nodes, u = np.linalg.eigh(t)
            weights = weight * u[:, 0] ** 2
            if checkpoint:
                value = _integral(integrand, nodes, weights)
                change = np.abs(value - prev) / np.maximum(1.0, np.abs(value))
                gaps = np.minimum(gaps, change.reshape(len(live), -1).max(1))
                prev = value
            done = gaps <= LANCZOS_TOL
            for row, x, p, gap in zip(live[done], nodes[done], weights[done],
                                      gaps[done]):
                records[row] = SpectralMeasure(k, x[None], p[None], m,
                                               float(gap))
            if done.all():
                return records
            if done.any():  # the rest go on without them
                keep = ~done
                live, v, w, beta = live[keep], v[keep], w[keep], beta[keep]
                steps = [step[:, keep] for step in steps]
                prev = prev if np.isscalar(prev) else prev[keep]
                apply = _sector_operator(couplings[live], k)
        w /= beta[:, None]
        v_prev, v = v, w

