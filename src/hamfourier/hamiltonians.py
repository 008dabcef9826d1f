"""Random 1-D Heisenberg chains with open boundaries.

H = sum_{m=0}^{n-2} J_m (X_m X_{m+1} + Y_m Y_{m+1} + Z_m Z_{m+1})

Bit convention (global, used by every module): qubit 0 is the most
significant bit of a basis index, so |b0 b1 ... b_{n-1}> lives at index
int("b0 b1 ... b_{n-1}", 2).  H conserves total magnetization (bitstring
popcount), which lets us work on one sector block at a time instead of
the full 2^n matrix, for a batch of specs at once (spectral_measures): a
sum of exponentials (every feature phase and label but a step) from
Chebyshev moments in lockstep on matrix-free H·V, its truncation bound
fixed before the first product; a step, no integrand, or a sample whose
moments' rounding would pass their bound, from stacked dense eigh per
total-spin block ([H, S²] = 0).  Every path enters through
_sectors, held to SECTOR_BYTES_CAP before any build; H·V and the spin
blocks then look up a sector's cached pattern (basis, Z Z signs, bonds'
flip pairs), the Strang gates read the cone's (no signs) from _sectors.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

#: a smooth integral takes the fewest moments whose bound is at most this
MOMENT_TOL = 1e-13
#: The one memory budget, checked by _sectors from counts before any
#: sector is built: a sector's pattern plus the path's own arrays, a dense
#: sector's spin blocks at their build's peak (n=12 at half filling: 78 MB
#: for a 50 MB peak; n=14's is refused), a chunk of moments or a Strang
#: sweep's components on ψ's cone.  A state is stored as its support.
SECTOR_BYTES_CAP = 10**9
#: Samples go through a sector in stacks of STACK_ENTRIES // sum_S d_S² for
#: dense eigh (22 at d=70) and chunks of STACK_ENTRIES // 3d for moments (11
#: at d=924, 156 at d=70: three rows of the recurrence each), so that their
#: arrays stay near 1 MiB (H·V adds 2P = 6d flip terms per row at n=12).
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


class ExponentialSum(NamedTuple):
    """J smooth integrands g_j(θ) = sum_m weights[j, m] e^{rates[m] θ}: every
    feature phase and every label but a step."""

    rates: np.ndarray  # (M,)
    weights: np.ndarray  # (J, M)


@dataclass(frozen=True)
class SpectralMeasure:
    """The exact measure of a state ψ on one sector for b samples of a
    batch, one row each: sum_j p_j g(λ_j) = <ψ_k|g(H)|ψ_k>, arrays of shape
    (b, d), all eigenvalues, ascending within each total-spin block and the
    blocks concatenated in ascending S, and p_l = |<λ_l|ψ>|²."""

    magnetization: int
    eigenvalues: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ChebyshevMoments:
    """Moments μ_j = <ψ_k|T_j(x)|ψ_k>, j < order, of a state ψ on one sector
    for b samples sharing a half-width h, one row each: x = (H - centre)/h
    (0 where h = 0), centre = -sum_m J_m, h >= 2 sum_m |J_m| >= ||H - centre||;
    coefficients a_mj of e^{ω_m h x} for the integrand's rates (shared by
    the records of one h); bound caps the error in one sample's integral
    of the integrand cut after order terms, rounding (b, J) estimates the
    error of its arithmetic (spectral_sum)."""

    magnetization: int
    moments: np.ndarray = field(repr=False)
    centre: np.ndarray = field(repr=False)
    half_width: float
    order: int
    bound: float
    coefficients: np.ndarray = field(repr=False)
    rounding: np.ndarray = field(repr=False)


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
    """_pattern of a whole sector with its Z Z signs, built once per (n,
    magnetization)."""
    return _pattern(n, np.array(sorted(
        sum(1 << (n - 1 - q) for q in ones)
        for ones in combinations(range(n), magnetization)
    ), dtype=np.int64), signs=True)


def _pattern(n: int, states, signs=False):
    """Coupling-independent, read-only structure of d basis states of one
    sector (ascending integers, a state's position its row): the states, the
    Z_m Z_{m+1} sign of every bond on every state (shape (n-1, d); None
    unless signs, as only H·V reads them), the flip pairs (a, b) of every
    bond with both ends among the states, a = |..01..> and b = |..10..> on
    qubits m, m+1, ascending within a bond and the bonds in order (shape
    (2, P)), and bond m's at pairs[:, cut[m]:cut[m+1]]."""
    bits = (states >> (n - 1 - np.arange(n))[:, None]) & 1  # bits[q] = qubit q
    signs = np.where(bits[:-1] != bits[1:], -1.0, 1.0) if signs else None
    bonds, a = np.nonzero(bits[:-1] < bits[1:])  # |01> on qubits m, m+1
    b = np.searchsorted(states, flipped := states[a] ^ (3 << (n - 2 - bonds)))
    keep = states[b % len(states)] == flipped  # b among the states too
    pairs, cut = np.stack([a, b])[:, keep], np.searchsorted(bonds[keep],
                                                            np.arange(n))
    for arr in (states, signs, pairs, cut):
        if arr is not None:
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


def _sector_operator(couplings, magnetization: int, shift=0.0):
    """X -> H·X on one sector block, matrix-free, row b of X (B, d) under
    couplings[b] (B, n-1): per bond, Z Z adds ±J_m on the diagonal (+ for
    equal bits) and X X + Y Y swaps each flip pair with amplitude 2 J_m, all
    bonds and rows in one bincount at flat index b·d + row; plus shift[b]."""
    j = np.asarray(couplings, dtype=float)
    _, signs, pairs, cut = _sector_pattern(j.shape[1] + 1, magnetization)
    diag = sum((j[:, m, None] * signs[m] for m in range(1, len(signs))),
               j[:, 0, None] * signs[0] + np.reshape(shift, (-1, 1)))
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
    d < C(n, k) of its states, 8 per state (no signs), each the a end of at
    most min(k, n-k) pairs."""
    if (d := d or math.comb(n, k)) < math.comb(n, k):
        return 8 * d * (1 + 2 * min(k, n - k)) + 8 * n
    return 8 * n * d + 16 * (n - 1) * _bond_pairs(n, k) + 8 * n


def _moment_bytes(n: int, k: int, b: int, order: int) -> int:
    """Peak bytes of b samples' moments on sector k: per sample 3 complex
    rows, H·V's diagonal, partial products, 2P row indexes and flip terms,
    and order moments; per chunk H·V's 2P columns and their copy."""
    d, pairs = math.comb(n, k), (n - 1) * _bond_pairs(n, k)
    return b * (96 * d + 32 * pairs + 8 * order) + 32 * pairs


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
    records covering the batch in order: without an integrand exact
    SpectralMeasures, by stacked eigh per spin block; for an ExponentialSum
    ChebyshevMoments of runs of samples sharing a half-width, in chunks."""
    n = specs[0].n
    # 2 sum_m |J_m| (bond terms J P_m have eigenvalues J and -3J), rounded up
    # past 1e-6 to a multiple of 2^-16: a normalized batch shares one width
    widths = np.ceil(np.array([sum(map(abs, s.couplings)) for s in specs])
                     * (2 + 2e-6) * 65536) / 65536
    plans = {} if integrand is None else {
        h: _expansion(integrand, h) for h in set(widths.tolist())}
    depth = max((plan[0] for plan in plans.values()), default=1)

    def chunk(k):  # samples per chunk of moments
        return min(len(specs), max(1, STACK_ENTRIES // (3 * math.comb(n, k))))

    def extra_bytes(k, d):  # a chunk of moments, or the spin blocks' build
        if integrand is not None:
            return (_moment_bytes(n, k, chunk(k), depth),
                    "pattern and moment chunk")
        dims = [math.comb(n, t) - (t and math.comb(n, t - 1))  # d_S, S = n/2-t
                for t in range(min(k, n - k) + 1)]
        # every Q_S and bond operator, S², eigh's copy and workspace (3d²),
        # the largest block's P_m Q_S and one bond's 3 gathered (pairs, d_S)
        return 8 * ((n - 1) * sum(x * x for x in dims) + 5 * d * d + max(
            dims) * ((n - 1) * d + 3 * _bond_pairs(n, k))), "spin blocks"

    sectors = _sectors(specs, v, extra_bytes)  # checks specs share n
    couplings = np.array([spec.couplings for spec in specs])
    for k, _, comp in sectors:
        if integrand is not None:
            weight = float(np.vdot(comp, comp).real)
            edges = sorted({*range(0, len(specs), chunk(k)), len(specs),
                            *(np.flatnonzero(np.diff(widths)) + 1).tolist()})
            for a, b in zip(edges, edges[1:]):
                order, bound, table, growth = plans[h := widths[a]]
                centre = -couplings[a:b].sum(axis=1)
                rounding = np.exp(np.outer(centre, integrand.rates.real)) * (
                    np.finfo(float).eps * weight * growth)
                yield ChebyshevMoments(
                    k, _moments(couplings[a:b], k, comp, h, order), centre,
                    float(h), order, weight * bound, table,
                    rounding @ np.abs(integrand.weights).T)
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
                                  np.hstack(probs))


def _truncation(integrand: ExponentialSum, h: float):
    """(N, bound): the fewest moments N, odd, whose bound for a unit state at
    half-width h, max_j sum_m |w_jm| e^{|Re ω_m| h/2} t_m (>= |e^{ω_m c}|),
    is at most MOMENT_TOL (else the last candidate); t_m = 4 sum_{j>=N}
    |I_j(ω_m h)| covers the cut coefficients 2 I_j of e^{ω_m h x} and their
    aliases in the 2N-point interpolant, with |I_j(z)| <= (|z|/2)^j
    e^{|z|²/(4(j+1))}/j!, no exponential for imaginary z (|J_j|, Abramowitz
    & Stegun 9.1.62; Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984)."""
    tau = np.abs(integrand.rates)[:, None] * h
    n = np.arange(1, 2 * math.ceil(tau.max(initial=0)) + 66, 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = 4 * np.exp(n * np.log(tau / 2) - np.cumsum(np.log(np.arange(
            1, n[-1] + 1)))[n - 1] - np.log1p(-tau / (2 * n + 2)) + (
                integrand.rates.real != 0)[:, None] * tau * tau / (4 * n + 4))
        bounds = (np.abs(integrand.weights) * np.exp(np.abs(
            integrand.rates.real) * h / 2) @ np.where(
                tau < 2 * n + 2, t, np.inf)).max(axis=0, initial=0.0)
    fits = bounds <= MOMENT_TOL  # nan (0·inf) where the series diverges
    at = np.argmax(fits) if fits.any() else -1
    return int(n[at]), float(bounds[at])


def _moments(couplings, k: int, comp: np.ndarray, h: float, order: int):
    """μ_j = <c|T_j(x)|c>, j < order (odd), x = (H - centre)/h, of the
    sector-k component c per row of couplings (B, n-1), in lockstep on a
    (B, d) block, real for a real c: v_p+1 = 2x·v_p - v_p-1, v_1 = x·c,
    μ_2p = 2<v_p|v_p> - μ_0, μ_2p-1 = 2<v_p-1|v_p> - μ_1 (Weiße et al., Rev.
    Mod. Phys. 78, 275, 2006); a row's arithmetic does not depend on B."""
    j = np.asarray(couplings) * (2.0 / h if h else 0.0)  # x = 0 where H = 0
    two_x = _sector_operator(j, k, shift=j.sum(axis=1))  # 2(H - centre)/h
    v = np.repeat((comp if np.any(comp.imag) else comp.real)[None], len(j), 0)
    mu, prev = np.empty((len(j), order)), None
    mu[:, 0] = np.vecdot(v, v).real
    for p in range(1, order // 2 + 1):
        w = two_x(v)
        if prev is None:
            w /= 2.0
        else:
            w -= prev
        odd = np.vecdot(v, w).real
        mu[:, 2 * p - 1] = odd if prev is None else 2.0 * odd - mu[:, 1]
        mu[:, 2 * p] = 2.0 * np.vecdot(w, w).real - mu[:, 0]
        prev, v = v, w
    return mu


def _expansion(integrand: ExponentialSum, h: float):
    """(N, bound, a_mj, growth_m) at half-width h: _truncation's N and
    bound, the coefficients a_mj, j < N, of e^{ω_m h x} = sum_j a_mj T_j(x)
    interpolated at cos θ_p, θ_p = π(p + 1/2)/2N, p < 2N, and the rounding
    growth sum_j |a_mj| times N for a real rate, whose coefficients keep
    one sign pattern and so round alike, and √N for an imaginary one, whose
    turn by i^j (the largest errors seen, against the dense eigh at n <= 12:
    1.4 and 1.0 times these)."""
    order, bound = _truncation(integrand, h)
    theta = np.pi * (np.arange(2 * order) + 0.5) / (2 * order)
    table = np.exp(np.outer(integrand.rates * h, np.cos(theta))) @ np.cos(
        np.outer(theta, np.arange(order))) / order
    table[:, 0] /= 2
    return order, bound, table, np.abs(table).sum(axis=1) * np.where(
        integrand.rates.real != 0, order, math.sqrt(order))


def _integral(rec: ChebyshevMoments, integrand: ExponentialSum):
    """sum_m w_jm e^{ω_m·centre} sum_j a_mj μ_j per sample of a record,
    (b, J), cut at its order; per sample, as one GEMM for the record would
    round by its size."""
    terms = (rec.coefficients @ rec.moments[..., None])[..., 0]
    terms *= np.exp(np.outer(rec.centre, integrand.rates))
    return (integrand.weights @ terms[..., None])[..., 0]


def _over_sectors(parts):
    """Sum (magnetization, rows) pairs over sectors, each sector's rows in
    batch order; from 0, sector by sector: one running total's rounding."""
    rows = {}
    for k, part in parts:
        rows.setdefault(k, []).append(part)
    return sum(np.concatenate(part) for part in rows.values())


def _dense_sum(specs, v, g):
    """(sum_l p_l g(λ_l) per sample over the dense records, g mapping
    eigenvalues (b, d) to (b, ..., d); its leak): a rounding of about eps
    in each of the d components of ψ_k leaks about eps² d μ_0 onto every
    eigenvalue, which moves the sum by up to that times max_l |g(λ_l)|."""
    parts, leaks = [], []
    for rec in spectral_measures(specs, v):
        values = g(rec.eigenvalues)
        p = rec.probabilities.reshape(len(values), *(1,) * (values.ndim - 2),
                                      -1)
        parts.append((rec.magnetization, np.sum(p * values, axis=-1)))
        leaks.append((rec.magnetization, np.sum(p, axis=-1) * np.max(
            np.abs(values), axis=-1) * np.finfo(float).eps ** 2 * p.shape[-1]))
    return _over_sectors(parts), _over_sectors(leaks)


def spectral_sum(specs, v, integrand) -> np.ndarray:
    """<ψ|g(H)|ψ> per sample, summed over occupied sectors: an ExponentialSum
    (B, J) as sum_m w_jm e^{ω_m·centre} sum_j a_mj μ_j, or over the dense
    records for a sample whose rounding estimate passes MOMENT_TOL·max(1,
    |value|) (an exp of large β·h, whose terms cancel), refused where those
    do not fit or leak past it too; any other g (a step; (B,)) as
    sum_l p_l g(λ_l)."""
    if not isinstance(integrand, ExponentialSum):
        return _dense_sum(specs, v, integrand)[0]
    parts = [(rec.magnetization, rec.rounding, _integral(rec, integrand))
             for rec in spectral_measures(specs, v, integrand)]
    value = _over_sectors((k, y) for k, _, y in parts)
    rounding = _over_sectors((k, r) for k, r, _ in parts)
    lost = np.flatnonzero(np.any(rounding > MOMENT_TOL * np.maximum(
        1.0, np.abs(value)), axis=-1))
    if not lost.size:
        return value
    what = (f"{lost.size} sample(s) lose digits to rounding in Chebyshev "
            f"moments (estimate {np.max(rounding[lost]):.1e})")
    try:
        value[lost], leak = _dense_sum(
            [specs[b] for b in lost], v, lambda lam: integrand.weights
            @ np.exp(integrand.rates[:, None] * lam[:, None]))
    except ConfigError as err:
        raise ConfigError(f"{what}, and their dense path does not fit: "
                          f"{err}") from err
    if np.any(leak > MOMENT_TOL * np.maximum(1.0, np.abs(value[lost]))):
        raise ConfigError(f"{what}, and in the dense path a rounding of ψ "
                          f"moves them by up to {np.max(leak):.1e}")
    return value
