"""Time evolution under a coupling spec, and the amplitude layer of the
feature map: amplitude_rows(specs, ψ, times, schedule) = <ψ|U(t_l)|ψ> for
a batch of specs (amplitudes: a batch of one), with U(t) = e^{-iHt} from
one spectral measure of ψ per sample (hamiltonians.spectral_measures) or,
when a schedule is given, the Strang circuit with schedule[l] steps.
exact_evolve (dense sector eigh) is the tests' reference for both.

The Strang splitting groups bonds by parity of the bond index m: terms
within H_odd (m = 1, 3, ...) act on disjoint qubit pairs and commute, same
for H_even (m = 0, 2, ...), so each group exponentiates as a product of
closed-form two-qubit gates.  One step with dt = t/n_step is

    exp(-i dt/2 H_odd) · exp(-i dt H_even) · exp(-i dt/2 H_odd)

repeated n_step times.  Every gate conserves magnetization, so the circuit
runs on ψ's occupied sectors with all times in one pass: each component is
a (d, K+1) array, one column per t_l, and step s gives θ = 0 (the exact
identity) to the columns with schedule[l] <= s.  A bond gate is two row
operations: rows with equal bits m, m+1 pick up e^{-iθ}, flip rows mix with
their partners.  Cost per sample: O(max schedule · bonds · d · K).
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import (
    ConfigError,
    CouplingSpec,
    _sector_pattern,
    _state_array,
    occupied_magnetizations,
    sector_eigensystem,
    spectral_sum,
)
from .states import StateVector


def heisenberg_gate(j, dt) -> np.ndarray:
    """exp(-i·θ·(XX+YY+ZZ)) with θ = j·dt, in closed form; array j or dt
    broadcast to a stack of gates of shape θ.shape + (4, 4).

    |00> and |11> pick up e^{-iθ}; on span{|01>, |10>} the bond term is
    -I + 2·SWAP, giving the block e^{+iθ}(cos 2θ · I - i sin 2θ · SWAP).
    """
    theta = np.multiply(j, dt)
    u = np.zeros(theta.shape + (4, 4), dtype=complex)
    u[..., 0, 0] = u[..., 3, 3] = np.exp(-1j * theta)
    mid = np.exp(1j * theta)
    u[..., 1, 1] = u[..., 2, 2] = mid * np.cos(2 * theta)
    u[..., 1, 2] = u[..., 2, 1] = mid * (-1j) * np.sin(2 * theta)
    return u


def _strang_sectors(spec: CouplingSpec, vec: np.ndarray, times, steps):
    """The Strang circuit with steps[l] steps of dt = times[l]/steps[l], for
    all l in one pass: per occupied sector of vec, (basis states, component
    c, V) with V[:, l] the evolved component for time l."""
    n, j = spec.n, np.asarray(spec.couplings)
    steps = np.asarray(steps)
    dt = np.asarray(times, dtype=float) / steps
    order = [*range(1, n - 1, 2), *range(0, n - 1, 2), *range(1, n - 1, 2)]
    sweep = []  # (bond, its gates over l) in circuit order; θ = 0 when done
    for s in range(steps.max()):
        dt_s = np.where(steps > s, dt, 0.0)
        half, full = heisenberg_gate(j[:, None], dt_s / 2), heisenberg_gate(
            j[:, None], dt_s)
        sweep += [(m, (half if m % 2 else full)[m]) for m in order]
    for k in occupied_magnetizations(n, vec):
        basis, _, rows, cols, bonds = _sector_pattern(n, k)
        cut = np.searchsorted(bonds, np.arange(n))  # bond m: cut[m]:cut[m+1]
        c = vec[basis.states]
        v = np.repeat(c[:, None], len(dt), axis=1)
        for m, u in sweep:  # flip rows mix with partners, the rest get e^{-iθ}
            f = slice(cut[m], cut[m + 1])
            mixed = u[:, 1, 1] * v[cols[f]] + u[:, 1, 2] * v[rows[f]]
            v *= u[:, 0, 0]
            v[cols[f]] = mixed
        yield basis.states, c, v


def trotter_evolve(spec: CouplingSpec, v: StateVector, t: float,
                   n_step: int) -> StateVector:
    """n_step symmetric Strang steps approximating exp(-iHt)·v.

    Exactly unitary and exactly magnetization-conserving for any n_step
    (every factor is); the approximation error is O((t/n_step)^2) globally.
    """
    if n_step < 1:
        raise ConfigError(f"n_step must be >= 1, got {n_step}")
    out = np.zeros(2**spec.n, dtype=complex)
    for states, _, evolved in _strang_sectors(spec, _state_array([spec], v),
                                              [t], [n_step]):
        out[states] = evolved[:, 0]
    return StateVector(n=spec.n, amplitudes=out)


def exact_evolve(spec: CouplingSpec, v: StateVector, t: float) -> StateVector:
    """exp(-iHt)·v through the sector eigendecompositions.

    Each occupied sector evolves independently; empty sectors (exact zeros)
    are skipped, so superpositions of a few sectors stay cheap.
    """
    n = spec.n
    out = np.zeros(2**n, dtype=complex)
    for k in occupied_magnetizations(n, v.amplitudes):
        evals, evecs, basis = sector_eigensystem(spec, k)
        coeff = evecs.T @ v.amplitudes[basis.states]
        out[basis.states] = evecs @ (np.exp(-1j * evals * t) * coeff)
    return StateVector(n=n, amplitudes=out)


def amplitude_rows(specs, psi: StateVector, times,
                   schedule: tuple[int, ...] | None = None) -> np.ndarray:
    """A(t_l) = <psi|U(t_l)|psi>, a row per spec of a batch sharing n and a
    column per t_l; |A| <= 1.  Without a schedule, A(t) = sum_j w_j
    e^{-i θ_j t} from one spectral measure of psi per sample, certified on
    all times; with one, U(t_l) is the Strang circuit with schedule[l] steps.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if schedule is not None:
        if len(schedule) != len(times):
            raise ConfigError(f"schedule has {len(schedule)} step counts for "
                              f"{len(times)} times")
        if min(schedule) < 1:
            raise ConfigError(f"all step counts must be >= 1, got {schedule}")
        vec = _state_array(specs, psi)
        # einsum: a threaded BLAS call this small stalls on busy cores
        return np.array([sum(np.einsum("d,dl->l", np.conj(c), evolved)
                             for _, c, evolved in _strang_sectors(
                                 spec, vec, times, schedule))
                         for spec in specs])

    def phases(nodes):
        return np.exp(-1j * (times[:, None] * nodes[..., None, :]))

    return spectral_sum(specs, psi, lambda nodes, weights: (
        phases(nodes) @ weights[..., None])[..., 0], phases)


def amplitudes(spec: CouplingSpec, psi: StateVector, times,
               schedule: tuple[int, ...] | None = None) -> np.ndarray:
    """A(t_l) = <psi|U(t_l)|psi> of one spec: amplitude_rows' batch of one."""
    return amplitude_rows([spec], psi, times, schedule)[0]
