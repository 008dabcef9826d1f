"""Time evolution under a coupling spec, and the amplitude layer of the
feature map: amplitude_rows(specs, ψ, times, schedule) = <ψ|U(t_l)|ψ> for
a batch of specs (amplitudes: a batch of one), with U(t) = e^{-iHt} from
one spectral measure of ψ per sample (hamiltonians.spectral_measures) or,
when a schedule is given, the Strang circuit with schedule[l] steps
(trotter_evolve: the circuit on a state, for one time).

The Strang splitting groups bonds by parity of the bond index m: terms
within H_odd (m = 1, 3, ...) act on disjoint qubit pairs and commute, same
for H_even (m = 0, 2, ...).  One step with dt = t/n_step is

    exp(-i dt/2 H_odd) · exp(-i dt H_even) · exp(-i dt/2 H_odd)

and the last odd half of a step merges with the first of the next, so s
steps are 2s+1 layers.  With P_m = X X + Y Y + Z Z = 1 - 4Π_m (Π_m projects
on bond m's singlet), a gate e^{-iθP_m} = e^{-iθ}(1 + (e^{4iθ} - 1)Π_m) is
one update per flip pair (a, b) of bond m, read from the sector's cached
pattern (hamiltonians._sector_pattern); every gate's e^{-iθ} is deferred
to one phase per time.  Gates conserve magnetization, so the circuit runs
on ψ's occupied sectors with all times in one pass: a (d, K+1) component,
one column per t_l, where θ = 0 (the identity) once schedule[l] steps are
done.  Cost per sample: O(max schedule · bonds · d · K).
"""

from __future__ import annotations

import math

import numpy as np

from .hamiltonians import ConfigError, CouplingSpec, _sectors, spectral_sum
from .states import StateVector


def _strang_sectors(specs, psi, times, steps):
    """The Strang circuit with steps[l] steps of dt = times[l]/steps[l], for
    all l in one pass: per occupied sector of psi and then per spec of the
    batch, (the spec's row, basis states, component c, V) with V[:, l] the
    evolved component for time l."""
    n, steps = specs[0].n, np.asarray(steps)
    dt = np.asarray(times, dtype=float) / steps
    odd, even = range(1, n - 1, 2), range(0, n - 1, 2)
    live = (steps > np.arange(steps.max() + 1)[:, None]) * dt  # [s, l]: dt or 0
    layers = [(odd, live[0] / 2)]  # (bonds, each column's time step)
    for s in range(steps.max()):  # step s's last odd half meets s+1's first
        layers += [(even, live[s]), (odd, (live[s] + live[s + 1]) / 2)]
    gates, taus = zip(*[(m, tau) for bonds, tau in layers for m in bonds])
    for _, (states, _, pairs, cut), c in _sectors(specs, psi, lambda k: (
            32 * len(dt) * math.comb(n, k), "pattern and components")):
        for row, spec in enumerate(specs):  # two (d, K+1) copies at a time
            j = spec.couplings
            theta = np.array([j[m] * tau for m, tau in zip(gates, taus)])
            coeff = (np.exp(4j * theta) - 1) / 2  # e^{-iθP} = e^{-iθ}(1 + 2cΠ)
            v = np.repeat(c[:, None], len(dt), axis=1)
            for m, cm in zip(gates, coeff):  # Π_m v = (v_a - v_b)(a - b)/2
                ab = pairs[:, cut[m]:cut[m + 1]]  # bond m's a row and b row
                w = v.take(ab, axis=0)  # (2, pairs, K+1): a rows, b rows
                d = (w[0] - w[1]) * cm
                w[0] += d
                w[1] -= d
                v[ab] = w
            v *= np.exp(-1j * theta.sum(axis=0))  # every gate's e^{-iθ}
            yield row, states, c, v


def trotter_evolve(spec: CouplingSpec, v: StateVector, t: float,
                   n_step: int) -> StateVector:
    """n_step symmetric Strang steps approximating exp(-iHt)·v.

    Exactly unitary and exactly magnetization-conserving for any n_step
    (every factor is); the approximation error is O((t/n_step)^2) globally.
    """
    if n_step < 1:
        raise ConfigError(f"n_step must be >= 1, got {n_step}")
    out = np.zeros(2**spec.n, dtype=complex)
    for _, states, _, evolved in _strang_sectors([spec], v, [t], [n_step]):
        out[states] = evolved[:, 0]
    return StateVector(n=spec.n, amplitudes=out)


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
        out = np.zeros((len(specs), len(times)), dtype=complex)
        for row, _, c, evolved in _strang_sectors(specs, psi, times, schedule):
            # einsum: a threaded BLAS call this small stalls on busy cores
            out[row] += np.einsum("d,dl->l", np.conj(c), evolved)
        return out

    def phases(nodes):
        return np.exp(-1j * (times[:, None] * nodes[..., None, :]))

    return spectral_sum(specs, psi, lambda nodes, weights: (
        phases(nodes) @ weights[..., None])[..., 0], phases)


def amplitudes(spec: CouplingSpec, psi: StateVector, times,
               schedule: tuple[int, ...] | None = None) -> np.ndarray:
    """A(t_l) = <psi|U(t_l)|psi> of one spec: amplitude_rows' batch of one."""
    return amplitude_rows([spec], psi, times, schedule)[0]
