"""Time evolution under a coupling spec, and the amplitude layer of the
feature map: amplitude_rows(specs, ψ, times, schedule) = <ψ|U(t_l)|ψ> for
a batch of specs (amplitudes: a batch of one), with U(t) = e^{-iHt}: one
hamiltonians.spectral_sum of the phases e^{-iθt_l}, all times from one set
of Chebyshev moments of ψ per sample, within their truncation bound (or
the dense eigh where their rounding would pass it), or, when a schedule is
given, the Strang circuit with schedule[l] steps
(trotter_evolve: U(t)ψ for one time, the state on the rows its circuit
swept).

The Strang splitting groups bonds by parity of the bond index m: terms
within H_odd (m = 1, 3, ...) act on disjoint qubit pairs and commute, same
for H_even (m = 0, 2, ...).  One step with dt = t/n_step is

    exp(-i dt/2 H_odd) · exp(-i dt H_even) · exp(-i dt/2 H_odd)

and the last odd half of a step merges with the first of the next, so s
steps are 2s+1 layers L_0 … L_2s, with L_i = L_{2s-i}.  With P_m = X X +
Y Y + Z Z = 1 - 4Π_m (Π_m projects on bond m's singlet), a gate e^{-iθP_m}
= e^{-iθ}(1 + (e^{4iθ} - 1)Π_m) is one update per flip pair (a, b) of bond
m (hamiltonians._pattern), its e^{-iθ} deferred to one phase per
time.  Gates are complex symmetric, so U = W M Wᵀ (W = L_0 ⋯ L_{s-1},
M = L_s = M^½ M^½) and <c|U|c> = φ'ᵀφ, φ = M^½ Wᵀ c and φ' that of c̄ (φ
for a real c): s+1 layers (22 gates, not 38, for the 12-qubit schedule at
n=12), run forward and back by trotter_evolve.  Gates conserve
magnetization and swap 01 <-> 10, so all times run in one pass per sector
of ψ on the d states its support reaches through those layers
(hamiltonians._cone; 196 of 924 for the n=12 domain wall): a (d, K+1)
component, one column per t_l (2K+2 for [c | c̄]), with τ = 0 after column
l's middle.  Cost per sample: O((max schedule + 1)·bonds·d·K/2).
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import (ConfigError, CouplingSpec, ExponentialSum, _count,
                           _real, _sectors, spectral_sum)
from .states import StateVector


def _strang_sectors(specs, psi, times, steps, palindrome=False):
    """Half the Strang circuit of steps[l] steps of dt = times[l]/steps[l],
    all l in one pass: per occupied sector of psi, then per spec, (row, basis
    states, V, phase) with V[:, l] = M^½ Wᵀ c, then c̄'s columns if psi is
    not real; with palindrome, V[:, l] = U(t_l) c / phase[l]."""
    n, steps = specs[0].n, np.asarray(steps)
    dt = np.asarray(times, dtype=float) / steps
    i = np.arange(steps.max() + 1)[:, None]  # layer i's τ, a column per time
    tau = np.where(i <= steps, dt, 0) / np.where((i == 0) | (i == steps), 2, 1)
    layers = [range(1 - i % 2, n - 1, 2) for i in range(len(tau))]
    gates, taus = map(np.array, zip(*[(m, tau[i]) for i, bonds in
                                      enumerate(layers) for m in bonds]))
    pair = not palindrome and np.any(psi.amplitudes.imag)
    for _, (states, _, pairs, cut), c in _sectors(specs, psi, lambda k, d: (
            32 * (1 + pair) * len(dt) * d, "pattern and components"),
            layers + layers[-2::-1] if palindrome else layers):
        start = np.stack([c, c.conj()] if pair else [c], axis=1)
        for row, spec in enumerate(specs):  # two (d, columns) copies at a time
            theta = np.take(spec.couplings, gates)[:, None] * taus
            coeff = np.tile(np.exp(4j * theta) - 1, 1 + pair) / 2
            order = [*zip(gates, coeff)]  # e^{-iθP} = e^{-iθ}(1 + 2cΠ)
            v = np.repeat(start, len(dt), axis=1)
            for m, cm in (order + order[::-1]) if palindrome else order:
                ab = pairs[:, cut[m]:cut[m + 1]]  # bond m's a row and b row
                w = v.take(ab, axis=0)  # (2, pairs, columns): a rows, b rows
                d = (w[0] - w[1]) * cm  # Π_m v = (v_a - v_b)(a - b)/2
                w[0] += d
                w[1] -= d
                v[ab] = w
            yield row, states, v, np.exp(-2j * theta.sum(axis=0))


def trotter_evolve(spec: CouplingSpec, v: StateVector, t: float,
                   n_step: int) -> StateVector:
    """n_step symmetric Strang steps approximating exp(-iHt)·v.

    Exactly unitary and exactly magnetization-conserving for any n_step
    (every factor is); the approximation error is O((t/n_step)^2) globally.
    """
    n_step, t = _count("n_step", n_step, 1), _real("t", t)
    states, amps = map(np.concatenate, zip(*[
        (rows, evolved[:, 0] * phase[0]) for _, rows, evolved, phase in
        _strang_sectors([spec], v, [t], [n_step], palindrome=True)]))
    order = np.argsort(states)  # the rows swept, sector by sector
    return StateVector(spec.n, states[order], amps[order])


def amplitude_rows(specs, psi: StateVector, times,
                   schedule: tuple[int, ...] | None = None) -> np.ndarray:
    """A(t_l) = <psi|U(t_l)|psi>, a row per spec of a batch sharing n and a
    column per t_l; |A| <= 1.  Without a schedule, A(t) = <psi|e^{-iHt}|psi>
    from one set of Chebyshev moments of psi per sample, certified on all
    times; with one, U(t_l) is the Strang circuit with schedule[l] steps.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if schedule is not None:
        if len(schedule) != len(times):
            raise ConfigError(f"schedule has {len(schedule)} step counts for "
                              f"{len(times)} times")
        schedule = [_count("step count", s, 1) for s in schedule]
        out = np.zeros((len(specs), len(times)), dtype=complex)
        for row, _, phi, phase in _strang_sectors(specs, psi, times, schedule):
            # φ'ᵀφ: φ' is c̄'s last K+1 columns, or φ itself for a real c
            out[row] += phase * np.einsum("dl,dl->l", phi[:, -len(times):],
                                          phi[:, :len(times)])
        return out

    return spectral_sum(specs, psi, ExponentialSum(-1j * times,
                                                   np.eye(len(times))))


def amplitudes(spec: CouplingSpec, psi: StateVector, times,
               schedule: tuple[int, ...] | None = None) -> np.ndarray:
    """A(t_l) = <psi|U(t_l)|psi> of one spec: amplitude_rows' batch of one."""
    return amplitude_rows([spec], psi, times, schedule)[0]
