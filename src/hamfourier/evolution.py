"""Time evolution under a coupling spec, and the amplitude layer of the
feature map: amplitudes(spec, ψ, times, schedule) = <ψ|U(t_l)|ψ>, for
U(t) = e^{-iHt} from one spectral measure of ψ
(hamiltonians.spectral_measure) or, when a schedule is given, for the
Strang circuit with schedule[l] steps.  exact_evolve (dense sector eigh)
is the reference that tests compare both against.

The Strang splitting groups bonds by parity of the bond index m: terms
within H_odd (m = 1, 3, ...) act on disjoint qubit pairs and commute, same
for H_even (m = 0, 2, ...), so each group exponentiates as a product of
closed-form two-qubit gates.  One step with dt = t/n_step is

    exp(-i dt/2 H_odd) · exp(-i dt H_even) · exp(-i dt/2 H_odd)

repeated n_step times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import (
    CouplingSpec,
    occupied_magnetizations,
    sector_eigensystem,
    spectral_measure,
)
from .states import StateVector, inner


@dataclass(frozen=True)
class TrotterSchedule:
    """Trotter step counts n_step, one per feature index l = 0..K."""

    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s < 1 for s in self.steps):
            raise ValueError("all step counts must be >= 1")

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, l: int) -> int:
        return self.steps[l]

    @classmethod
    def parse(cls, text: str) -> "TrotterSchedule":
        """Parse a comma-separated integer list, e.g. "1,1,2,2,3"."""
        return cls(steps=tuple(int(tok) for tok in text.split(",")))

    def render(self) -> str:
        return ",".join(str(s) for s in self.steps)


def heisenberg_gate(j: float, dt: float) -> np.ndarray:
    """exp(-i·θ·(XX+YY+ZZ)) with θ = j·dt, in closed form.

    |00> and |11> pick up e^{-iθ}; on span{|01>, |10>} the bond term is
    -I + 2·SWAP, giving the block e^{+iθ}(cos 2θ · I - i sin 2θ · SWAP).
    """
    theta = j * dt
    u = np.zeros((4, 4), dtype=complex)
    edge = np.exp(-1j * theta)
    u[0, 0] = edge
    u[3, 3] = edge
    mid = np.exp(1j * theta)
    u[1, 1] = u[2, 2] = mid * np.cos(2 * theta)
    u[1, 2] = u[2, 1] = mid * (-1j) * np.sin(2 * theta)
    return u


def _apply_pair_gate(vec: np.ndarray, u: np.ndarray, m: int, n: int) -> np.ndarray:
    """Apply a 4x4 gate to qubits (m, m+1) of a dense statevector."""
    block = vec.reshape(2**m, 4, -1)
    return np.einsum("ab,ibj->iaj", u, block).reshape(-1)


def _layer_gates(spec: CouplingSpec, parity: int,
                 dt: float) -> list[tuple[int, np.ndarray]]:
    """(m, gate on qubits m, m+1) for the bonds of one parity."""
    return [(m, heisenberg_gate(j, dt)) for m, j in enumerate(spec.couplings)
            if m % 2 == parity]


def trotter_evolve(spec: CouplingSpec, v: StateVector, t: float,
                   n_step: int) -> StateVector:
    """n_step symmetric Strang steps approximating exp(-iHt)·v.

    Exactly unitary and exactly magnetization-conserving for any n_step
    (every factor is); the approximation error is O((t/n_step)^2) globally.
    """
    if n_step < 1:
        raise ValueError(f"n_step must be >= 1, got {n_step}")
    n = spec.n
    dt = t / n_step
    half_odd = _layer_gates(spec, parity=1, dt=dt / 2)
    full_even = _layer_gates(spec, parity=0, dt=dt)
    vec = v.amplitudes.copy()
    for _ in range(n_step):
        for layer in (half_odd, full_even, half_odd):
            for m, gate in layer:
                vec = _apply_pair_gate(vec, gate, m, n)
    return StateVector(n=n, amplitudes=vec)


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


def amplitudes(spec: CouplingSpec, psi: StateVector, times,
               schedule: TrotterSchedule | None = None) -> np.ndarray:
    """A(t_l) = <psi|U(t_l)|psi> for every t_l in times; |A| <= 1.

    Without a schedule, A(t) = sum_j w_j e^{-i θ_j t} from one spectral
    measure of psi certified on all times; with one, U(t_l) is the Strang
    circuit with schedule[l] steps.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if schedule is not None:
        return np.array([inner(psi, trotter_evolve(spec, psi, t, schedule[l]))
                         for l, t in enumerate(times)])

    def phases(nodes):
        return np.exp(-1j * np.outer(times, nodes))

    return sum(phases(rec.eigenvalues) @ rec.probabilities
               for rec in spectral_measure(spec, psi, phases))
