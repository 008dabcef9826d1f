"""Computational-basis, domain-wall, and reference-superposition states.

States are stored dense (length 2^n, complex).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import CouplingSpec, DimensionError

NORM_TOL = 1e-10
ORTHO_TOL = 1e-10

#: Relative phases accepted by superpose.
PHASES = (1, -1, 1j, -1j)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over n qubits (qubit 0 = most significant bit)."""

    n: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n,):
            raise DimensionError(
                f"amplitudes shape {amps.shape} != ({2**self.n},)"
            )
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("state is not normalized")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class ReferenceEigenstate:
    """A basis state known to be an eigenvector of the paired Hamiltonian,
    with its eigenvalue."""

    bitstring: str
    eigenvalue: float

    @property
    def n(self) -> int:
        return len(self.bitstring)


def _bits_to_index(bitstring: str) -> int:
    if set(bitstring) - {"0", "1"}:
        raise ValueError(f"bitstring {bitstring!r} has non-binary characters")
    return int(bitstring, 2)


def basis_state(n: int, bitstring: str) -> StateVector:
    """Unit vector on one computational basis element."""
    if len(bitstring) != n:
        raise DimensionError(
            f"bitstring {bitstring!r} has {len(bitstring)} bits, expected {n}"
        )
    amps = np.zeros(2**n, dtype=complex)
    amps[_bits_to_index(bitstring)] = 1.0
    return StateVector(n=n, amplitudes=amps)


def domain_wall(n: int) -> StateVector:
    """The fixed product state |0>^{n/4} |1>^{n/2} |0>^{n/4} (popcount n/2)."""
    if n % 4 != 0:
        raise DimensionError(f"domain wall needs n divisible by 4, got {n}")
    return basis_state(n, "0" * (n // 4) + "1" * (n // 2) + "0" * (n // 4))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> with conjugation on a."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


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
    amps = (psi_ref.amplitudes + phase * psi.amplitudes) / np.sqrt(2.0)
    return StateVector(n=psi_ref.n, amplitudes=amps)


def reference_eigenstate(spec: CouplingSpec) -> ReferenceEigenstate:
    """|0...0> with its eigenvalue sum_m J_m (every ZZ term gives +J_m and the
    flip terms annihilate the all-zeros state)."""
    return ReferenceEigenstate(bitstring="0" * spec.n,
                               eigenvalue=float(np.sum(spec.couplings)))

