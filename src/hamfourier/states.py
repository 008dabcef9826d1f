"""Computational-basis and domain-wall states.

States are stored dense (length 2^n, complex).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hamiltonians
from .hamiltonians import ConfigError

NORM_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over n qubits (qubit 0 = most significant bit)."""

    n: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ConfigError(
                f"amplitudes shape {amps.shape} != ({2**self.n},)"
            )
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ConfigError("state is not normalized")
        object.__setattr__(self, "amplitudes", amps)


def basis_state(n: int, bitstring: str) -> StateVector:
    """Unit vector on one computational basis element, refused before it is
    allocated if its 2^n complex amplitudes exceed SECTOR_BYTES_CAP."""
    if len(bitstring) != n:
        raise ConfigError(
            f"bitstring {bitstring!r} has {len(bitstring)} bits, expected {n}"
        )
    if set(bitstring) - {"0", "1"}:
        raise ConfigError(f"bitstring {bitstring!r} has non-binary characters")
    if (size := 16 * 2**n) > (cap := hamiltonians.SECTOR_BYTES_CAP):
        raise ConfigError(f"a dense {n}-qubit state needs {size / 1e9:.1f} GB "
                          f"> cap {cap / 1e9:g} GB")
    amps = np.zeros(2**n, dtype=complex)
    amps[int(bitstring, 2)] = 1.0
    return StateVector(n=n, amplitudes=amps)


def domain_wall(n: int) -> StateVector:
    """The fixed product state |0>^{n/4} |1>^{n/2} |0>^{n/4} (popcount n/2)."""
    if n % 4 != 0:
        raise ConfigError(f"domain wall needs n divisible by 4, got {n}")
    return basis_state(n, "0" * (n // 4) + "1" * (n // 2) + "0" * (n // 4))

