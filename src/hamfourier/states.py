"""Computational-basis and domain-wall states, each stored as its support:
the ascending basis indices where it is nonzero (int64, so n <= 63), with
its complex amplitudes there."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import ConfigError, _count

NORM_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over n qubits (qubit 0 = most significant
    bit): amplitudes[i] at basis index support[i], exact zeros dropped."""

    n: int
    support: np.ndarray = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if _count("n", self.n, 1) > 63:
            raise ConfigError(f"int64 indices need n in [1, 63], got {self.n}")
        idx = np.asarray(self.support)  # cast once its kind is checked
        amps = np.asarray(self.amplitudes, dtype=complex)
        if (idx.dtype.kind not in "iu" or idx.ndim != 1 or idx.shape !=
                amps.shape or np.any(idx >> self.n)  # -1 where idx < 0
                or np.any(idx[1:] <= idx[:-1])):
            raise ConfigError(f"a state needs one strictly ascending index in "
                              f"[0, 2^{self.n}) per amplitude")
        if not abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL:  # nan too
            raise ConfigError("state is not normalized")
        keep = amps != 0
        object.__setattr__(self, "support", idx[keep].astype(np.int64))
        object.__setattr__(self, "amplitudes", amps[keep])

    def on(self, states) -> np.ndarray:
        """The amplitudes at ascending basis states, 0 off the support."""
        at = np.searchsorted(self.support, states) % len(self.support)
        return np.where(self.support[at] == states, self.amplitudes[at], 0)


def basis_state(n: int, bitstring: str) -> StateVector:
    """Unit vector on one computational basis element."""
    if not isinstance(bitstring, str):
        raise ConfigError(f"bitstring must be a string, got {bitstring!r}")
    if len(bitstring) != n:
        raise ConfigError(
            f"bitstring {bitstring!r} has {len(bitstring)} bits, expected {n}"
        )
    if set(bitstring) - {"0", "1"}:
        raise ConfigError(f"bitstring {bitstring!r} has non-binary characters")
    return StateVector(n, [int(bitstring, 2)], [1.0])


def domain_wall(n: int) -> StateVector:
    """The fixed product state |0>^{n/4} |1>^{n/2} |0>^{n/4} (popcount n/2)."""
    if n % 4 != 0:
        raise ConfigError(f"domain wall needs n divisible by 4, got {n}")
    return basis_state(n, "0" * (n // 4) + "1" * (n // 2) + "0" * (n // 4))
