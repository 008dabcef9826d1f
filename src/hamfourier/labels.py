"""Target functions f and exact labels y = Tr[f(H)ρ].

Labels integrate f against the spectral measure of ψ: y = sum_j w_j f(θ_j),
for a batch of specs at once (label_rows; label is the batch of one).  A
smooth f uses the measure certified on y (as the exact features do); a
step, where Gauss quadrature does not converge, the dense sector eigh in
every sector.

Sign convention: the sine-type basis functions carry a minus sign,
matching the feature quadratures (x_sin,l = Im Tr[e^{-ilπH/C}ρ]
= -Tr[sin(lπH/C)ρ]).  A fourier target, a finite series in this basis, is
therefore reproduced exactly by the linear model with weights equal to its
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import ConfigError, CouplingSpec, spectral_sum
from .states import StateVector

KINDS = ("exp", "cos", "sin", "fourier", "step")

#: grid resolution for numeric sup-norm evaluation
SUP_GRID_POINTS = 10_001
DOMAIN_SLACK = 1e-9


@dataclass(frozen=True)
class FunctionSpec:
    """A target function on [-C, C] with its sup-norm.

    kind/param pairs: exp -> e^{-param·x}; cos -> cos(param·x);
    sin -> -sin(param·x); step -> 1_{x >= param}; fourier ignores param and
    uses coeffs in the feature basis (see module docstring).
    """

    kind: str
    C: float
    param: float = 0.0
    coeffs: tuple[float, ...] | None = None
    sup_norm: float = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"kind {self.kind!r} not in {KINDS}")
        if self.C <= 0:
            raise ConfigError(f"C must be positive, got {self.C}")
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs",
                               tuple(float(c) for c in self.coeffs))
        if self.kind == "fourier":
            if not self.coeffs:
                raise ConfigError("fourier kind needs coeffs")
            if len(self.coeffs) % 2 == 0:
                raise ConfigError("fourier needs an odd number of coefficients "
                                  "(cos_0, sin_1, cos_1, ...)")
        object.__setattr__(self, "sup_norm", self._sup_norm())

    def _sup_norm(self) -> float:
        if self.kind == "exp":
            return math.exp(abs(self.param) * self.C)
        if self.kind == "cos":
            return 1.0  # attained at x = 0
        if self.kind == "sin":
            u = abs(self.param) * self.C
            return 1.0 if u >= math.pi / 2 else math.sin(u)
        if self.kind == "step":
            return 1.0 if self.param <= self.C else 0.0
        grid = np.linspace(-self.C, self.C, SUP_GRID_POINTS)
        return float(np.max(np.abs(self(grid))))

    def __call__(self, x):
        """Pointwise f(x); accepts scalars or arrays, errors outside [-C, C]."""
        arr = np.asarray(x, dtype=float)
        if np.any(np.abs(arr) > self.C + DOMAIN_SLACK):
            raise ConfigError(
                f"argument outside [-{self.C}, {self.C}]: "
                f"max |x| = {np.max(np.abs(arr))}"
            )
        if self.kind == "exp":
            out = np.exp(-self.param * arr)
        elif self.kind == "cos":
            out = np.cos(self.param * arr)
        elif self.kind == "sin":
            out = -np.sin(self.param * arr)
        elif self.kind == "step":
            out = (arr >= self.param).astype(float)
        else:  # columns 1, -sin(lπx/C), cos(lπx/C) for l = 1, 2, ...
            cols = [np.ones_like(arr)]
            for l in range(1, len(self.coeffs) // 2 + 1):
                cols.append(-np.sin(l * np.pi * arr / self.C))
                cols.append(np.cos(l * np.pi * arr / self.C))
            out = np.stack(cols, axis=-1) @ np.asarray(self.coeffs)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def label_rows(specs, psi: StateVector, fspec: FunctionSpec) -> np.ndarray:
    """y = Tr[f(H)ρ] = sum_j w_j f(θ_j) for every spec of a batch sharing n;
    |y| <= sup_norm."""
    return spectral_sum(specs, psi, lambda nodes, weights: np.sum(
        weights * fspec(nodes), axis=-1),
        None if fspec.kind == "step" else fspec)


def label(spec: CouplingSpec, psi: StateVector, fspec: FunctionSpec) -> float:
    """y = Tr[f(H)ρ] of one spec: label_rows' batch of one."""
    return float(label_rows([spec], psi, fspec)[0])
