"""Target functions f and exact labels y = Tr[f(H)ρ].

Labels integrate f against the spectral measure of ψ, for a batch of specs
at once (label_rows: one hamiltonians.spectral_sum): a smooth f as a sum
of exponentials from Chebyshev moments, as the exact features are (over the
dense sector eigh where their rounding would pass the tolerance: an exp of
large β), and a step, which no expansion resolves, over the dense eigh.

Sign convention: the sine-type basis functions carry a minus sign,
matching the feature quadratures (x_sin,l = Im Tr[e^{-ilπH/C}ρ]
= -Tr[sin(lπH/C)ρ]).  A fourier target, a finite series in this basis, is
therefore reproduced exactly by the linear model with weights equal to its
coefficients.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import (ConfigError, ExponentialSum, _real, spectral_bound,
                           spectral_sum)
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
        for name in ("C", "param"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.C <= 0:
            raise ConfigError(f"C must be positive, got {self.C}")
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs",
                               tuple(_real("coeff", c) for c in self.coeffs))
        if self.kind == "fourier":
            if not self.coeffs:
                raise ConfigError("fourier kind needs coeffs")
            if len(self.coeffs) % 2 == 0:
                raise ConfigError("fourier needs an odd number of coefficients "
                                  "(cos_0, sin_1, cos_1, ...)")
        # before f is evaluated: it scales x by param (fourier: its terms
        # by coeffs), and exp's sup-norm is e^{|param|·C}
        what, size = (("sum |coeffs|", sum(map(abs, self.coeffs)))
                      if self.kind == "fourier"
                      else ("|param|·C", abs(self.param) * self.C))
        if self.kind != "step" and not size <= (
                math.log(sys.float_info.max) if self.kind == "exp"
                else sys.float_info.max):
            raise ConfigError(f"{self.kind} target: {what} = {size:.6g} puts "
                              f"f or its sup-norm outside the double range")
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
        if self.kind == "step":
            out = (arr >= self.param).astype(float)
        else:
            rates, weights = self.exponentials()
            out = (np.exp(np.multiply.outer(arr, rates)) @ weights[0]).real
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def exponentials(self) -> ExponentialSum:
        """f = Re sum_m w_m e^{ω_m x} (not a step): cos is Re e^{i param·x},
        sin Re i·e^{i param·x}, and a fourier pair c_sin·(-sin(lπx/C)) +
        c_cos·cos(lπx/C) is Re (c_cos + i c_sin)·e^{ilπx/C}."""
        if self.kind == "fourier":
            c = np.asarray(self.coeffs)
            rates = 1j * np.pi * np.arange(len(c) // 2 + 1) / self.C
            weights = np.concatenate([c[:1], c[2::2] + 1j * c[1::2]])
        else:
            rates = [-self.param if self.kind == "exp" else 1j * self.param]
            weights = [1j if self.kind == "sin" else 1.0]
        return ExponentialSum(np.asarray(rates, dtype=complex),
                              np.asarray(weights, dtype=complex)[None])


def label_rows(specs, psi: StateVector, fspec: FunctionSpec) -> np.ndarray:
    """y = Tr[f(H)ρ] for every spec of a batch sharing n; |y| <= sup_norm,
    as C >= each spec's spectral bound."""
    bound = max(map(spectral_bound, specs))
    if fspec.C < bound * (1.0 - 1e-9):
        raise ConfigError(f"C = {fspec.C} is below the spectral bound {bound}"
                          f"; f would be evaluated outside [-C, C]")
    if fspec.kind == "step":
        return spectral_sum(specs, psi, fspec)
    return spectral_sum(specs, psi, fspec.exponentials())[:, 0].real
