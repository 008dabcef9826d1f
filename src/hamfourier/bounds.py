"""Closed-form learning-theory bounds and shot-count requirements.

These are formula evaluators for the expected-loss guarantees and the
Hoeffding shot budget of the feature-regression scheme; the empirical
validation of each bound lives in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .hamiltonians import ConfigError, _count, _real


def _finite(evaluate):
    """evaluate, refused (ConfigError) at inputs where a term or count it
    returns is not a finite double: inf or nan, or on the way a float
    overflow or a square that underflows to 0 and is divided by."""
    @functools.wraps(evaluate)
    def checked(*args, **kwargs):
        try:
            out = evaluate(*args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            out = math.inf
        values = out.values() if isinstance(out, dict) else (
            out if isinstance(out, tuple) else (out,))
        if not all(math.isfinite(v) for v in values):
            at = [*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())]
            raise ConfigError(f"{evaluate.__name__} leaves the double range "
                              f"at {', '.join(at)}")
        return out
    return checked


@dataclass(frozen=True)
class BoundInputs:
    """Symbols entering the expected-loss bounds.

    K: Fourier truncation order; W: weight-norm budget; f_inf: sup-norm of
    the target; N_d: sample count; delta: failure probability;
    eps_K: sup-norm error of the best order-K series; eta: per-feature
    additive noise level (0 for noiseless features).
    """

    K: int
    W: float
    f_inf: float
    N_d: int
    delta: float
    eps_K: float = 0.0
    eta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", _count("K", self.K))
        object.__setattr__(self, "N_d", _count("N_d", self.N_d, 1))
        for name in ("W", "f_inf", "delta", "eps_K", "eta"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        for name in ("W", "f_inf", "eps_K", "eta"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@_finite
def expected_loss_terms(b: BoundInputs) -> dict[str, float]:
    """The three summands of the noiseless expected-loss bound."""
    d = 2 * b.K + 1
    m = math.sqrt(d) * b.W + b.f_inf  # bound on |model - target|
    return {
        "approximation": b.eps_K**2,
        "rademacher": 4.0 * m * b.W * math.sqrt(d / b.N_d),
        "concentration": 3.0 * m**2 * math.sqrt(math.log(2.0 / b.delta)
                                                / (2.0 * b.N_d)),
    }


@_finite
def expected_loss_bound(b: BoundInputs) -> float:
    """eps_K² + 4(√(2K+1)·W + ||f||_∞)·W·√((2K+1)/N_d)
    + 3(√(2K+1)·W + ||f||_∞)²·√(log(2/δ)/(2 N_d))."""
    return sum(expected_loss_terms(b).values())


@_finite
def noise_terms(b: BoundInputs) -> dict[str, float]:
    """Extra summands when each feature carries additive noise <= eta."""
    d = 2 * b.K + 1
    return {
        "noise_linear": 4.0 * b.eta * b.W * math.sqrt(d)
        * (b.f_inf + b.W * math.sqrt(d)),
        "noise_quadratic": 2.0 * b.eta**2 * b.W**2 * d,
    }


@_finite
def noisy_expected_loss_bound(b: BoundInputs) -> float:
    """Noisy-feature expected-loss bound: expected_loss_bound plus the two
    eta-dependent terms; reduces to expected_loss_bound at eta = 0."""
    return expected_loss_bound(b) + sum(noise_terms(b).values())


@_finite
def sufficient_parameters(eps: float, w_budget: float, f_inf: float) -> tuple[int, int]:
    """Sufficient (K, N_d) for expected loss <= eps with a Lipschitz target:
    K = ceil(ln(1/eps)/eps), N_d = ceil((W·||f||_∞·ln(1/eps)/eps)^4).

    The asymptotic statement hides constants; they are fixed to 1 here and
    ceilings applied so the result is a concrete integer pair.
    """
    eps, w_budget = _real("eps", eps), _real("W", w_budget)
    f_inf = _real("f_inf", f_inf)
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    if w_budget <= 0 or f_inf <= 0:
        raise ConfigError("W and f_inf must be positive")
    rate = math.log(1.0 / eps) / eps
    return math.ceil(rate), math.ceil((w_budget * f_inf * rate) ** 4)


@_finite
def hoeffding_shots(eta: float, delta: float, K: int) -> int:
    """Smallest N_shot with 2K+1 simultaneous per-feature errors <= eta at
    confidence 1 - delta: per-feature tail 2·exp(-N_shot·eta²/2) (±1-valued
    outcomes) pushed below delta/(2K+1) by union bound, giving
    N_shot = ceil((2/eta²)·ln(2(2K+1)/δ))."""
    eta, delta, K = _real("eta", eta), _real("delta", delta), _count("K", K)
    if eta <= 0:
        raise ConfigError(f"eta must be positive, got {eta}")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(2.0 / eta**2 * math.log(2.0 * (2 * K + 1) / delta))
