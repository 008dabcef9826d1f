"""Linear models on feature vectors: OLS, ridge, and the norm-constrained
least-squares fit.

The constrained problem min ||y - Xw||² s.t. ||w||₂ <= W is solved through
its KKT correspondence with ridge: if the OLS minimum-norm solution already
satisfies the budget it is optimal; otherwise the optimum lies on the
boundary and equals the ridge solution w(α) whose norm is exactly W, found
by bisection on α (||w(α)|| is continuous and non-increasing in α).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import ConfigError, _real

NORM_MATCH_RTOL = 1e-8
MAX_BISECT_ITERS = 500


@dataclass(frozen=True)
class DesignMatrix:
    """Feature rows and targets for one fit/evaluation."""

    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.X, dtype=float))
        t = np.asarray(self.y, dtype=float).ravel()
        if x.shape[0] != t.shape[0]:
            raise ConfigError(f"{x.shape[0]} rows vs {t.shape[0]} targets")
        if x.shape[0] == 0:
            raise ConfigError("empty design matrix")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
            raise ConfigError("non-finite entries")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "y", t)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class RegressionModel:
    weights: np.ndarray = field(repr=False)
    norm_budget: float | None = None
    method: str = "ols"

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(X, dtype=float)) @ self.weights

    def to_dict(self) -> dict:
        return {"weights": [float(w) for w in self.weights],
                "norm_budget": self.norm_budget,
                "method": self.method}


@dataclass(frozen=True)
class Metrics:
    """Test-set mean squared error and R²; r2 is NaN when the targets have
    zero variance (undefined)."""

    mse: float
    r2: float
    n_train: int = 0
    n_test: int = 0

    def to_dict(self) -> dict:
        return {"r2": None if math.isnan(self.r2) else self.r2,
                "mse": self.mse,
                "n_train": self.n_train,
                "n_test": self.n_test}


def fit_ols(data: DesignMatrix) -> RegressionModel:
    """Least squares via a rank-tolerant solve (minimum-norm solution on
    rank deficiency)."""
    w, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
    return RegressionModel(weights=w, method="ols")


def _ridge_path(data: DesignMatrix):
    """SVD factorization giving w(α) and ||w(α)|| cheaply for any α >= 0."""
    u, s, vt = np.linalg.svd(data.X, full_matrices=False)
    uty = u.T @ data.y
    keep = s > s[0] * 1e-13 if len(s) and s[0] > 0 else s > 0
    s, uty, vt = s[keep], uty[keep], vt[keep]

    def weights(alpha: float) -> np.ndarray:
        return vt.T @ (s * uty / (s**2 + alpha))

    def norm(alpha: float) -> float:
        return float(np.linalg.norm(s * uty / (s**2 + alpha)))

    return weights, norm


def fit_ridge(data: DesignMatrix, alpha: float) -> RegressionModel:
    """Minimizer of ||y - Xw||² + α||w||²; α = 0 reduces to OLS."""
    if (alpha := _real("alpha", alpha)) < 0:
        raise ConfigError(f"alpha must be non-negative, got {alpha}")
    weights, _ = _ridge_path(data)
    return RegressionModel(weights=weights(alpha), method="ridge")


def fit_constrained(data: DesignMatrix, w_bound: float) -> RegressionModel:
    """Empirical-loss minimizer under ||w||₂ <= w_bound."""
    if (w_bound := _real("w_bound", w_bound)) <= 0:
        raise ConfigError(f"norm budget must be positive, got {w_bound}")
    weights, norm = _ridge_path(data)
    if norm(0.0) <= w_bound:
        return RegressionModel(weights=weights(0.0), norm_budget=w_bound,
                               method="constrained")
    # bracket: norm(0) > W, grow alpha until norm < W
    lo, hi = 0.0, 1.0
    for _ in range(MAX_BISECT_ITERS):
        if norm(hi) < w_bound:
            break
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the ridge parameter")
    for _ in range(MAX_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        nu = norm(mid)
        if abs(nu - w_bound) <= NORM_MATCH_RTOL * w_bound:
            return RegressionModel(weights=weights(mid), norm_budget=w_bound,
                                   method="constrained")
        if nu > w_bound:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(
        "ridge-parameter bisection did not converge (monotonicity violated?)"
    )


def evaluate(model: RegressionModel, data: DesignMatrix,
             n_train: int = 0) -> Metrics:
    """MSE and R² = 1 - SS_res/SS_tot on held-out data (SS_tot about the
    test-set mean)."""
    pred = model.predict(data.X)
    residual = data.y - pred
    mse = float(np.mean(residual**2))
    ss_tot = float(np.sum((data.y - np.mean(data.y)) ** 2))
    if ss_tot == 0.0:
        r2 = math.nan
    else:
        r2 = 1.0 - float(np.sum(residual**2)) / ss_tot
    return Metrics(mse=mse, r2=r2, n_train=n_train, n_test=data.n_samples)
