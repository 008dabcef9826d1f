"""End-to-end experiment stages with file-based artifacts.

Stage chain: generate (dataset JSONL with exact labels) -> features
(CSV + provenance sidecar) -> train (model + metrics JSON).  reproduce
chains the stages with the 12-qubit reference protocols; scatter emits
paired exact/estimated values for external plotting.

All floats in emitted files carry 17 significant digits (bit-exact round
trip); every file write is atomic (temp + rename); all randomness flows
through counter-based substreams of the master seed, so equal seeds give
byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import features as ft
from . import labels as lb
from .hamiltonians import (ConfigError, CouplingSpec, _count, _real,
                           sample_couplings)
from .regression import (
    DesignMatrix,
    Metrics,
    RegressionModel,
    _ridge_path,
    evaluate,
    fit_constrained,
    fit_ols,
    fit_ridge,
)
from .rng import ROLE_COUPLINGS, ROLE_SPLIT, ROLE_VALID, substream, substreams
from .states import StateVector, basis_state, domain_wall

SEED_ENV_VAR = "HAMFOURIER_SEED"

#: the regression fits ExperimentConfig.method selects
METHODS = ("ols", "ridge", "constrained")

#: alpha grid scanned when method=ridge and no alpha is given
RIDGE_ALPHA_GRID = (1e-8, 1e-6, 1e-4, 1e-2, 1e-1, 1.0, 10.0)

#: reference 12-qubit Trotter step counts for l = 0..11
SCHEDULE_12Q = "1,1,1,1,1,2,2,2,2,3,3,3"

DEFAULT_SEED = 7


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of one experiment; serializes losslessly to/from JSON."""

    n: int = 12
    num: int = 55
    split: float = 0.8
    seed: int = DEFAULT_SEED
    k: int = 11
    c: float = 3.0
    backend: str = "exact"
    shots: int = 0
    schedule: str | None = None
    method: str = "ols"
    w_bound: float | None = None
    alpha: float | None = None
    f_kind: str = "exp"
    beta: float = 1.0
    coeffs: tuple[float, ...] | None = None
    state: str = "domain_wall"

    def __post_init__(self) -> None:  # each field checked as given
        for name in ("n", "num", "seed", "k", "shots"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        for name in ("split", "c", "beta", "w_bound", "alpha"):
            value = getattr(self, name)
            if value is not None or name not in ("w_bound", "alpha"):
                object.__setattr__(self, name, _real(name, value))
        for name in ("backend", "method", "f_kind", "state", "schedule"):
            if not isinstance(value := getattr(self, name), str) and (
                    value is not None or name != "schedule"):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        if self.coeffs is not None:
            coeffs = _split("coeffs", self.coeffs, float)
            object.__setattr__(self, "coeffs", tuple(
                _real("coeff", c) for c in coeffs))
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"split must lie in (0, 1), got {self.split}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        self._steps()

    def _steps(self) -> tuple[int, ...] | None:
        """The schedule's Trotter step counts, None without a schedule."""
        return tuple(_count("step count", s, 1) for s in _split(
            "schedule", self.schedule, int)) if self.schedule else None

    def function_spec(self) -> lb.FunctionSpec:
        return lb.FunctionSpec(self.f_kind, self.c, self.beta, self.coeffs)

    def feature_map(self) -> ft.FeatureMapConfig:
        return ft.FeatureMapConfig(K=self.k, C=self.c, backend=self.backend,
                                   n_shot=self.shots, schedule=self._steps(),
                                   seed=self.seed)

    def psi(self) -> StateVector:
        return state_from_descriptor(self.n, self.state_descriptor())

    def state_descriptor(self):
        if self.state == "domain_wall":
            return "domain_wall"
        return {"basis": self.state}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of a dict keyed by field names, checked as fields."""
        names = [f.name for f in fields(cls)]
        if unknown := [key for key in d if key not in names]:
            raise ConfigError(f"unknown config key {unknown[0]!r}; the keys "
                              f"are the fields {', '.join(names)}")
        return cls(**d)


def _split(name: str, value, kind) -> list:
    """The entries of a comma-separated string read as kind, or of another
    sequence as they are."""
    try:
        return list(map(kind, value.split(",")) if isinstance(value, str)
                    else value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be comma-separated {kind.__name__}s, "
                          f"got {value!r}") from None


def state_from_descriptor(n: int, descriptor) -> StateVector:
    """Inverse of the symbolic state descriptor in dataset records."""
    if descriptor == "domain_wall":
        return domain_wall(n)
    if isinstance(descriptor, dict) and "basis" in descriptor:
        return basis_state(n, descriptor["basis"])
    raise ConfigError(f"unknown state descriptor {descriptor!r}")


# --- 17-significant-digit serialization ---------------------------------

def format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def json_17g(obj) -> str:
    """json.dumps with floats at 17 significant digits."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(json_17g(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {json_17g(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)}")


def atomic_write(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# --- dataset stage -------------------------------------------------------

def cmd_generate(config: ExperimentConfig, out_path) -> Path:
    """Write num JSONL records {"n", "couplings", "state", "y"} with exact
    labels, plus a run-config sidecar <out>.config.json recording f."""
    out_path = Path(out_path)
    fspec = config.function_spec()
    psi = config.psi()
    keys = ((ROLE_COUPLINGS, i) for i in range(config.num))
    specs = [sample_couplings(config.n, rng)
             for rng in substreams(config.seed, keys)]
    lines = []
    for spec, y in zip(specs, lb.label_rows(specs, psi, fspec) if specs else []):
        lines.append(json_17g({"n": spec.n, "couplings": spec.couplings,
                               "state": config.state_descriptor(),
                               "y": float(y)}))
    if not lines:
        warnings.warn("generated an empty dataset (num = 0)")
    atomic_write(out_path, "".join(line + "\n" for line in lines))
    atomic_write(sidecar_path(out_path), json_17g(asdict(config)) + "\n")
    return out_path


def sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".config.json")


def _by_state(rows, compute) -> list:
    """compute(specs, psi, indices) on the dataset rows grouped by qubit
    count and state, one batch per group; returns the result rows in
    dataset order.  Indices are row indices, which key the shot streams."""
    groups = {}
    for i, (spec, descriptor, _) in enumerate(rows):
        key = (spec.n, json.dumps(descriptor, sort_keys=True))
        groups.setdefault(key, []).append(i)
    out = [None] * len(rows)
    for idx in groups.values():
        n, descriptor = rows[idx[0]][0].n, rows[idx[0]][1]
        result = compute([rows[i][0] for i in idx],
                         state_from_descriptor(n, descriptor), np.array(idx))
        for i, value in zip(idx, result):
            out[i] = value
    return out


def read_dataset(path) -> list[tuple[CouplingSpec, object, float]]:
    """(spec, state descriptor, y) per nonblank line; one that is not a JSON
    record of a valid n, couplings, state and y is refused with its number."""
    rows, states = [], {}  # each state built once, by (n, descriptor)
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            spec = CouplingSpec(n=rec["n"], couplings=rec["couplings"])
            descriptor = rec["state"]
            rows.append((spec, descriptor, _real("y", rec["y"])))
            if (key := (spec.n, repr(descriptor))) not in states:
                states[key] = state_from_descriptor(spec.n, descriptor)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path} line {number} is not JSON: {err.msg}"
                              ) from None
        except KeyError as err:
            raise ConfigError(f"{path} line {number} has no {err} key"
                              ) from None
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{path} line {number}: {err}") from None
    return rows


# --- feature stage -------------------------------------------------------

def cmd_features(config: ExperimentConfig, dataset_path, out_path) -> Path:
    """Write the feature CSV (header x0..x{2K}) and its provenance sidecar."""
    out_path = Path(out_path)
    cfg = config.feature_map()
    rows = read_dataset(dataset_path)
    header = ",".join(f"x{j}" for j in range(2 * config.k + 1))
    lines = [header] + [",".join(format_float(v) for v in x) for x in _by_state(
        rows, lambda specs, psi, idx: ft.feature_rows(specs, psi, cfg, idx))]
    atomic_write(out_path, "".join(line + "\n" for line in lines))
    provenance = {**asdict(cfg), "schedule": ",".join(map(str, cfg.schedule))
                  if cfg.schedule else None}
    atomic_write(sidecar_path(out_path), json_17g(provenance) + "\n")
    return out_path


def read_features(path):
    """(the header's column names, the rows under it), each line converted
    once; an empty header, or the first line that is not a row of finite
    numbers as wide as the header, is refused with its number."""
    names, *lines = Path(path).read_text().splitlines() or [""]
    if not names:
        raise ConfigError(f"{path} line 1 is not a header of column names")
    width = names.count(",") + 1
    rows = [(number, line) for number, line in enumerate(lines, 2)
            if line.strip()]
    x = np.empty((len(rows), width))
    for i, (number, line) in enumerate(rows):
        try:  # float() would read the digit separator of 1_5 as 15
            row = [] if "_" in line else list(map(float, line.split(",")))
        except ValueError:
            row = []
        if len(row) != width or not all(map(math.isfinite, row)):
            raise ConfigError(f"{path} line {number} is not a row of finite "
                              f"numbers as wide as the header: {line!r}")
        x[i] = row
    return names.split(","), x


# --- training stage ------------------------------------------------------

def split_indices(num: int, split: float, seed: int,
                  role: int = ROLE_SPLIT) -> tuple[np.ndarray, np.ndarray]:
    """One seeded shuffle of the role's substream; the first
    ceil(split·num) indices train."""
    perm = substream(seed, role).permutation(num)
    n_train = math.ceil(split * num)
    return perm[:n_train], perm[n_train:]


def _select_ridge_alpha(train: DesignMatrix, seed: int) -> float:
    """Pick alpha from the fixed grid by MSE on a held-out fifth of train,
    every alpha's weights from one SVD of the other four fifths."""
    fit_idx, val_idx = split_indices(train.n_samples, 0.8, seed, ROLE_VALID)
    if len(val_idx) == 0:
        return RIDGE_ALPHA_GRID[0]
    weights, _ = _ridge_path(DesignMatrix(X=train.X[fit_idx],
                                          y=train.y[fit_idx]))
    val = DesignMatrix(X=train.X[val_idx], y=train.y[val_idx])
    return min(RIDGE_ALPHA_GRID, key=lambda alpha: evaluate(
        RegressionModel(weights(alpha)), val).mse)


def fit_model(config: ExperimentConfig, train: DesignMatrix) -> RegressionModel:
    if config.method == "ols":
        return fit_ols(train)
    if config.method == "ridge":
        alpha = config.alpha
        if alpha is None:
            alpha = _select_ridge_alpha(train, config.seed)
        return fit_ridge(train, alpha)
    if config.w_bound is None:
        raise ConfigError("method 'constrained' needs w_bound")
    return fit_constrained(train, config.w_bound)


def cmd_train_eval(config: ExperimentConfig, features_path, dataset_path,
                   model_out, metrics_out) -> Metrics:
    """Fit on the seeded split, evaluate on the held-out rows, write the
    model and metrics JSON files."""
    _, x = read_features(features_path)
    y = np.array([rec[2] for rec in read_dataset(dataset_path)])
    if x.shape[0] != len(y):
        raise ConfigError(
            f"row mismatch: {x.shape[0]} feature rows vs {len(y)} labels"
        )
    train_idx, test_idx = split_indices(len(y), config.split, config.seed)
    train = DesignMatrix(X=x[train_idx], y=y[train_idx])
    test = DesignMatrix(X=x[test_idx], y=y[test_idx])
    model = fit_model(config, train)
    metrics = evaluate(model, test, n_train=len(train_idx))
    atomic_write(model_out, json_17g(model.to_dict()) + "\n")
    atomic_write(metrics_out, json_17g(metrics.to_dict()) + "\n")
    return metrics


# --- scatter stage -------------------------------------------------------

def cmd_scatter(exact_path, noisy_path, out_path) -> Path:
    """Pair two same-shape CSV files cell-by-cell into a long-format CSV
    (column, row, exact, estimated) for external plotting."""
    header, exact = read_features(exact_path)
    _, noisy = read_features(noisy_path)
    if exact.shape != noisy.shape:
        raise ConfigError(
            f"shape mismatch: {exact.shape} vs {noisy.shape}"
        )
    lines = ["column,row,exact,estimated"]
    for i in range(exact.shape[0]):
        for j in range(exact.shape[1]):
            lines.append(f"{header[j]},{i},{format_float(exact[i, j])},"
                         f"{format_float(noisy[i, j])}")
    atomic_write(out_path, "".join(line + "\n" for line in lines))
    return Path(out_path)


def overlap_scatter(config: ExperimentConfig, dataset_path, out_path) -> Path:
    """Exact vs shot-estimated overlap probabilities for every sample, time
    index, and circuit (the four w's) of the overlap-shots readout, with
    the draws and the Trotter schedule of the matching feature rows; rows
    at t = 0 show the degenerate peaks w_+ = 1 and w_±i = 1/2."""
    _count("overlap scatter shots", config.shots, 1)
    cfg = replace(config, backend="overlap-shots").feature_map()
    lines, times = ["sample,l,circuit,exact,estimated"], cfg.times()

    def scatter(specs, psi, idx):  # rows (w, its estimate), shape (2, L, 4)
        amps, lambda_ref = ft.checked_amplitudes(specs, psi, cfg)
        w = ft.overlaps_from_amplitudes(amps, lambda_ref[:, None], times)
        return np.stack(
            [w, ft.overlap_frequencies(w, cfg.n_shot, cfg.seed, idx)], axis=1)

    for i, (w, est) in enumerate(_by_state(read_dataset(dataset_path), scatter)):
        for l in range(len(times)):
            for circuit, name in enumerate(ft.OVERLAP_NAMES):
                lines.append(f"{i},{l},{name},{format_float(w[l, circuit])},"
                             f"{format_float(est[l, circuit])}")
    atomic_write(out_path, "".join(line + "\n" for line in lines))
    return Path(out_path)


# --- reproduction rows ---------------------------------------------------

_BASE_12Q = ExperimentConfig(n=12, num=55, split=0.8, seed=DEFAULT_SEED,
                             k=11, c=3.0, f_kind="exp", beta=1.0,
                             state="domain_wall", method="ols")

#: each row carries the reference metrics its thresholds were set against
REPRODUCE_ROWS = {
    "exact12": {
        "config": replace(_BASE_12Q, backend="exact", shots=0, schedule=None),
        "reference": {"r2": 1.00, "mse": 1.47e-10},
        "criteria": {"mse_max": 1e-6, "r2_min": 0.999},
    },
    "trotter12": {
        "config": replace(_BASE_12Q, backend="overlap-shots", shots=0,
                          schedule=SCHEDULE_12Q),
        "reference": {"r2": 0.998, "mse": 1.66e-4},
        "criteria": {"mse_max": 1e-3, "r2_min": 0.99},
    },
    "shots12": {
        "config": replace(_BASE_12Q, backend="overlap-shots", shots=10_000,
                          schedule=SCHEDULE_12Q),
        "reference": {"r2": 0.977, "mse": 2.10e-3},
        "criteria": {"r2_min": 0.95},
    },
}

_LARGE_ROWS = {"exact32", "trotter32", "shots32", "mps32", "qpu32",
               "exact40", "trotter40", "shots40", "mps40", "qpu40"}


def cmd_reproduce(row: str, out_dir, seed: int | None = None) -> dict:
    """Run one reference protocol end to end by chaining the generate,
    features, and train stages, then check its acceptance thresholds."""
    if row in _LARGE_ROWS:
        raise ConfigError(
            f"row {row!r} is not a desk-scale target: its exact labels need "
            f"moments on a 32- or 40-qubit half-filling sector (C(32,16) ~ "
            f"6.0e8 states) over the sector memory budget, and no MPS or QPU "
            f"backend exists. Supported rows: {sorted(REPRODUCE_ROWS)}"
        )
    if row not in REPRODUCE_ROWS:
        raise ConfigError(
            f"unknown row {row!r}; supported rows: {sorted(REPRODUCE_ROWS)}"
        )
    entry = REPRODUCE_ROWS[row]
    config = entry["config"]
    if seed is not None:
        config = replace(config, seed=seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = out_dir / f"{row}_dataset.jsonl"
    feats = out_dir / f"{row}_features.csv"
    cmd_generate(config, dataset)
    cmd_features(config, dataset, feats)
    metrics = cmd_train_eval(config, feats, dataset,
                             out_dir / f"{row}_model.json",
                             out_dir / f"{row}_metrics.json")
    checks = {}
    crit = entry["criteria"]
    if "mse_max" in crit:
        checks[f"mse <= {crit['mse_max']:g}"] = metrics.mse <= crit["mse_max"]
    if "r2_min" in crit:
        checks[f"r2 >= {crit['r2_min']:g}"] = metrics.r2 >= crit["r2_min"]
    ref = entry["reference"]
    print(f"row {row}: R2 = {metrics.r2:.6f} (reference {ref['r2']}), "
          f"MSE = {metrics.mse:.3e} (reference {ref['mse']:.3g})")
    for name, ok in checks.items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    return {
        "row": row,
        "metrics": metrics.to_dict(),
        "reference": ref,
        "checks": checks,
        "pass": all(checks.values()),
    }
