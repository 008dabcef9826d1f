"""Correctness checks made apart from the program.

The Hamiltonian is rebuilt here from Kronecker products of Pauli matrices
(qubit 0 is the leftmost factor, the most significant bit), never through
`hamfourier`.  At n = 8 the benchmark diagonalizes its own sector block
densely; at n = 12 it propagates the full 2^12 state with
`scipy.sparse.linalg.expm_multiply`.  The Trotter circuit of the shot row
is rebuilt from `scipy.linalg.expm` of each two-qubit bond term.

Every check returns (name, ok, detail); each counts as one operation.
Shot checks use Hoeffding radii at a total failure probability of
`DELTA`, so a correct program fails one of them on fewer than one run in
a billion.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from workloads import SCHEDULE_12Q, STEP_MARGIN, STEP_THRESHOLD, Workload

#: labels and exact amplitudes must agree with this oracle to within
LABEL_TOL = 1e-9
FEATURE_TOL = 1e-9
#: total failure probability of the Hoeffding checks of one run
DELTA = 1e-9
#: paper-row thresholds of the exact row.  The shot row's R^2 >= 0.95 is
#: not checked per run: it holds on most seeds, not all (seed 45 gives
#: 0.914 on its 11 test samples), so a run checks only that its fit beats
#: the mean, as many8 does.
EXACT12_MSE_MAX, EXACT12_R2_MIN = 1e-6, 0.999

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1j], [1j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
#: XX + YY + ZZ on two qubits (real)
BOND = (np.kron(_X, _X) + np.kron(_Y, _Y) + np.kron(_Z, _Z)).real


def bond_operators(n: int) -> list[sp.csr_matrix]:
    """XX+YY+ZZ on bond (m, m+1) embedded in the full 2^n space."""
    return [sp.kron(sp.kron(sp.identity(2**m), sp.csr_matrix(BOND)),
                    sp.identity(2 ** (n - m - 2)), format="csr")
            for m in range(n - 1)]


def domain_wall_index(n: int) -> int:
    return int("0" * (n // 4) + "1" * (n // 2) + "0" * (n // 4), 2)


def feature_layout(amps: np.ndarray) -> np.ndarray:
    """(Re A_0, Im A_1, Re A_1, ..., Im A_K, Re A_K) for each row of amps."""
    amps = np.atleast_2d(amps)
    x = np.empty((amps.shape[0], 2 * amps.shape[1] - 1))
    x[:, 0] = amps[:, 0].real
    x[:, 1::2] = amps[:, 1:].imag
    x[:, 2::2] = amps[:, 1:].real
    return x


def times(wl: Workload) -> np.ndarray:
    return np.arange(wl.k + 1) * np.pi / wl.c


# --- the oracles ----------------------------------------------------------

def sector_spectra(n: int, couplings: np.ndarray):
    """Dense eigensystems of the popcount-n/2 block for a batch of coupling
    vectors: eigenvalues [B, d] and the squared overlaps of the domain wall
    with each eigenvector [B, d]."""
    popcount = np.array([bin(i).count("1") for i in range(2**n)])
    idx = np.flatnonzero(popcount == n // 2)
    blocks = np.stack([b[idx][:, idx].toarray() for b in bond_operators(n)])
    row = int(np.searchsorted(idx, domain_wall_index(n)))
    evals, weights = [], []
    for chunk in np.array_split(couplings, max(1, len(couplings) // 256)):
        lam, vec = np.linalg.eigh(np.tensordot(chunk, blocks, axes=1))
        evals.append(lam)
        weights.append(vec[:, row, :] ** 2)
    return np.concatenate(evals), np.concatenate(weights)


def propagated(n: int, couplings, wl: Workload, beta: float):
    """Full-space sparse propagation: A(t_l) for l = 0..K and the label
    <ψ|e^{-βH}|ψ> of the domain wall."""
    h = sum(j * b for j, b in zip(couplings, bond_operators(n))).tocsc()
    psi = np.zeros(2**n)
    psi[domain_wall_index(n)] = 1.0
    t = times(wl)
    states = expm_multiply(-1j * h, psi.astype(complex), start=t[0],
                           stop=t[-1], num=len(t), endpoint=True)
    label = float(psi @ expm_multiply(-beta * h, psi))
    return states @ psi, label


def strang_amplitudes(n: int, couplings, wl: Workload, schedule) -> np.ndarray:
    """<ψ|U_l|ψ> with U_l = (e^{-i dt/2 H_odd} e^{-i dt H_even}
    e^{-i dt/2 H_odd})^{s_l}, dt = t_l/s_l, bonds grouped by parity of m."""
    psi = np.zeros(2**n, dtype=complex)
    psi[domain_wall_index(n)] = 1.0

    def layer(vec, parity, dt):
        for m in range(parity, n - 1, 2):
            gate = scipy.linalg.expm(-1j * couplings[m] * dt * BOND)
            vec = np.einsum("ab,ibj->iaj", gate,
                            vec.reshape(2**m, 4, -1)).reshape(-1)
        return vec

    out = []
    for t, steps in zip(times(wl), schedule):
        dt = t / steps
        vec = psi
        for _ in range(steps):
            vec = layer(layer(layer(vec, 1, dt / 2), 0, dt), 1, dt / 2)
        out.append(np.vdot(psi, vec))
    return np.array(out)


def hoeffding_radius(n_shot: int, count: int, lo: float, hi: float) -> float:
    """Half-width at which each of `count` means of n_shot outcomes in
    [lo, hi] stays within its expectation, jointly with prob. 1 - DELTA."""
    return (hi - lo) * math.sqrt(math.log(2 * count / DELTA) / (2 * n_shot))


# --- reading the artifacts -----------------------------------------------

def read_outputs(out: Path) -> dict:
    records = [json.loads(line) for line in
               (out / "dataset.jsonl").read_text().splitlines() if line.strip()]
    return {
        "records": records,
        "J": np.array([r["couplings"] for r in records]),
        "y": np.array([float(r["y"]) for r in records]),
        "X": np.loadtxt(out / "features.csv", delimiter=",", skiprows=1,
                        ndmin=2),
        "config": json.loads((out / "dataset.jsonl.config.json").read_text()),
        "model": json.loads((out / "run" / "model.json").read_text()),
        "metrics": json.loads((out / "run" / "metrics.json").read_text()),
    }


def split(num: int, seed: int, fraction: float = 0.8):
    """The documented 8:2 split: one permutation from the seed's split
    substream (role 2); the first ceil(0.8 num) indices train."""
    perm = np.random.default_rng(np.random.SeedSequence([seed, 2])).permutation(num)
    n_train = math.ceil(fraction * num)
    return perm[:n_train], perm[n_train:]


# --- checks ------------------------------------------------------------

def _check(name, ok, detail):
    return (name, bool(ok), detail)


def check_dataset(wl: Workload, o: dict):
    J = o["J"]
    ok = (len(o["records"]) == wl.num and J.shape == (wl.num, wl.n - 1)
          and all(r["n"] == wl.n and r["state"] == "domain_wall"
                  for r in o["records"])
          and np.all(np.abs(np.abs(J).sum(axis=1) - 1.0) <= 1e-12)
          and np.all(np.isfinite(o["y"])))
    return _check("dataset_well_formed", ok,
                  f"{len(o['records'])} records, J shape {J.shape}")


def check_feature_shape(wl: Workload, o: dict):
    X = o["X"]
    ok = X.shape == (wl.num, 2 * wl.k + 1) and np.all(np.abs(X[:, 0] - 1.0) <= 1e-12)
    return _check("x0_is_one", ok, f"shape {X.shape}, "
                  f"max |x0-1| = {np.max(np.abs(X[:, 0] - 1.0)):.3g}")


def check_beats_mean(o: dict):
    r2 = o["metrics"]["r2"]
    return _check("r2_beats_mean", r2 is not None and r2 > 0.0, f"r2 {r2} > 0")


def check_metrics_consistent(wl: Workload, o: dict, seed: int):
    """metrics.json equals the held-out MSE/R² of model.json's weights."""
    train, test = split(wl.num, seed)
    w = np.asarray(o["model"]["weights"])
    resid = o["y"][test] - o["X"][test] @ w
    mse = float(np.mean(resid ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / float(
        np.sum((o["y"][test] - o["y"][test].mean()) ** 2))
    m = o["metrics"]
    ok = (m["n_train"] == len(train) and m["n_test"] == len(test)
          and math.isclose(m["mse"], mse, rel_tol=1e-9, abs_tol=1e-15)
          and math.isclose(m["r2"], r2, rel_tol=1e-9, abs_tol=1e-12))
    return _check("metrics_match_model", ok,
                  f"reported mse {m['mse']:.6g} r2 {m['r2']:.6g}, "
                  f"recomputed mse {mse:.6g} r2 {r2:.6g}")


def oracle_rows(wl: Workload):
    return list(range(wl.num)) if wl.oracle_samples is None else list(wl.oracle_samples)


def checks_exact12(wl, o, seed):
    rows = oracle_rows(wl)
    d_y, d_x = 0.0, 0.0
    for i in rows:
        amps, y = propagated(wl.n, o["J"][i], wl, beta=1.0)
        d_y = max(d_y, abs(o["y"][i] - y))
        d_x = max(d_x, float(np.max(np.abs(o["X"][i] - feature_layout(amps)[0]))))
    m = o["metrics"]
    return [
        check_dataset(wl, o),
        _check("labels_match_oracle", d_y <= LABEL_TOL,
               f"max |dy| = {d_y:.3g} over samples {rows}"),
        _check("features_match_oracle", d_x <= FEATURE_TOL,
               f"max |dx| = {d_x:.3g} over samples {rows}"),
        check_feature_shape(wl, o),
        _check("mse_threshold", m["mse"] <= EXACT12_MSE_MAX,
               f"mse {m['mse']:.3g} <= {EXACT12_MSE_MAX:g}"),
        _check("r2_threshold", m["r2"] is not None and m["r2"] >= EXACT12_R2_MIN,
               f"r2 {m['r2']} >= {EXACT12_R2_MIN}"),
        check_metrics_consistent(wl, o, seed),
    ]


def checks_shots12(wl, o, seed):
    schedule = [int(s) for s in SCHEDULE_12Q.split(",")]
    rows = oracle_rows(wl)
    # each entry is a difference of two pairs of frequencies rotated by a
    # phase: its error is at most 2*sqrt(2) times one frequency's error
    radius = 2 * math.sqrt(2) * hoeffding_radius(
        wl.shots, len(rows) * (wl.k + 1) * wl.circuits, 0.0, 1.0)
    d_y, d_x = 0.0, 0.0
    for i in rows:
        _, y = propagated(wl.n, o["J"][i], wl, beta=1.0)
        d_y = max(d_y, abs(o["y"][i] - y))
        exact = feature_layout(strang_amplitudes(wl.n, o["J"][i], wl, schedule))[0]
        d_x = max(d_x, float(np.max(np.abs(o["X"][i] - exact))))
    return [
        check_dataset(wl, o),
        _check("labels_match_oracle", d_y <= LABEL_TOL,
               f"max |dy| = {d_y:.3g} over samples {rows}"),
        _check("shots_within_hoeffding_of_trotter", d_x <= radius,
               f"max |dx| = {d_x:.3g} <= {radius:.3g} over samples {rows}"),
        check_feature_shape(wl, o),
        check_beats_mean(o),
        check_metrics_consistent(wl, o, seed),
    ]


def checks_many8(wl, o, seed):
    lam, p = sector_spectra(wl.n, o["J"])
    y = np.sum(p * (lam >= STEP_THRESHOLD), axis=1)
    amps = np.einsum("bd,bdl->bl", p,
                     np.exp(-1j * lam[:, :, None] * times(wl)[None, None, :]))
    exact = feature_layout(amps)
    radius = hoeffding_radius(wl.shots, wl.num * 2 * wl.k, -1.0, 1.0)
    d_x = float(np.max(np.abs(o["X"][:, 1:] - exact[:, 1:])))
    # the threshold the program recorded using, which must be clear of
    # every eigenvalue for the label to be insensitive to rounding
    used = float(o["config"]["beta"])
    gap = float(np.min(np.abs(lam - used)))
    return [
        check_dataset(wl, o),
        _check("labels_match_oracle", np.max(np.abs(o["y"] - y)) <= LABEL_TOL,
               f"max |dy| = {np.max(np.abs(o['y'] - y)):.3g} over all samples"),
        _check("step_threshold_clear_of_spectrum", gap > STEP_MARGIN,
               f"min |lambda - {used}| = {gap:.3g} > {STEP_MARGIN:g}"),
        _check("hadamard_within_hoeffding", d_x <= radius,
               f"max |dx| = {d_x:.3g} <= {radius:.3g}"),
        check_feature_shape(wl, o),
        check_beats_mean(o),
        check_metrics_consistent(wl, o, seed),
    ]


CHECKS = {"exact12": checks_exact12, "shots12": checks_shots12,
          "many8": checks_many8}

#: the checks of each workload, in the order they run
CHECK_NAMES = {
    "exact12": ("dataset_well_formed", "labels_match_oracle",
                "features_match_oracle", "x0_is_one", "mse_threshold",
                "r2_threshold", "metrics_match_model"),
    "shots12": ("dataset_well_formed", "labels_match_oracle",
                "shots_within_hoeffding_of_trotter", "x0_is_one",
                "r2_beats_mean", "metrics_match_model"),
    "many8": ("dataset_well_formed", "labels_match_oracle",
              "step_threshold_clear_of_spectrum", "hadamard_within_hoeffding",
              "x0_is_one", "r2_beats_mean", "metrics_match_model"),
}


def run_checks(wl: Workload, out: Path, seed: int) -> list[tuple]:
    return CHECKS[wl.name](wl, read_outputs(out), seed)
