"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.

The 12-qubit rows reproduce the reference protocol (n=12, K=11, C=3,
N_d=55, 8:2 split, thermal target) on fresh seeded draws; the remaining
criteria are property checks with frozen oracle values.
"""

import math

import numpy as np
import pytest

from hamfourier.bounds import BoundInputs, hoeffding_shots, expected_loss_bound
from hamfourier.evolution import amplitudes, exact_evolve, trotter_evolve
from hamfourier.features import (
    FeatureMapConfig,
    feature_rows,
    feature_vector,
    overlap_reference,
    overlaps_from_amplitudes,
    reconstruct_amplitudes,
)
from hamfourier.hamiltonians import apply_hamiltonian, sample_couplings
from hamfourier.labels import FunctionSpec, label, label_rows
from hamfourier.pipeline import cmd_reproduce
from hamfourier.regression import DesignMatrix, fit_constrained
from hamfourier.rng import substream, substreams
from hamfourier.states import basis_state, domain_wall

from conftest import random_sector_state, random_spec


def report(index: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {index}: {detail}")


def test_criterion_1_exact_pipeline(tmp_path):
    """Exact 12-qubit row: test MSE <= 1e-6 and R^2 >= 0.999."""
    result = cmd_reproduce("exact12", tmp_path)
    mse, r2 = result["metrics"]["mse"], result["metrics"]["r2"]
    ok = mse <= 1e-6 and r2 >= 0.999
    report(1, ok, f"exact12 MSE={mse:.3e} (<=1e-6), R2={r2:.6f} (>=0.999)")
    assert ok


def test_criterion_2_trotterized_noiseless(tmp_path):
    """Scheduled Strang evolution, overlap reconstruction, no sampling."""
    result = cmd_reproduce("trotter12", tmp_path)
    mse, r2 = result["metrics"]["mse"], result["metrics"]["r2"]
    ok = mse <= 1e-3 and r2 >= 0.99
    report(2, ok, f"trotter12 MSE={mse:.3e} (<=1e-3), R2={r2:.6f} (>=0.99)")
    assert ok


def test_criterion_3_shot_noise_robustness(tmp_path):
    """overlap-shots at N_shot = 10^4: R^2 >= 0.95 on >= 4 of 5 seeds."""
    seeds = (101, 202, 303, 404, 505)
    r2s = []
    for seed in seeds:
        result = cmd_reproduce("shots12", tmp_path, seed=seed)
        r2s.append(result["metrics"]["r2"])
    hits = sum(r2 >= 0.95 for r2 in r2s)
    ok = hits >= 4
    report(3, ok, f"shots12 R2 per seed {[f'{v:.4f}' for v in r2s]}; "
                  f"{hits}/5 >= 0.95 (need >= 4)")
    assert ok


def test_criterion_4_overlap_identity():
    """Reconstruction from the four overlaps equals the exact amplitude."""
    rng = np.random.default_rng(48)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        spec = random_spec(n, rng)
        psi = random_sector_state(n, int(rng.integers(1, n + 1)), rng)
        lambda_ref = overlap_reference(spec, psi)
        t = np.array([rng.uniform(0, np.pi)])
        amps = amplitudes(spec, psi, t)
        rec = reconstruct_amplitudes(
            overlaps_from_amplitudes(amps, lambda_ref, t), lambda_ref, t)
        worst = max(worst, abs(rec[0] - amps[0]))
    ok = worst <= 1e-10
    report(4, ok, f"overlap reconstruction identity: worst |error| = "
                  f"{worst:.2e} over 100 random instances (<=1e-10)")
    assert ok


def test_criterion_5_hoeffding_shot_count():
    """All 2K+1 estimates within eta in >= 93% of 500 trials."""
    eta, delta, k_order = 0.1, 0.05, 5
    n_shot = hoeffding_shots(eta, delta, k_order)
    assert n_shot == math.ceil(200 * math.log(440)) == 1218
    master = 515
    psi = basis_state(6, "000111")
    cfg_exact = FeatureMapConfig(K=k_order, C=3.0)
    cfg_shot = FeatureMapConfig(K=k_order, C=3.0, backend="hadamard-shots",
                                n_shot=n_shot, seed=master)
    hits = 0
    trials = 500
    for trial in range(trials):
        spec = sample_couplings(6, substream(master, 1, trial))
        x = feature_vector(spec, psi, cfg_exact)
        x_tilde = feature_vector(spec, psi, cfg_shot, sample_index=trial)
        if np.max(np.abs(x_tilde - x)) <= eta:
            hits += 1
    ok = hits >= 0.93 * trials
    report(5, ok, f"Hoeffding coverage at N_shot={n_shot}: {hits}/{trials} "
                  f"trials within eta={eta} (need >= 465)")
    assert ok


def test_criterion_6_expected_loss_bound():
    """Monte Carlo expected loss of the constrained fit stays below the
    closed-form bound in >= 90% of 200 experiments."""
    k_order, w_budget, n_data, delta = 5, 1.0, 200, 0.1
    n_eval, experiments = 1000, 200
    master = 606
    psi = basis_state(6, "000111")
    cfg = FeatureMapConfig(K=k_order, C=3.0)
    wins = 0
    for e in range(experiments):
        coeff_rng = substream(master, 2, e)
        c = coeff_rng.normal(size=2 * k_order + 1)
        c *= w_budget / np.linalg.norm(c)
        fspec = FunctionSpec("fourier", 3.0, coeffs=c)
        keys = [(1, e, i) for i in range(n_data + n_eval)]
        specs = [sample_couplings(6, g) for g in substreams(master, keys)]
        xs, ys = feature_rows(specs, psi, cfg), label_rows(specs, psi, fspec)
        model = fit_constrained(DesignMatrix(X=xs[:n_data], y=ys[:n_data]),
                                w_budget)
        mc_loss = float(np.mean((ys[n_data:] - xs[n_data:] @ model.weights) ** 2))
        bound = expected_loss_bound(BoundInputs(K=k_order, W=w_budget,
                                         f_inf=fspec.sup_norm, N_d=n_data,
                                         delta=delta, eps_K=0.0))
        wins += mc_loss <= bound
    ok = wins >= 0.9 * experiments
    report(6, ok, f"expected-loss bound held in {wins}/{experiments} "
                  f"experiments (need >= 180)")
    assert ok


def test_criterion_7_trotter_order():
    """Log-log error slope over n_step in {4,8,16,32} is -2 +- 0.3."""
    rng = np.random.default_rng(77)
    spec = random_spec(4, rng)
    v = domain_wall(4)
    exact = exact_evolve(spec, v, 1.0).amplitudes
    steps = np.array([4, 8, 16, 32])
    errs = [np.linalg.norm(exact - trotter_evolve(spec, v, 1.0, s).amplitudes)
            for s in steps]
    slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    ok = abs(slope + 2.0) <= 0.3
    report(7, ok, f"Strang convergence slope = {slope:.3f} (-2 +- 0.3)")
    assert ok


def test_criterion_8_exact_expressibility():
    """Fourier-series labels + exact features: constrained training MSE
    <= 1e-10."""
    rng = np.random.default_rng(88)
    k_order, w_budget = 5, 1.3
    c = rng.normal(size=2 * k_order + 1)
    c *= w_budget / np.linalg.norm(c)
    fspec = FunctionSpec("fourier", 3.0, coeffs=c)
    psi = basis_state(6, "000111")
    cfg = FeatureMapConfig(K=k_order, C=3.0)
    xs, ys = [], []
    for _ in range(60):
        spec = random_spec(6, rng)
        xs.append(feature_vector(spec, psi, cfg))
        ys.append(label(spec, psi, fspec))
    data = DesignMatrix(X=np.array(xs), y=np.array(ys))
    model = fit_constrained(data, w_budget)
    train_mse = float(np.mean((data.y - data.X @ model.weights) ** 2))
    ok = train_mse <= 1e-10
    report(8, ok, f"constrained training MSE = {train_mse:.2e} (<=1e-10)")
    assert ok


def test_criterion_9_bound_calculators():
    """Frozen scalar-oracle values for the bound evaluators."""
    rhs = expected_loss_bound(BoundInputs(K=1, W=1.0, f_inf=1.0, N_d=100, delta=0.1))
    shots = hoeffding_shots(0.05, 0.05, 11)
    ok = abs(rhs - 4.6333) <= 1e-3 and shots == 5460
    report(9, ok, f"expected_loss_bound = {rhs:.6f} (4.6333 +- 1e-3), "
                  f"hoeffding_shots = {shots} (== 5460)")
    assert ok


def test_criterion_10_invariant_suite():
    """Feature bounds, overlap sum rule, unitarity, magnetization
    conservation, Gram trace: zero violations over 1000 randomized cases."""
    rng = np.random.default_rng(1010)
    cfg = FeatureMapConfig(K=4, C=3.0)
    violations = 0
    gram_rows: list[np.ndarray] = []
    for case in range(1000):
        n = int(rng.integers(2, 7))
        spec = random_spec(n, rng)
        kind = case % 5
        if kind == 0:
            psi = random_sector_state(n, int(rng.integers(0, n + 1)), rng)
            x = feature_vector(spec, psi, cfg)
            if np.any(np.abs(x) > 1 + 1e-10) or abs(x[0] - 1) > 1e-10:
                violations += 1
        elif kind == 1:
            psi = random_sector_state(n, int(rng.integers(1, n + 1)), rng)
            t = np.array([rng.uniform(0, np.pi)])
            (w,) = overlaps_from_amplitudes(amplitudes(spec, psi, t),
                                            overlap_reference(spec, psi), t)
            sum_gap = abs((w[0] + w[1]) - (w[2] + w[3]))
            if sum_gap > 1e-10 or np.any((w < -1e-12) | (w > 1 + 1e-12)):
                violations += 1
        elif kind == 2:
            psi = random_sector_state(n, int(rng.integers(0, n + 1)), rng)
            t = float(rng.uniform(0, 4))
            out_t = trotter_evolve(spec, psi, t, int(rng.integers(1, 5)))
            out_e = exact_evolve(spec, psi, t)
            if (abs(np.linalg.norm(out_t.amplitudes) - 1) > 1e-10
                    or abs(np.linalg.norm(out_e.amplitudes) - 1) > 1e-10):
                violations += 1
        elif kind == 3:
            idx = int(rng.integers(0, 2**n))
            pop = idx.bit_count()
            basis_vec = np.zeros(2**n, dtype=complex)
            basis_vec[idx] = 1.0
            hv = apply_hamiltonian(spec, basis_vec)
            bad = any(int(j).bit_count() != pop for j in np.nonzero(hv)[0])
            state = basis_state(n, format(idx, f"0{n}b"))
            tv = trotter_evolve(spec, state, float(rng.uniform(0, 3)), 2)
            bad |= any(int(j).bit_count() != pop
                       for j in np.nonzero(tv.amplitudes)[0])
            violations += bad
        else:
            psi = random_sector_state(n, int(rng.integers(0, n + 1)), rng)
            gram_rows.append(feature_vector(spec, psi, cfg))
            if len(gram_rows) == 10:
                x = np.array(gram_rows)
                if np.sum(x**2) > (2 * cfg.K + 1) * len(x) + 1e-9:
                    violations += 1
                gram_rows = []
    ok = violations == 0
    report(10, ok, f"invariant suite: {violations} violations across 1000 "
                   f"randomized cases (need 0)")
    assert ok
