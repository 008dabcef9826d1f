"""Exact spectral propagation vs second-order Trotter splitting.

Shows that the spectral measure fixes the energy, which generates the
exact amplitude A(t) = <psi|e^{-iHt}|psi>, and the O(dt^2) error of the
Strang product formula in A(t).

Run:  python demos/02_time_evolution.py
"""

import numpy as np

from hamfourier import (
    amplitudes,
    domain_wall,
    sample_couplings,
    spectral_measures,
)

rng = np.random.default_rng(2)
spec = sample_couplings(8, rng)
psi = domain_wall(8)

print("=== the spectral measure fixes the energy ===")
(rec,) = spectral_measures([spec], psi)
energy = rec.eigenvalues[0] @ rec.probabilities[0]
print(f"<H> = sum_l p_l lambda_l = {energy:+.12f}; the weights p_l do not "
      "change in time, so neither does <H>")
dt = 1e-4
a_minus, a_plus = amplitudes(spec, psi, [-dt, dt])
print(f"i dA/dt at t=0 (central difference) = "
      f"{(1j * (a_plus - a_minus) / (2 * dt)).real:+.12f}")

print("\n=== Strang splitting converges at second order ===")
t = 1.5
exact = amplitudes(spec, psi, t)[0]
print(f"{'n_step':>7} {'|A error|':>12} {'ratio':>7}")
prev = None
for n_step in (2, 4, 8, 16, 32, 64):
    err = abs(exact - amplitudes(spec, psi, t, (n_step,))[0])
    ratio = "" if prev is None else f"{prev / err:7.2f}"
    print(f"{n_step:7d} {err:12.3e} {ratio:>7}")
    prev = err
print("doubling n_step divides the error by ~4, the second-order signature")
