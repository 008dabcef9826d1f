"""Random Heisenberg chains: coupling normalization, magnetization sectors,
and spectral bounds.

Run:  python demos/01_spin_chains.py
"""

import numpy as np

from hamfourier import (
    basis_state,
    sample_couplings,
    spectral_bound,
    spectral_measures,
)

rng = np.random.default_rng(1)

print("=== sampling a 12-qubit chain ===")
spec = sample_couplings(12, rng)
print("couplings:", np.round(spec.couplings, 4))
print("sum |J_m| =", sum(abs(j) for j in spec.couplings))
print("certified ||H|| bound:", spectral_bound(spec))

print("\n=== the all-zeros state is an eigenvector ===")
(rec,) = spectral_measures([spec], basis_state(12, "0" * 12))
lam = sum(spec.couplings)
print("H|0...0> = lambda |0...0> with lambda =", lam)
print(f"its spectral measure: {rec.eigenvalues.size} eigenvalue "
      f"{rec.eigenvalues[0, 0]} with weight {rec.probabilities[0, 0]}")

print("\n=== sector-block diagonalization ===")
for magnetization in (0, 1, 6):
    # a dense record holds every eigenvalue of the state's sector
    bits = "1" * magnetization + "0" * (12 - magnetization)
    (rec,) = spectral_measures([spec], basis_state(12, bits))
    evals = rec.eigenvalues
    print(f"magnetization {magnetization}: dim {evals.size:4d}, spectrum in "
          f"[{evals.min():+.4f}, {evals.max():+.4f}]")
print("every eigenvalue respects the certified bound of",
      spectral_bound(spec))
