"""Fourier features of a Hamiltonian: exact values, the reference-eigenstate
overlap reconstruction, and simulated shot noise.

Run:  python demos/03_features_and_shots.py
"""

import numpy as np

from hamfourier import (
    FeatureMapConfig,
    amplitudes,
    domain_wall,
    feature_vector,
    overlap_frequencies,
    overlap_reference,
    overlaps_from_amplitudes,
    reconstruct_amplitudes,
    sample_couplings,
)

rng = np.random.default_rng(3)
spec = sample_couplings(8, rng)
psi = domain_wall(8)
lambda_ref = overlap_reference(spec, psi)

print("=== exact feature vector (K=5, C=3) ===")
cfg = FeatureMapConfig(K=5, C=3.0)
x = feature_vector(spec, psi, cfg)
print("x =", np.round(x, 4))
print("layout: (cos_0, sin_1, cos_1, ..., sin_5, cos_5); x0 = 1 always")

print("\n=== overlap probabilities recombine into the same amplitudes ===")
times = cfg.times()
amps = amplitudes(spec, psi, times)
w = overlaps_from_amplitudes(amps, lambda_ref, times)
rec = reconstruct_amplitudes(w, lambda_ref, times)
for l in (0, 1):
    print(f"t = {times[l]:.3f}: w+ = {w[l, 0]:.4f}, w- = {w[l, 1]:.4f}, "
          f"w+i = {w[l, 2]:.4f}, w-i = {w[l, 3]:.4f} -> A = {rec[l]:.6f}")
print("max |reconstructed - exact amplitude| =", np.max(np.abs(rec - amps)))

print("\n=== shot noise shrinks as 1/sqrt(N_shot) ===")
for n_shot in (100, 10_000):
    reps = np.arange(200)  # one sample index, so one substream, per repetition
    devs = (overlap_frequencies(np.tile(w[1:2], (len(reps), 1, 1)), n_shot,
                                seed=0, samples=reps)[:, 0, 0] - w[1, 0])
    print(f"N_shot = {n_shot:6d}: rms deviation of w+ = "
          f"{np.sqrt(np.mean(np.square(devs))):.5f}")

print("\n=== noisy feature vectors are seeded and reproducible ===")
cfg_shots = FeatureMapConfig(K=5, C=3.0, backend="overlap-shots",
                             n_shot=2000, seed=42)
a = feature_vector(spec, psi, cfg_shots, sample_index=0)
b = feature_vector(spec, psi, cfg_shots, sample_index=0)
print("two runs identical:", np.array_equal(a, b))
print("max |noisy - exact| at 2000 shots:", np.max(np.abs(a - x)))
