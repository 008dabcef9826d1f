"""Learning-theory bound evaluators and a miniature coverage experiment.

Run:  python demos/05_bounds.py
"""

import numpy as np

from hamfourier import (
    BoundInputs,
    FeatureMapConfig,
    noisy_expected_loss_bound,
    basis_state,
    sufficient_parameters,
    feature_vector,
    hoeffding_shots,
    sample_couplings,
    expected_loss_bound,
)

print("=== expected-loss bound for the reference protocol ===")
b = BoundInputs(K=11, W=1.0, f_inf=np.exp(3.0), N_d=55, delta=0.1)
print(f"K={b.K}, W={b.W}, ||f||_inf=e^3, N_d={b.N_d}, delta={b.delta}")
print("noiseless bound :", expected_loss_bound(b))
b_noisy = BoundInputs(K=11, W=1.0, f_inf=np.exp(3.0), N_d=55, delta=0.1,
                      eta=0.05)
print("with eta = 0.05 :", noisy_expected_loss_bound(b_noisy))
print("(the bound is loose; the observed test MSE is orders smaller)")

print("\n=== sufficient (K, N_d) for a Lipschitz target ===")
for eps in (0.5, 0.2, 0.1):
    k_req, n_req = sufficient_parameters(eps, 1.0, 1.0)
    print(f"target loss {eps}: K = {k_req:4d}, N_d = {n_req:9d}")

print("\n=== Hoeffding shot budget and its empirical coverage ===")
eta, delta, k_order = 0.1, 0.05, 5
n_shot = hoeffding_shots(eta, delta, k_order)
print(f"eta={eta}, delta={delta}, K={k_order} -> N_shot = {n_shot}")
rng = np.random.default_rng(7)
psi = basis_state(6, "000111")
cfg_exact = FeatureMapConfig(K=k_order, C=3.0)
cfg_shot = FeatureMapConfig(K=k_order, C=3.0, backend="hadamard-shots",
                            n_shot=n_shot, seed=11)
hits = 0
trials = 100
for trial in range(trials):
    spec = sample_couplings(6, rng)
    x = feature_vector(spec, psi, cfg_exact)
    x_tilde = feature_vector(spec, psi, cfg_shot, sample_index=trial)
    hits += np.max(np.abs(x_tilde - x)) <= eta
print(f"all 2K+1 features within eta in {hits}/{trials} trials "
      f"(guarantee: >= {100 * (1 - delta):.0f}%)")
