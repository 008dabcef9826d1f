"""Fourier features of spin-chain Hamiltonians, shot-noise estimators,
norm-constrained linear models, and the matching learning-theory bounds."""

from .bounds import (
    BoundInputs,
    noisy_expected_loss_bound,
    sufficient_parameters,
    hoeffding_shots,
    expected_loss_bound,
)
from .evolution import (
    TrotterSchedule,
    amplitudes,
    exact_evolve,
    heisenberg_gate,
    trotter_evolve,
)
from .features import (
    FeatureMapConfig,
    estimate,
    feature_vector,
    hadamard_estimate,
    overlap_frequencies,
    overlap_reference,
    overlaps_from_amplitudes,
    reconstruct_amplitudes,
)
from .hamiltonians import (
    CouplingSpec,
    SectorBasis,
    SpectralMeasure,
    apply_hamiltonian,
    sample_couplings,
    sector_eigensystem,
    spectral_bound,
    spectral_measure,
    spectral_weights,
)
from .labels import (
    FunctionSpec,
    cosine,
    eval_f,
    exp_neg_beta,
    fourier_series,
    label,
    sine,
    step,
)
from .pipeline import ExperimentConfig, cmd_reproduce
from .regression import (
    DesignMatrix,
    Metrics,
    RegressionModel,
    evaluate,
    fit_constrained,
    fit_ols,
    fit_ridge,
)
from .rng import substream
from .states import (
    ReferenceEigenstate,
    StateVector,
    basis_state,
    domain_wall,
    inner,
    reference_eigenstate,
    superpose,
)

__version__ = "0.1.0"
