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
    amplitude_rows,
    amplitudes,
    exact_evolve,
    heisenberg_gate,
    trotter_evolve,
)
from .features import (
    FeatureMapConfig,
    estimate,
    feature_rows,
    feature_vector,
    overlap_frequencies,
    overlap_reference,
    overlaps_from_amplitudes,
    reconstruct_amplitudes,
)
from .hamiltonians import (
    ConfigError,
    CouplingSpec,
    SectorBasis,
    SpectralMeasure,
    apply_hamiltonian,
    sample_couplings,
    sector_eigensystem,
    spectral_bound,
    spectral_measures,
)
from .labels import FunctionSpec, label, label_rows
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
from .rng import substream, substreams
from .states import (
    StateVector,
    basis_state,
    domain_wall,
)

__version__ = "0.1.0"
