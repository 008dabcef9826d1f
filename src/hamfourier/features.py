"""Fourier features of a Hamiltonian against a fixed state: one amplitude
layer followed by one noise layer.

The feature vector has 2K+1 entries built from A(t_l) = Tr[e^{-iHt_l}ρ] at
the times t_l = lπ/C:

    x[0]      = Re A(t_0) = 1
    x[2l-1]   = Im A(t_l)        (l = 1..K)
    x[2l]     = Re A(t_l)        (l = 1..K)

feature_vector composes the two layers:

  amplitude layer  evolution.amplitudes: A(t_l) from one spectral measure
                   of ψ per sample, or from the Strang circuit with
                   schedule[l] steps when a schedule is present.
  noise layer      estimate: what the backend's readout measures of A.
                   With n_shot = 0 it returns A unchanged, since both
                   readouts are unbiased and their infinite-shot limit is
                   A itself (for the overlap readout
                   reconstruct(overlaps(A)) = A exactly).  With n_shot >= 1:
    hadamard-shots   each quadrature is the mean of N_shot ±1 outcomes
                     with P(+1) = (1 + value)/2.
    overlap-shots    the four probabilities w_± = |<ψ_±|U(t)|ψ_+>|²,
                     w_±i = |<ψ_±i|U(t)|ψ_+>|² are estimated as empirical
                     frequencies and recombined as
                     A = [w_+ - w_- + i(w_{+i} - w_{-i})]·e^{-i λ_ref t}.
  The exact backend has no readout and takes no shots.

The overlap readout superposes ψ with the reference |0...0>, whose
eigenvalue λ_ref = sum_m J_m follows from the spec; it needs ψ orthogonal
to the reference, which is checked for the overlap-shots backend only, at
any n_shot.  |0...0> is an exact eigenstate of every Strang step with the
same accumulated phase e^{-i λ_ref t}, so the recombination above stays
exact for Trotterized evolution too.

Shot estimates are unbiased and deliberately NOT clipped to [-1, 1]; for
the overlap backend the recombined entries can overshoot up to |x| <= sqrt(2)
(each difference of frequencies lies in [-1, 1]), for the Hadamard backend
|x| <= 1 always.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import TrotterSchedule, amplitudes
from .hamiltonians import CouplingSpec, spectral_bound
from .rng import ROLE_SHOTS, substream
from .states import StateVector, reference_eigenstate

BACKENDS = ("exact", "hadamard-shots", "overlap-shots")

#: the overlap probabilities; a name's position is its circuit id, which
#: keys its shot substream and indexes the last axis of overlap arrays
OVERLAP_NAMES = ("w_plus", "w_minus", "w_plus_i", "w_minus_i")
CIRCUIT_COS, CIRCUIT_SIN = 0, 1


class ConfigError(ValueError):
    """Feature-map configuration is inconsistent with its inputs."""


@dataclass(frozen=True)
class FeatureMapConfig:
    """Hyperparameters of the feature map.

    n_shot = 0 selects the infinite-shot limit (exact expectation values,
    no sampling); the shot backends sample for n_shot >= 1, and the exact
    backend needs n_shot = 0.  A schedule, when present, must provide one
    step count per time t_0..t_K.
    """

    K: int
    C: float
    backend: str = "exact"
    n_shot: int = 0
    schedule: TrotterSchedule | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.K < 0:
            raise ConfigError(f"K must be >= 0, got {self.K}")
        if self.C <= 0:
            raise ConfigError(f"C must be positive, got {self.C}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend {self.backend!r} not in {BACKENDS}")
        if self.n_shot < 0:
            raise ConfigError(f"n_shot must be >= 0, got {self.n_shot}")
        if self.backend == "exact" and self.n_shot:
            raise ConfigError(
                f"backend 'exact' draws no shots, got n_shot = {self.n_shot}; "
                "choose a shot backend or n_shot = 0"
            )
        if self.schedule is not None and len(self.schedule) != self.K + 1:
            raise ConfigError(
                f"schedule has {len(self.schedule)} entries, need K+1 = {self.K + 1}"
            )

    def times(self) -> np.ndarray:
        """Feature times t_l = lπ/C for l = 0..K."""
        return np.arange(self.K + 1) * np.pi / self.C


def feature_vector(spec: CouplingSpec, psi: StateVector, cfg: FeatureMapConfig,
                   sample_index: int = 0) -> np.ndarray:
    """The 2K+1 features of one sample: the amplitude layer, then the noise
    layer.  x[0] = 1 and |x_k| <= 1 without shots."""
    bound = spectral_bound(spec)
    if cfg.C < bound * (1.0 - 1e-9):
        raise ConfigError(
            f"C = {cfg.C} is below the spectral bound {bound}; eigenvalues "
            "would wrap around the Fourier period"
        )
    amps = estimate(amplitudes(spec, psi, cfg.times(), cfg.schedule),
                    spec, psi, cfg, sample_index)
    x = np.empty(2 * cfg.K + 1)
    x[0::2] = amps.real
    x[1::2] = amps.imag[1:]  # the l = 0 sine vanishes
    return x


def estimate(amps: np.ndarray, spec: CouplingSpec, psi: StateVector,
             cfg: FeatureMapConfig, sample_index: int = 0) -> np.ndarray:
    """Noise layer: the backend's estimate of A(t_l) at cfg.times(); A
    itself when n_shot = 0.

    Sampling draws from the exactly computed outcome probabilities instead
    of simulating measurement circuits — statistically identical and far
    cheaper.  Every estimated circuit gets its own substream keyed by
    (seed, ROLE_SHOTS, sample_index, l, circuit id), so results are
    reproducible independent of evaluation order.
    """
    if cfg.backend == "overlap-shots":  # the check holds at any n_shot
        lambda_ref = overlap_reference(spec, psi)
    if cfg.n_shot == 0:
        return amps
    if cfg.backend == "hadamard-shots":
        est = np.empty(len(amps), dtype=complex)
        for l, a in enumerate(amps):
            est[l] = complex(
                hadamard_estimate(a, "real", cfg.n_shot, substream(
                    cfg.seed, ROLE_SHOTS, sample_index, l, CIRCUIT_COS)),
                hadamard_estimate(a, "imag", cfg.n_shot, substream(
                    cfg.seed, ROLE_SHOTS, sample_index, l, CIRCUIT_SIN)))
        return est
    times = cfg.times()  # overlap-shots: the exact backend takes no shots
    w = overlap_frequencies(overlaps_from_amplitudes(amps, lambda_ref, times),
                            cfg.n_shot, cfg.seed, sample_index)
    return reconstruct_amplitudes(w, lambda_ref, times)


def overlap_reference(spec: CouplingSpec, psi: StateVector) -> float:
    """λ_ref of the overlap readout's reference |0...0>, after checking that
    psi is orthogonal to it, as the readout needs."""
    ref = reference_eigenstate(spec)
    overlap = psi.amplitudes[int(ref.bitstring, 2)]
    if abs(overlap) > 1e-10:
        raise ValueError(
            f"state is not orthogonal to the reference eigenstate "
            f"(overlap {abs(overlap):.3e})"
        )
    return ref.eigenvalue


def overlaps_from_amplitudes(amps: np.ndarray, lambda_ref: float,
                             times: np.ndarray) -> np.ndarray:
    """Closed-form overlap probabilities, shape (len(times), 4) in
    OVERLAP_NAMES order: w_± = |r ± A|²/4, w_{+i} = |r - iA|²/4,
    w_{-i} = |r + iA|²/4 with r = e^{-i λ_ref t}."""
    r = np.exp(-1j * lambda_ref * np.asarray(times))
    return np.abs(np.stack([r + amps, r - amps, r - 1j * amps, r + 1j * amps],
                           axis=-1)) ** 2 / 4


def reconstruct_amplitudes(w: np.ndarray, lambda_ref: float,
                           times: np.ndarray) -> np.ndarray:
    """Recombine overlap probabilities (last axis in OVERLAP_NAMES order)
    into Tr[e^{-iHt}ρ] = [w_+ - w_- + i(w_{+i} - w_{-i})]·e^{-i λ_ref t}."""
    r = np.exp(-1j * lambda_ref * np.asarray(times))
    re, im = w[..., 0] - w[..., 1], w[..., 2] - w[..., 3]
    # real arithmetic rounds like a plain complex product; numpy's complex
    # array multiply can differ from it in the last bit
    out = np.empty(re.shape, dtype=complex)
    out.real = re * r.real - im * r.imag
    out.imag = re * r.imag + im * r.real
    return out


def overlap_frequencies(w: np.ndarray, n_shot: int, seed: int,
                        sample_index: int) -> np.ndarray:
    """Empirical frequencies of N_shot shots per circuit: entry (l, circuit)
    draws from the substream (seed, ROLE_SHOTS, sample_index, l, circuit);
    each entry is an unbiased estimate of the exact probability."""
    if n_shot < 1:
        raise ValueError(f"n_shot must be >= 1, got {n_shot}")
    # clip float dust so the exact w = 1 or 0 cases stay degenerate
    p = np.clip(w, 0.0, 1.0)
    counts = [[substream(seed, ROLE_SHOTS, sample_index, l, circuit)
               .binomial(n_shot, p[l, circuit]) for circuit in range(p.shape[1])]
              for l in range(p.shape[0])]
    return np.array(counts, dtype=float) / n_shot


def hadamard_estimate(a: complex, part: str, n_shot: int,
                      rng: np.random.Generator) -> float:
    """Mean of N_shot ±1 outcomes with P(+1) = (1 + v)/2, where v is the
    requested quadrature (Re A or Im A); unbiased for v."""
    if part not in ("real", "imag"):
        raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
    if n_shot < 1:
        raise ValueError(f"n_shot must be >= 1, got {n_shot}")
    if abs(a) > 1.0 + 1e-9:
        raise ValueError(f"|A| = {abs(a)} exceeds 1")
    v = a.real if part == "real" else a.imag
    successes = rng.binomial(n_shot, min(max((1.0 + v) / 2.0, 0.0), 1.0))
    return (2.0 * successes - n_shot) / n_shot
