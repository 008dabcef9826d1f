"""Fourier features of a Hamiltonian against a fixed state: one amplitude
layer followed by one noise layer.

The feature vector has 2K+1 entries built from A(t_l) = Tr[e^{-iHt_l}ρ] at
the times t_l = lπ/C:

    x[0]      = Re A(t_0) = 1
    x[2l-1]   = Im A(t_l)        (l = 1..K)
    x[2l]     = Re A(t_l)        (l = 1..K)

feature_rows composes the two layers for a batch of samples sharing ψ
(feature_vector is the batch of one):

  amplitude layer  evolution.amplitude_rows: A(t_l) from one spectral
                   measure of ψ per sample, or from the Strang circuit with
                   schedule[l] steps when a schedule is present, after the
                   feature map's checks (checked_amplitudes).
  noise layer      estimate: what the backend's readout measures of A.
                   With n_shot = 0 it returns A unchanged, since both
                   readouts are unbiased and their infinite-shot limit is
                   A itself (for the overlap readout
                   reconstruct(overlaps(A)) = A exactly).  With n_shot >= 1:
    hadamard-shots   each quadrature is the mean of N_shot ±1 outcomes
                     with P(+1) = (1 + value)/2 (Re A on circuit 0,
                     Im A on circuit 1).
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

from .evolution import amplitude_rows
from .hamiltonians import ConfigError, CouplingSpec, spectral_bound
from .rng import ROLE_SHOTS, substreams
from .states import StateVector

BACKENDS = ("exact", "hadamard-shots", "overlap-shots")

#: the overlap probabilities; a name's position is its circuit id, which
#: keys its shot substream and indexes the last axis of overlap arrays
OVERLAP_NAMES = ("w_plus", "w_minus", "w_plus_i", "w_minus_i")


@dataclass(frozen=True)
class FeatureMapConfig:
    """Hyperparameters of the feature map.

    n_shot = 0 selects the infinite-shot limit (exact expectation values,
    no sampling); the shot backends sample for n_shot >= 1, and the exact
    backend needs n_shot = 0.  A schedule, when present, gives the Trotter
    step count (>= 1) of each time t_0..t_K.
    """

    K: int
    C: float
    backend: str = "exact"
    n_shot: int = 0
    schedule: tuple[int, ...] | None = None
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
        if self.schedule is not None:
            if len(self.schedule) != self.K + 1:
                raise ConfigError(f"schedule has {len(self.schedule)} entries, "
                                  f"need K+1 = {self.K + 1}")
            if min(self.schedule) < 1:
                raise ConfigError("all step counts must be >= 1, got "
                                  f"{self.schedule}")

    def times(self) -> np.ndarray:
        """Feature times t_l = lπ/C for l = 0..K."""
        return np.arange(self.K + 1) * np.pi / self.C


def feature_rows(specs, psi: StateVector, cfg: FeatureMapConfig,
                 samples=None) -> np.ndarray:
    """The 2K+1 features of a batch of samples sharing psi, one row each:
    the amplitude layer, then the noise layer.  Row b is sample samples[b]
    (default 0..B-1), whose index keys its shot substreams.  x[:, 0] = 1
    and |x| <= 1 without shots."""
    samples = np.arange(len(specs)) if samples is None else np.asarray(samples)
    amps, lambda_ref = checked_amplitudes(specs, psi, cfg)
    amps = estimate(amps, cfg, samples, lambda_ref)
    x = np.empty((len(specs), 2 * cfg.K + 1))
    x[:, 0::2] = amps.real
    x[:, 1::2] = amps.imag[:, 1:]  # the l = 0 sine vanishes
    return x


def feature_vector(spec: CouplingSpec, psi: StateVector, cfg: FeatureMapConfig,
                   sample_index: int = 0) -> np.ndarray:
    """The features of one sample: feature_rows' batch of one."""
    return feature_rows([spec], psi, cfg, [sample_index])[0]


def checked_amplitudes(specs, psi: StateVector, cfg: FeatureMapConfig):
    """(A rows, λ_ref or None): C >= each spec's spectral bound, then, on the
    overlap-shots backend, λ_ref (ψ ⊥ |0...0>), then the amplitude layer."""
    bound = max(map(spectral_bound, specs))
    if cfg.C < bound * (1.0 - 1e-9):
        raise ConfigError(
            f"C = {cfg.C} is below the spectral bound {bound}; eigenvalues "
            "would wrap around the Fourier period"
        )
    lambda_ref = None
    if cfg.backend == "overlap-shots":
        lambda_ref = np.array([overlap_reference(s, psi) for s in specs])
    return amplitude_rows(specs, psi, cfg.times(), cfg.schedule), lambda_ref


def estimate(amps: np.ndarray, cfg: FeatureMapConfig, samples,
             lambda_ref=None) -> np.ndarray:
    """Noise layer: the backend's estimate of A(t_l) at cfg.times() for
    every row of amps (shape (B, K+1)); amps itself when n_shot = 0.
    Row b draws from the substreams of sample samples[b]; the overlap
    readout needs the rows' reference eigenvalues lambda_ref.

    Sampling draws from the exactly computed outcome probabilities instead
    of simulating measurement circuits — statistically identical and far
    cheaper.  Every estimated circuit gets its own substream keyed by
    (seed, ROLE_SHOTS, sample, l, circuit id), so results are
    reproducible independent of evaluation order.
    """
    if cfg.n_shot == 0:
        return amps
    if cfg.backend == "hadamard-shots":
        if np.any(np.abs(amps) > 1.0 + 1e-9):
            raise ConfigError(f"|A| = {np.max(np.abs(amps))} exceeds 1")
        p = np.stack([amps.real, amps.imag], axis=-1)  # P(+1), in place:
        p += 1.0  # the batch's temporaries dominate the stage's memory
        p /= 2.0
        counts = _shot_counts(np.clip(p, 0.0, 1.0, out=p), cfg.n_shot,
                              cfg.seed, samples)
        means = 2.0 * counts
        means -= cfg.n_shot
        means /= cfg.n_shot
        est = np.empty(amps.shape, dtype=complex)
        est.real, est.imag = means[..., 0], means[..., 1]
        return est
    if lambda_ref is None:  # overlap-shots: the exact backend takes no shots
        raise ConfigError("the overlap readout needs lambda_ref")
    times, lambda_ref = cfg.times(), np.asarray(lambda_ref)[:, None]
    w = overlap_frequencies(overlaps_from_amplitudes(amps, lambda_ref, times),
                            cfg.n_shot, cfg.seed, samples)
    return reconstruct_amplitudes(w, lambda_ref, times)


def overlap_reference(spec: CouplingSpec, psi: StateVector) -> float:
    """λ_ref = sum_m J_m of the overlap readout's reference |0...0> (each Z Z
    term gives +J_m, the flips annihilate it), after checking that psi is
    orthogonal to it, as the readout needs."""
    overlap = psi.amplitudes[0]
    if abs(overlap) > 1e-10:
        raise ConfigError(
            f"state is not orthogonal to the reference eigenstate "
            f"(overlap {abs(overlap):.3e})"
        )
    return float(np.sum(spec.couplings))


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


def _shot_counts(p: np.ndarray, n_shot: int, seed: int, samples) -> np.ndarray:
    """Successes of N_shot shots per circuit, for outcome probabilities p of
    shape samples.shape + (L, circuits): entry (..., l, circuit) draws from
    the substream (seed, ROLE_SHOTS, sample, l, circuit)."""
    if n_shot < 1:
        raise ConfigError(f"n_shot must be >= 1, got {n_shot}")
    times, circuits = p.shape[-2:]
    keys = ((ROLE_SHOTS, s, l, c)
            for s in np.broadcast_to(samples, p.shape[:-2]).ravel().tolist()
            for l in range(times) for c in range(circuits))
    draws = (gen.binomial(n_shot, q)
             for gen, q in zip(substreams(seed, keys), p.ravel()))
    return np.fromiter(draws, dtype=np.int64, count=p.size).reshape(p.shape)


def overlap_frequencies(w: np.ndarray, n_shot: int, seed: int,
                        samples) -> np.ndarray:
    """Empirical frequencies of N_shot shots per circuit for overlap
    probabilities w of shape samples.shape + (L, 4); each entry is an
    unbiased estimate of the exact probability."""
    # clip float dust so the exact w = 1 or 0 cases stay degenerate
    return _shot_counts(np.clip(w, 0.0, 1.0), n_shot, seed, samples) / n_shot
