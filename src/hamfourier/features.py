"""Fourier features of a Hamiltonian against a fixed state.

The feature vector has 2K+1 entries built from A(t_l) = Tr[e^{-iHt_l}ρ] at
the times t_l = lπ/C:

    x[0]      = Re A(t_0) = 1
    x[2l-1]   = Im A(t_l)        (l = 1..K)
    x[2l]     = Re A(t_l)        (l = 1..K)

Three backends produce it:

  exact          A(t_l) from one spectral measure of ψ per sample
                 (hamiltonians.spectral_measure: Lanczos, certified on
                 every A(t_l), or dense eigh for sectors below 100 states).
  hadamard-shots each quadrature estimated as the mean of N_shot ±1
                 outcomes with P(+1) = (1 + value)/2.
  overlap-shots  the four probabilities w_± = |<ψ_±|U(t)|ψ_+>|²,
                 w_±i = |<ψ_±i|U(t)|ψ_+>|² estimated as empirical
                 frequencies and recombined as
                 A = [w_+ - w_- + i(w_{+i} - w_{-i})]·e^{-i λ_ref t}.

When a Trotter schedule is present, U(t_l) is the Strang circuit with
schedule[l] steps instead of e^{-iHt_l}.  |0...0> is an exact eigenstate of
every Strang step with the same accumulated phase e^{-i λ_ref t}, so the
overlap recombination above stays exact for Trotterized evolution too.

Shot estimates are unbiased and deliberately NOT clipped to [-1, 1]; for
the overlap backend the recombined entries can overshoot up to |x| <= sqrt(2)
(each difference of frequencies lies in [-1, 1]), for the Hadamard backend
|x| <= 1 always.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import TrotterSchedule, amplitude, amplitudes, trotter_evolve
from .hamiltonians import CouplingSpec, spectral_bound
from .rng import ROLE_SHOTS, substream
from .states import ReferenceEigenstate, StateVector, inner

BACKENDS = ("exact", "hadamard-shots", "overlap-shots")

#: circuit ids for substream derivation (overlap ids in as_dict order)
OVERLAP_CIRCUITS = (CIRCUIT_W_PLUS, CIRCUIT_W_MINUS, CIRCUIT_W_PLUS_I,
                    CIRCUIT_W_MINUS_I) = (0, 1, 2, 3)
CIRCUIT_COS, CIRCUIT_SIN = 0, 1


class ConfigError(ValueError):
    """Feature-map configuration is inconsistent with its inputs."""


@dataclass(frozen=True)
class FeatureMapConfig:
    """Hyperparameters of the feature map.

    n_shot = 0 selects the infinite-shot limit (exact expectation values,
    no sampling); any sampling path requires n_shot >= 1.  A schedule, when
    present, must provide one step count per time t_0..t_K.
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
        if self.schedule is not None and len(self.schedule) != self.K + 1:
            raise ConfigError(
                f"schedule has {len(self.schedule)} entries, need K+1 = {self.K + 1}"
            )

    def times(self) -> np.ndarray:
        """Feature times t_l = lπ/C for l = 0..K."""
        return np.arange(self.K + 1) * np.pi / self.C


@dataclass(frozen=True)
class OverlapProbabilities:
    """The four overlap probabilities at one evolution time, plus the data
    needed to recombine them into A(t)."""

    w_plus: float
    w_minus: float
    w_plus_i: float
    w_minus_i: float
    t: float
    lambda_ref: float

    def as_dict(self) -> dict[str, float]:
        return {"w_plus": self.w_plus, "w_minus": self.w_minus,
                "w_plus_i": self.w_plus_i, "w_minus_i": self.w_minus_i}


def _check_spectral_fit(spec: CouplingSpec, cfg: FeatureMapConfig) -> None:
    bound = spectral_bound(spec)
    if cfg.C < bound * (1.0 - 1e-9):
        raise ConfigError(
            f"C = {cfg.C} is below the spectral bound {bound}; eigenvalues "
            "would wrap around the Fourier period"
        )


def interleave(cos_vals: np.ndarray, sin_vals: np.ndarray) -> np.ndarray:
    """Assemble (cos_0, sin_1, cos_1, ..., sin_K, cos_K) from quadratures
    indexed l = 0..K (sin_vals[0] is unused: the l=0 sine vanishes)."""
    x = np.empty(2 * len(cos_vals) - 1)
    x[0::2] = cos_vals
    x[1::2] = sin_vals[1:]
    return x


def _amplitudes(spec: CouplingSpec, psi: StateVector,
                cfg: FeatureMapConfig) -> np.ndarray:
    """A(t_l) for l = 0..K: Trotterized when a schedule is present, exact
    (spectral) otherwise."""
    times = cfg.times()
    if cfg.schedule is None:
        return amplitudes(spec, psi, times)
    return np.array([
        inner(psi, trotter_evolve(spec, psi, t, cfg.schedule[l]))
        for l, t in enumerate(times)
    ])


def exact_features(spec: CouplingSpec, psi: StateVector,
                   cfg: FeatureMapConfig) -> np.ndarray:
    """Noise-free feature vector from the spectral oracle; x[0] = 1 and
    every |x_k| <= 1."""
    if cfg.backend != "exact":
        raise ConfigError(f"exact_features needs backend 'exact', got {cfg.backend!r}")
    _check_spectral_fit(spec, cfg)
    amps = amplitudes(spec, psi, cfg.times())
    return interleave(amps.real, amps.imag)


def overlaps_from_amplitude(a: complex, lambda_ref: float,
                            t: float) -> OverlapProbabilities:
    """Closed-form overlap probabilities given A(t) and the reference phase:
    w_± = |r ± A|²/4, w_{+i} = |r - iA|²/4, w_{-i} = |r + iA|²/4 with
    r = e^{-i λ_ref t}."""
    r = np.exp(-1j * lambda_ref * t)
    return OverlapProbabilities(
        w_plus=float(abs(r + a) ** 2 / 4),
        w_minus=float(abs(r - a) ** 2 / 4),
        w_plus_i=float(abs(r - 1j * a) ** 2 / 4),
        w_minus_i=float(abs(r + 1j * a) ** 2 / 4),
        t=t,
        lambda_ref=lambda_ref,
    )


def check_orthogonal(psi: StateVector, ref: ReferenceEigenstate) -> None:
    overlap = psi.amplitudes[int(ref.bitstring, 2)]
    if abs(overlap) > 1e-10:
        raise ValueError(
            f"state is not orthogonal to the reference eigenstate "
            f"(overlap {abs(overlap):.3e})"
        )


def exact_overlaps(spec: CouplingSpec, psi: StateVector,
                   ref: ReferenceEigenstate, t: float) -> OverlapProbabilities:
    """Exact w's for the reference-superposition measurement at time t."""
    check_orthogonal(psi, ref)
    return overlaps_from_amplitude(amplitude(spec, psi, t),
                                   ref.eigenvalue, t)


def reconstruct_amplitude(w: OverlapProbabilities) -> complex:
    """Recombine the four overlap probabilities into Tr[e^{-iHt}ρ]."""
    combo = (w.w_plus - w.w_minus) + 1j * (w.w_plus_i - w.w_minus_i)
    return complex(combo * np.exp(-1j * w.lambda_ref * w.t))


def _binomial_frequency(p: float, n_shot: int, rng: np.random.Generator) -> float:
    # clip float dust so the exact w = 1 or 0 cases stay degenerate
    p = min(max(p, 0.0), 1.0)
    return float(rng.binomial(n_shot, p)) / n_shot


def sample_overlaps(w: OverlapProbabilities, n_shot: int,
                    rng: np.random.Generator) -> OverlapProbabilities:
    """Empirical frequencies from four independent N_shot-shot experiments;
    each coordinate is an unbiased estimate of the exact probability."""
    if n_shot < 1:
        raise ValueError(f"n_shot must be >= 1, got {n_shot}")
    return OverlapProbabilities(**{
        name: _binomial_frequency(p, n_shot, rng) for name, p in w.as_dict().items()
    }, t=w.t, lambda_ref=w.lambda_ref)


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


def reconstructed_features(spec: CouplingSpec, psi: StateVector,
                           ref: ReferenceEigenstate,
                           cfg: FeatureMapConfig) -> np.ndarray:
    """Infinite-shot feature vector (Trotterized when a schedule is present):
    A(t_l) as the Hadamard test reads it, or else exact overlap w's
    recombined, which needs psi orthogonal to the reference.  With no
    schedule this equals exact_features to rounding."""
    _check_spectral_fit(spec, cfg)
    amps = _amplitudes(spec, psi, cfg)
    if cfg.backend != "hadamard-shots":
        check_orthogonal(psi, ref)
        amps = np.array([
            reconstruct_amplitude(overlaps_from_amplitude(a, ref.eigenvalue, t))
            for a, t in zip(amps, cfg.times())
        ])
    return interleave(amps.real, amps.imag)


def noisy_features(spec: CouplingSpec, psi: StateVector,
                   ref: ReferenceEigenstate, cfg: FeatureMapConfig,
                   sample_index: int = 0) -> np.ndarray:
    """Shot-noise-simulated feature vector.

    Sampling draws from the exactly computed outcome probabilities instead
    of simulating measurement circuits — statistically identical and far
    cheaper.  Every estimated circuit gets its own substream keyed by
    (seed, sample_index, l, circuit id), so results are reproducible
    independent of evaluation order.
    """
    if cfg.backend not in ("hadamard-shots", "overlap-shots"):
        raise ConfigError(
            f"noisy_features needs a shot backend, got {cfg.backend!r}"
        )
    if cfg.n_shot < 1:
        raise ConfigError("sampling requires n_shot >= 1")
    _check_spectral_fit(spec, cfg)
    times = cfg.times()
    amps = _amplitudes(spec, psi, cfg)

    def stream(l: int, circuit: int) -> np.random.Generator:
        return substream(cfg.seed, ROLE_SHOTS, sample_index, l, circuit)

    cos_vals = np.empty(cfg.K + 1)
    sin_vals = np.empty(cfg.K + 1)
    if cfg.backend == "hadamard-shots":
        for l, a in enumerate(amps):
            cos_vals[l] = hadamard_estimate(a, "real", cfg.n_shot,
                                            stream(l, CIRCUIT_COS))
            sin_vals[l] = hadamard_estimate(a, "imag", cfg.n_shot,
                                            stream(l, CIRCUIT_SIN))
    else:
        check_orthogonal(psi, ref)
        for l, (a, t) in enumerate(zip(amps, times)):
            w = overlaps_from_amplitude(a, ref.eigenvalue, t).as_dict()
            est = OverlapProbabilities(**{
                name: _binomial_frequency(p, cfg.n_shot, stream(l, circuit))
                for circuit, (name, p) in zip(OVERLAP_CIRCUITS, w.items())
            }, t=t, lambda_ref=ref.eigenvalue)
            rec = reconstruct_amplitude(est)
            cos_vals[l] = rec.real
            sin_vals[l] = rec.imag
    return interleave(cos_vals, sin_vals)
