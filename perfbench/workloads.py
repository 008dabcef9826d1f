"""Workload definitions: the `hamfourier` stage flags each workload runs.

Every workload is a generate -> features -> train chain driven through
`hamfourier.cli.main`, exactly as a user would type it.  The seed is the
only input that varies between runs; it is passed as `--seed` to every
stage, so the couplings, the shot noise and the train/test split all follow
from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Trotter step counts of the paper's 12-qubit rows, one per l = 0..11.
SCHEDULE_12Q = "1,1,1,1,1,2,2,2,2,3,3,3"

#: Step target threshold of many8.  The benchmark checks on every run that
#: no eigenvalue of any sample lies within STEP_MARGIN of it, so the label
#: does not hinge on rounding.
STEP_THRESHOLD = 0.1
STEP_MARGIN = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    num: int
    f_flags: tuple[str, ...]
    feature_flags: tuple[str, ...]
    train_flags: tuple[str, ...]
    k: int = 11
    c: float = 3.0
    #: circuits estimated per time t_l (0: no sampling)
    circuits: int = 0
    shots: int = 0
    #: indices of the samples checked against the full-space oracle
    #: (None: every sample)
    oracle_samples: tuple[int, ...] | None = None

    def stage_argv(self, seed: int, out: Path, n: int | None = None,
                   num: int | None = None) -> dict[str, list[str]]:
        """argv of each stage, writing its artifacts under `out`."""
        n = self.n if n is None else n
        num = self.num if num is None else num
        common = ["--seed", str(seed)]
        ds, feats = str(out / "dataset.jsonl"), str(out / "features.csv")
        return {
            "generate": ["generate", "--n", str(n), "--num", str(num),
                         *common, *self.f_flags, "--out", ds],
            "features": ["features", "--in", ds, "--k", str(self.k),
                         "--c", str(self.c), *common, *self.feature_flags,
                         "--out", feats],
            "train": ["train", "--in", ds, "--features", feats, *common,
                      *self.train_flags, "--out", str(out / "run")],
        }

    def shots_per_vector(self) -> int:
        return (self.k + 1) * self.circuits * self.shots


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's exact 12-qubit row: dense sector eigh (d = 924) twice
        # per sample dominates, so it shows oracle changes.
        Workload(
            name="exact12", n=12, num=55,
            f_flags=("--f", "exp", "--beta", "1"),
            feature_flags=("--backend", "exact"),
            train_flags=("--method", "ols"),
            oracle_samples=(0, 13, 27, 41, 54),
        ),
        # The paper's Trotter + 10,000-shot overlap row: its features stage
        # is Strang sweeps and shot sampling with no eigh.
        Workload(
            name="shots12", n=12, num=55,
            f_flags=("--f", "exp", "--beta", "1"),
            feature_flags=("--backend", "overlap-shots", "--shots", "10000",
                           "--nstep-schedule", SCHEDULE_12Q),
            train_flags=("--method", "ols"),
            circuits=4, shots=10_000,
            oracle_samples=(0, 13, 27, 41, 54),
        ),
        # Thousands of tiny samples (d = 70): per-sample overhead, a
        # non-smooth target, the Hadamard route and a ridge grid fit.
        Workload(
            name="many8", n=8, num=2000,
            f_flags=("--f", "step", "--beta", repr(STEP_THRESHOLD)),
            feature_flags=("--backend", "hadamard-shots", "--shots", "1000"),
            train_flags=("--method", "ridge"),
            circuits=2, shots=1000,
        ),
    )
}

#: qubit count and sample count of the warm-up chain run during set-up
WARMUP_N, WARMUP_NUM = 4, 5
