"""Host-speed calibration for the stage timings.

On a shared virtual machine the speed of a vCPU drifts by tens of percent
within seconds and within minutes, as other tenants load the host.
Identical work then reads differently from run to run, and no median over
one run removes a drift that outlasts the run.  So the benchmark times a
fixed kernel of its own next to the program, right before and after every
stage and, from a timer signal, every PERIOD_S seconds while a stage runs,
and reports each stage as the time it would have taken at the reference
speed:

    reported = (wall - kernel time spent inside the stage)
               * REFERENCE_S / (mean kernel time around and during it)

The kernel is a dense `eigh`, the operation that dominates two of the three
workloads; measured on this kind of host it tracks their speed better than
interpreter-bound or FFT kernels.  It uses no code of the program, so a
change to the program cannot move it, with one exception: it runs in the
program's process with the BLAS thread count run.py pins, so a change that
re-pins BLAS threads must be judged on the raw wall times, which every run
report keeps next to the kernel times.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

#: kernel time at the reference speed, seconds: the fast plateau measured
#: on a 2-vCPU Xeon (Sapphire Rapids class) KVM guest with one BLAS thread
REFERENCE_S = 0.0095
#: kernel repetitions per calibration point between stages
REPS = 3
#: seconds between kernel samples taken while a stage runs
PERIOD_S = 0.3

_M = np.random.default_rng(20250423).standard_normal((300, 300))
_M = _M + _M.T


def kernel() -> None:
    np.linalg.eigh(_M)


def measure(reps: int = REPS) -> list[float]:
    """Kernel times in seconds, one per repetition."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times


class Sampler:
    """Times the kernel from a SIGALRM handler every PERIOD_S seconds.

    The handler runs in the main thread between bytecodes, so a sample
    waits for a running native call (one `eigh`) to return.  `spent` is
    the time the handler took, to be subtracted from the stage's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
