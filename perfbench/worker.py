"""One benchmark process: set-up, timed rounds, then the checks.

Run by run.py with the BLAS thread count pinned in its environment.  The
last line of its standard output is one JSON object.

Set-up is the import of numpy and hamfourier plus a warm-up chain of the
workload's own stages on a tiny input; it ends before the first timed
stage.  A round is the workload's generate -> features -> train chain,
called in-process through `hamfourier.cli.main`.  Rounds start while less
than --seconds have passed.  With --trace 1 each round is a pair: one
untraced chain and one traced chain; a run with one round adds a second
traced chain, so every traced run compares the counts of two.  Peak RSS
is read after the last round and before the checks, which import scipy.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from hamfourier.cli import main as hamfourier_main  # noqa: E402

import calibrate  # noqa: E402
from workloads import WARMUP_N, WARMUP_NUM, WORKLOADS  # noqa: E402


def run_chain(wl, seed, out, tracer=None):
    """Run the three stages, sampled by the calibration kernel.

    Returns ({stage_s: seconds at the reference speed}, {stage_s: raw wall
    seconds}, kernel times, ops failed).  Kernel time is excluded from the
    stage times and, through the tracer's clock, from every span.  The raw
    record also keeps each stage scaled by the kernel runs around it alone
    ("bracketed"), which shows what the samples taken during it add.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    scaled, raw, bracketed, kernels, failed = {}, {}, {}, [], 0
    sampler = calibrate.Sampler()
    if tracer is not None:
        tracer.clock = lambda: perf_counter() - sampler.spent
    before = calibrate.measure()
    for stage, argv in wl.stage_argv(seed, out).items():
        span = (tracer.span(f"pipeline.stage_{stage}", "pipeline") if tracer
                else contextlib.nullcontext())
        first, spent0 = len(sampler.samples), sampler.spent
        s = perf_counter()
        try:
            with sampler, span, contextlib.redirect_stdout(io.StringIO()):
                rc = hamfourier_main(argv)
        except Exception:  # a stage that raises is a failed operation
            traceback.print_exc()
            rc = -1
        wall = perf_counter() - s - (sampler.spent - spent0)
        after = calibrate.measure()
        during = sampler.samples[first:]
        raw[f"{stage}_s"] = wall
        bracketed[f"{stage}_s"] = (wall * calibrate.REFERENCE_S
                                   / statistics.fmean(before + after))
        scaled[f"{stage}_s"] = (wall * calibrate.REFERENCE_S
                                / statistics.fmean(before + during + after))
        kernels += before + during
        before = after
        failed += rc != 0
    kernels += before
    raw["total_s"] = sum(raw.values())
    scaled["total_s"] = sum(scaled.values())
    bracketed["total_s"] = sum(bracketed.values())
    raw["bracketed"] = bracketed
    return scaled, raw, kernels, failed


def traced_chain(wl, seed, out):
    """One chain with every traced function wrapped; (trace, ops failed)."""
    from tracer import Tracer
    tracer = Tracer(vector_len=2 * wl.k + 1)
    tracer.install()
    try:
        times, _, _, failed = run_chain(wl, seed, out, tracer=tracer)
    finally:
        tracer.uninstall()
    return {"dir": str(out), "total_s": times["total_s"],
            "metrics": tracer.metrics(wl.shots_per_vector()),
            "absent": tracer.absent, "spans": tracer.table()}, failed


def warm_up(wl, seed, out):
    """The workload's own chain on a tiny input, untimed and unsampled."""
    with contextlib.redirect_stdout(io.StringIO()):
        out.mkdir(parents=True, exist_ok=True)
        return sum(hamfourier_main(argv) != 0 for argv in
                   wl.stage_argv(seed, out, n=WARMUP_N, num=WARMUP_NUM).values())


def blas_threads():
    """Thread count OpenBLAS reports, read from numpy's bundled library."""
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, AttributeError):  # layout varies by version
        return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    failed = warm_up(wl, args.seed, args.out / "warmup")
    setup_raw = perf_counter() - T_START
    if failed:
        print("warm-up chain failed", file=sys.stderr)
        return 1
    calibrate.measure()  # the kernel's own first call is not a sample
    setup_kernel = calibrate.measure(5)
    setup_s = setup_raw * calibrate.REFERENCE_S / statistics.fmean(setup_kernel)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    rounds, traces, attempted, failed = [], [], 0, 0
    t_run = perf_counter()
    while not rounds or perf_counter() - t_run < args.seconds:
        out = args.out / f"round{len(rounds)}"
        times, raw, kernels, bad = run_chain(wl, args.seed, out)
        rounds.append({"dir": str(out), **times, "raw": raw,
                       "kernel_s": kernels})
        attempted, failed = attempted + 3, failed + bad
        if args.trace:
            trace, bad = traced_chain(wl, args.seed, out / "traced")
            traces.append(trace)
            attempted, failed = attempted + 3, failed + bad
    if args.trace and len(traces) < 2:
        trace, bad = traced_chain(wl, args.seed, out / "traced2")
        traces.append(trace)
        attempted, failed = attempted + 3, failed + bad
    # every traced chain after the first is one operation: its counts
    # must equal the first chain's exactly
    counts = [{k: v for k, v in t["metrics"].items() if not k.endswith("_s")}
              for t in traces]
    counts_repeat = [c == counts[0] for c in counts[1:]]
    attempted += len(counts_repeat)
    failed += counts_repeat.count(False)
    run_s = perf_counter() - t_run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracle
    checks = []
    for d in [Path(r["dir"]) for r in rounds + traces]:
        try:
            result = oracle.run_checks(wl, d, args.seed)
        except Exception:  # unreadable output: every check of it fails
            traceback.print_exc()
            result = [(name, False, "output unreadable")
                      for name in oracle.CHECK_NAMES[wl.name]]
        checks.append(result)
    attempted += sum(len(c) for c in checks)
    failed += sum(not ok for c in checks for _, ok, _ in c)

    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "run_s": run_s,
        "rounds": rounds,
        "traces": traces,
        "counts_repeat": all(counts_repeat),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "checks": checks[-1],
        "checks_failed": [c for rc in checks for c in rc if not c[1]],
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "openblas": blas_version(), "blas_threads": blas_threads()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
