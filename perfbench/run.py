"""Benchmark of the hamfourier pipeline: generate -> features -> train.

    python3 perfbench/run.py --workload exact12 --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from `src/`;
nothing is installed.  Each run starts fresh worker processes with the
OpenBLAS/OpenMP thread count pinned to one, the single-threaded baseline
that the calibration reference was measured with: a few that only set up,
so `setup_s` is a median, then one that sets up, runs the timed rounds and
checks every round's outputs against an oracle of the benchmark's own.
Stage times are medians over the rounds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The line
before it records the environment: versions, thread count, CPU count and
the CPU steal ticks read from /proc/stat over the run.  The full record is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: worker processes per run that only set up; the timed worker adds one
SETUP_PROBES = 14
#: a worker that has not finished by then is killed and the run fails
WORKER_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "generate_s": "s", "features_s": "s",
             "total_s": "s", "peak_rss_mb": "MB"}


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])  # cpu user nice system idle iowait irq softirq steal
    except (OSError, IndexError, ValueError):
        return None


def run_worker(argv: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          cwd=HERE, env=env, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def median(values) -> float:
    return float(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = HERE / "out" / args.workload
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    steal0 = steal_ticks()
    try:
        probes = [run_worker(common + ["--out", str(out / f"probe{i}"),
                                       "--setup-only"], env, 60)
                  for i in range(SETUP_PROBES)]
        rec = run_worker(common + ["--out", str(out / "timed")], env,
                         WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    steal1 = steal_ticks()

    if args.trace:
        traces = rec["traces"]
        first = traces[0]["metrics"]
        metrics = {}
        for name, value in first.items():
            if name.endswith("_s"):
                value = median(t["metrics"][name] for t in traces)
            metrics[name] = value
        metrics["trace.overhead_s"] = (
            median(t["total_s"] for t in traces)
            - median(r["total_s"] for r in rec["rounds"]))
        from tracer import UNITS
    else:
        metrics = {"setup_s": median([p["setup_s"] for p in probes]
                                     + [rec["setup_s"]])}
        for name in ("generate_s", "features_s", "total_s"):
            metrics[name] = median(r[name] for r in rec["rounds"])
        metrics["peak_rss_mb"] = rec["peak_rss_mb"]
        UNITS = E2E_UNITS

    env_record = dict(
        rec["env"], nproc=os.cpu_count(),
        steal_ticks=None if None in (steal0, steal1) else steal1 - steal0,
        rounds=len(rec["rounds"]), run_s=rec["run_s"],
        raw_total_s=median(r["raw"]["total_s"] for r in rec["rounds"]),
        bracketed_s={name: median(r["raw"]["bracketed"][name]
                                  for r in rec["rounds"])
                     for name in ("generate_s", "features_s", "total_s")},
        raw_setup_s=median([p["setup_raw_s"] for p in probes]
                           + [rec["setup_raw_s"]]),
        kernel_s=median(k for r in rec["rounds"] for k in r["kernel_s"]))
    result = {
        "correct": not rec["checks_failed"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in UNITS.items()},
    }
    report = {"args": vars(args), "env": env_record, "result": result,
              "checks": rec["checks"], "checks_failed": rec["checks_failed"],
              "rounds": rec["rounds"], "setup_s": [p["setup_s"] for p in probes]
              + [rec["setup_s"]]}
    if args.trace:
        report["absent"] = traces[0]["absent"]
        report["spans"] = traces[0]["spans"]
        report["counts_repeat"] = rec["counts_repeat"]
    (out / f"report-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print("env: " + json.dumps(env_record))
    if args.trace:
        print(f"traced chains: {len(traces)}, counts repeat: "
              f"{rec['counts_repeat']}, absent spans: "
              + (", ".join(report["absent"]) or "none"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
