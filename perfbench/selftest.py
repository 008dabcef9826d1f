"""Show that every check of the benchmark fails on a corrupted output.

    python3 perfbench/selftest.py [--workload NAME] [--seed 7]

For each workload it runs the real generate -> features -> train chain
once, requires every check to pass on its outputs, then for each check
applies one corruption to a copy of the outputs and requires that check
to fail.  Corruptions that concern the fit (shuffled feature rows) re-run
the program's own train stage on the corrupted features.  Exits 0 when
every corruption is caught.  Pin the BLAS threads as run.py does, e.g.
OPENBLAS_NUM_THREADS=1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import oracle
from worker import hamfourier_main, run_chain
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _features(out, edit):
    path = out / "features.csv"
    lines = path.read_text().splitlines()
    x = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    edit(x)
    path.write_text("\n".join([lines[0]] + [",".join(repr(float(v)) for v in row)
                                            for row in x]) + "\n")


def _records(out, edit):
    path = out / "dataset.jsonl"
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    edit(recs)
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))


def _json(path, edit):
    d = json.loads(path.read_text())
    edit(d)
    path.write_text(json.dumps(d))


def flip_column(out, wl, seed):
    _features(out, lambda x: x.__setitem__((slice(None), 1), -x[:, 1]))


def bump_x0(out, wl, seed):
    _features(out, lambda x: x.__setitem__((5, 0), 0.999))


def bump_label(out, wl, seed):
    i = oracle.oracle_rows(wl)[0]
    _records(out, lambda r: r[i].__setitem__("y", r[i]["y"] + 1e-6))


def denormalize(out, wl, seed):
    _records(out, lambda r: r[3].__setitem__(
        "couplings", [1.01 * j for j in r[3]["couplings"]]))


def bump_weight(out, wl, seed):
    _json(out / "run" / "model.json",
          lambda d: d["weights"].__setitem__(1, d["weights"][1] + 1e-3))


def shuffle_and_retrain(out, wl, seed):
    """Detach features from labels, then let the program fit them."""
    perm = np.random.default_rng(12345).permutation(wl.num)
    _features(out, lambda x: x.__setitem__(slice(None), x[perm]))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = hamfourier_main(wl.stage_argv(seed, out)["train"])
    if rc != 0:
        raise RuntimeError("train stage failed on shuffled features")


def threshold_on_eigenvalue(out, wl, seed):
    o = oracle.read_outputs(out)
    lam, _ = oracle.sector_spectra(wl.n, o["J"][:1])
    _json(out / "dataset.jsonl.config.json",
          lambda d: d.__setitem__("beta", float(lam[0, 10])))


CORRUPTIONS = {
    "dataset_well_formed": denormalize,
    "labels_match_oracle": bump_label,
    "features_match_oracle": flip_column,
    "shots_within_hoeffding_of_trotter": flip_column,
    "hadamard_within_hoeffding": flip_column,
    "step_threshold_clear_of_spectrum": threshold_on_eigenvalue,
    "x0_is_one": bump_x0,
    "mse_threshold": shuffle_and_retrain,
    "r2_threshold": shuffle_and_retrain,
    "r2_beats_mean": shuffle_and_retrain,
    "metrics_match_model": bump_weight,
}


def selftest(name: str, seed: int) -> bool:
    wl = WORKLOADS[name]
    base = HERE / "out" / "selftest" / name
    *_, failed = run_chain(wl, seed, base / "clean")
    clean = oracle.run_checks(wl, base / "clean", seed)
    ok = failed == 0 and all(c[1] for c in clean)
    print(f"{name}: clean outputs pass every check: {ok}")
    for check, _, _ in clean:
        work = base / check
        if work.exists():
            shutil.rmtree(work)
        shutil.copytree(base / "clean", work)
        corrupt = CORRUPTIONS[check]
        corrupt(work, wl, seed)
        result = dict((c[0], c) for c in oracle.run_checks(wl, work, seed))[check]
        caught = not result[1]
        ok &= caught
        print(f"  {check:36s} {corrupt.__name__:24s} caught={caught}  {result[2]}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [selftest(name, args.seed) for name in names]
    print("selftest", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
