"""Compare the artifacts two checkouts of hamfourier write from equal seeds.

    python3 tools/compare_artifacts.py --parent ../old --change . --seeds 7 1009

For each checkout, the program is imported from its `src/`.  Every chain
of `perfbench/workloads.py` (generate -> features -> train, with the
workload's own flags) and every `reproduce` row runs once per seed, each
in a fresh process with one BLAS thread and no HAMFOURIER_SEED, into a
temporary directory.  Then each artifact of the parent is compared with
the change's: one line per artifact, `identical` when the bytes are, else
the largest absolute difference of the numbers in it (or why the files
cannot be compared number by number).  Exits 0 when every artifact is
identical, 1 otherwise.

--n and --num run the chains at another size (the benchmark's warm-up is
--n 4 --num 5); --rows with no names skips `reproduce`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

ROWS = ("exact12", "trotter12", "shots12")

#: runs `hamfourier.cli.main` on each argv of a JSON list, printing the codes
_RUNNER = ("import json, sys\n"
           "from hamfourier.cli import main\n"
           "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|null")


def run(checkout: Path, argvs: list[list[str]]) -> list[int]:
    """The exit codes of the CLI calls argvs, made in one fresh process
    that imports hamfourier from checkout/src with one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k != "HAMFOURIER_SEED"}
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argvs)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {argvs[0][:1]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def produce(checkout: Path, out: Path, seeds, n, num, rows) -> None:
    """Every chain and reproduce row of checkout, per seed, under out."""
    for seed in seeds:
        for name, workload in WORKLOADS.items():
            where = out / str(seed) / name
            where.mkdir(parents=True)
            stages = workload.stage_argv(seed, where, n, num)
            codes = run(checkout, list(stages.values()))
            if any(codes):
                raise RuntimeError(f"{checkout}: {name} seed {seed} stage "
                                   f"exit codes {codes}")
        for row in rows:  # exit code 1: a threshold failed, artifacts stand
            run(checkout, [["reproduce", "--row", row, "--seed", str(seed),
                            "--out", str(out / str(seed) / "reproduce")]])


def numbers(text: str) -> list[float]:
    """The numbers of an artifact in order, null (a non-finite float) as NaN."""
    return [math.nan if x == "null" else float(x) for x in _NUMBER.findall(text)]


def difference(old: bytes, new: bytes) -> str:
    """`identical`, or the largest absolute difference of the numbers."""
    if old == new:
        return "identical"
    a, b = old.decode(), new.decode()
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return "differs beyond its numbers"
    pairs = list(zip(numbers(a), numbers(b)))
    if any(math.isnan(x) != math.isnan(y) for x, y in pairs):
        return "differs in which numbers are missing"
    gap = max((abs(x - y) for x, y in pairs if not math.isnan(x)), default=0)
    return f"max |difference| {gap:.3g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 1009])
    parser.add_argument("--n", type=int, help="chain qubit count")
    parser.add_argument("--num", type=int, help="chain sample count")
    parser.add_argument("--rows", nargs="*", default=ROWS, choices=ROWS)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side in ("parent", "change"):
            trees[side] = Path(tmp) / side
            produce(getattr(args, side).resolve(), trees[side], args.seeds,
                    args.n, args.num, args.rows)
        names = sorted({p.relative_to(tree).as_posix()
                        for tree in trees.values()
                        for p in tree.rglob("*") if p.is_file()})
        same = True
        for name in names:
            old, new = (trees[side] / name for side in ("parent", "change"))
            if not (old.is_file() and new.is_file()):
                line = f"only in {'change' if new.is_file() else 'parent'}"
            else:
                line = difference(old.read_bytes(), new.read_bytes())
            same &= line == "identical"
            print(f"{name}: {line}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
