"""tools/compare_artifacts.py: every benchmark chain of a checkout against
itself is byte-identical, and a changed number is reported by its size."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_artifacts.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_against_itself_is_identical():
    # the benchmark's warm-up size, every chain of perfbench/workloads.py,
    # no reproduce rows: 3 chains x 6 artifacts
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(ROOT), "--change",
         str(ROOT), "--n", "4", "--num", "5", "--seeds", "7", "--rows"],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 18
    assert all(line.endswith(": identical") for line in lines), lines


def test_difference_is_the_largest_number_moved():
    diff = load_tool().difference
    old = b'{"y": 0.5, "x": [1e-3, null]}\nx0,x1\n1,2\n'
    assert diff(old, old) == "identical"
    moved = old.replace(b"0.5", b"0.5000001").replace(b"2\n", b"2.25\n")
    assert diff(old, moved) == "max |difference| 0.25"
    assert diff(old, old.replace(b"null", b"0")) == (
        "differs in which numbers are missing")
    assert diff(old, old.replace(b'"x"', b'"z"')) == (
        "differs beyond its numbers")
