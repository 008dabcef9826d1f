"""The package refuses its inputs with one exception type, ConfigError."""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import hamfourier
from hamfourier import (BoundInputs, ConfigError, CouplingSpec,
                        ExperimentConfig, FeatureMapConfig, FunctionSpec,
                        StateVector, amplitude_rows, sample_couplings,
                        trotter_evolve)
from hamfourier.cli import main
from hamfourier.states import domain_wall

SOURCES = sorted(Path(hamfourier.__file__).parent.glob("*.py"))


def _base_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(
        node, "id", "")


def test_config_error_is_the_only_refusal_type():
    # the ridge bisection's RuntimeError and json_17g's TypeError are not
    # input refusals; a bare ValueError or a new error class would be
    defined = []
    for path in SOURCES:
        text = path.read_text()
        assert "raise ValueError(" not in text, path.name
        defined += [(path.name, node.name) for node in ast.walk(ast.parse(text))
                    if isinstance(node, ast.ClassDef) and any(
                        _base_name(b).endswith(("Error", "Exception"))
                        for b in node.bases)]
    assert defined == [("hamiltonians.py", "ConfigError")]


def test_one_memory_budget():
    # every sector path is held to SECTOR_BYTES_CAP, and a state, stored as
    # its support, needs no cap; a second module-level cap would be a
    # second refusal rule
    caps = [(path.name, name.id) for path in SOURCES
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            for name in ast.walk(target)
            if isinstance(name, ast.Name) and name.id.endswith("_CAP")]
    assert caps == [("hamiltonians.py", "SECTOR_BYTES_CAP")]


def test_no_vector_of_2_to_the_n():
    # a state is its support and a kernel reads a sector or a cone of it,
    # so no 2 ** <non-constant> size (a dense 2^n vector) appears in src/
    powers = [(path.name, node.lineno) for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.left, ast.Constant) and node.left.value == 2
              and not isinstance(node.right, ast.Constant)]
    assert powers == []


def test_every_public_function_has_a_caller():
    # a public module-level function is called or named by the package
    # (outside its own def and __init__.py; the CLI is cli.py) or by a demo,
    # not only by tests.  trotter_evolve is the one exception: it stays as
    # the one state-level entry to the Strang circuit, which the Kronecker
    # tests need (ROADMAP item 8)
    demos = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in SOURCES + demos
             if path.name != "__init__.py"}
    names = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    uncalled = []
    for path, tree in trees.items():
        for node in tree.body if path in SOURCES else []:
            if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
                own = set(map(id, ast.walk(node)))
                if not any(_base_name(ref) == node.name and id(ref) not in own
                           for ref in names):
                    uncalled.append(node.name)
    assert uncalled == ["trotter_evolve"]


#: the two helpers' messages, which no other function raises
NUMBER_RULE = ("must be an int, got", "must be a finite number, got",
               "must be >=")


def _raised_messages(node, function=None):
    """(innermost enclosing function, string piece) of every raise."""
    if isinstance(node, ast.FunctionDef):
        function = node.name
    if isinstance(node, ast.Raise):
        yield from ((function, piece.value) for piece in ast.walk(node)
                    if isinstance(piece, ast.Constant)
                    and isinstance(piece.value, str))
    for child in ast.iter_child_nodes(node):
        yield from _raised_messages(child, function)


def _record_field(node) -> bool:
    """A subscript by a string key: a record's field."""
    return isinstance(node, ast.Subscript) and isinstance(
        node.slice, ast.Constant) and isinstance(node.slice.value, str)


def test_one_check_for_a_count_and_one_for_a_real():
    # a count or a real is refused by _count or _real wherever it enters,
    # so their messages are raised nowhere else
    raisers = {(path.name, function) for path in SOURCES
               for function, text in _raised_messages(
                   ast.parse(path.read_text()))
               if any(phrase in text for phrase in NUMBER_RULE)}
    assert raisers == {("hamiltonians.py", "_count"),
                       ("hamiltonians.py", "_real")}


def test_no_record_field_is_cast_before_it_is_checked():
    # int() or float() would read 4.7 as 4 and "123" as digits: a record's
    # values go to the checking constructors as they are
    casts = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            comprehension = isinstance(node, (
                ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ) and any(_record_field(g.iter) for g in node.generators)
            casts += [(path.name, call.lineno) for call in (
                ast.walk(node) if comprehension else [node])
                if isinstance(call, ast.Call)
                and _base_name(call.func) in ("int", "float")
                and (comprehension or any(map(_record_field, call.args)))]
    assert casts == []


SPEC, WALL = CouplingSpec(4, (0.5, -0.25, 0.25)), domain_wall(4)


@pytest.mark.parametrize("call, message", [
    # each of these once ran silently, or ended in a bare TypeError or
    # OverflowError instead of a refusal
    (lambda: FeatureMapConfig(K=1, C=3.0, backend="hadamard-shots",
                              n_shot=2.5), "n_shot must be an int, got 2.5"),
    (lambda: FeatureMapConfig(K=1, C=3.0, schedule=(1, 1.5)),
     "step count must be an int, got 1.5"),
    (lambda: FeatureMapConfig(K=1, C=3.0, schedule=(True, 2)),
     "step count must be an int, got True"),
    (lambda: amplitude_rows([SPEC], WALL, [0.0, 1.0], (1, 1.5)),
     "step count must be an int, got 1.5"),
    (lambda: amplitude_rows([SPEC], WALL, [0.0, 1.0], (True, 2)),
     "step count must be an int, got True"),
    (lambda: trotter_evolve(SPEC, WALL, 1.0, 1.5),
     "n_step must be an int, got 1.5"),
    (lambda: FeatureMapConfig(K=1, C=math.nan),
     "C must be a finite number, got nan"),
    (lambda: FeatureMapConfig(K=1.5, C=3.0), "K must be an int, got 1.5"),
    (lambda: FeatureMapConfig(K=1, C=3.0, seed=2.5),
     "seed must be an int, got 2.5"),
    (lambda: sample_couplings(4.0, np.random.default_rng(0)),
     "n must be an int, got 4.0"),
    (lambda: StateVector(3, [1.7], [1.0]), "one strictly ascending index"),
    (lambda: StateVector(3, [2**64], [1.0]), "one strictly ascending index"),
    (lambda: StateVector(1, [0], [math.nan]), "not normalized"),
    (lambda: FunctionSpec("fourier", 3.0, coeffs=("1", "0", True)),
     "coeff must be a finite number, got '1'"),
    (lambda: BoundInputs(K=2.5, W=1.0, f_inf=1.0, N_d=10, delta=0.1),
     "K must be an int, got 2.5"),
    (lambda: CouplingSpec(4, (True, 0.2, 0.3)),
     "coupling must be a finite number, got True"),
    (lambda: ExperimentConfig(shots=2.5), "shots must be an int, got 2.5"),
    (lambda: StateVector(1, [0], ["a"]), "amplitudes must be numbers"),
], ids=["n_shot", "fractional-step", "bool-step", "rows-fractional-step",
        "rows-bool-step", "n_step", "nan-C", "K", "seed", "sampled-n",
        "fractional-support", "support-past-int64", "nan-amplitude",
        "coeffs", "bound-K", "bool-coupling", "config-shots",
        "text-amplitude"])
def test_python_door_refuses_a_number_of_the_wrong_kind(call, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        call()


GOOD_RECORD = {"n": 4, "couplings": [0.5, -0.25, 0.25],
               "state": "domain_wall", "y": 0.5}


@pytest.mark.parametrize("field, value, message", [
    ("n", 4.7, "n must be an int, got 4.7"),
    ("n", "4", "n must be an int, got '4'"),
    ("couplings", "123", "coupling must be a finite number, got '1'"),
    ("y", True, "y must be a finite number, got True"),
    ("state", {"basis": 5}, "bitstring must be a string, got 5"),
])
def test_dataset_line_is_refused_with_its_number(tmp_path, capsys, field,
                                                 value, message):
    # read as given: no int() or float() turns 4.7 into 4 or "123" into
    # the chain (1, 2, 3) before the checking constructors see it
    data = tmp_path / "d.jsonl"
    data.write_text("".join(json.dumps(rec) + "\n" for rec in (
        GOOD_RECORD, {**GOOD_RECORD, field: value})))
    rc = main(["features", "--n", "4", "--k", "1", "--in", str(data),
               "--out", str(tmp_path / "f.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {data} line 2: {message}\n"
    assert not (tmp_path / "f.csv").exists()
