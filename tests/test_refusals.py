"""The package refuses its inputs with one exception type, ConfigError."""

import ast
from pathlib import Path

import hamfourier

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
    # tests need (ROADMAP item 5)
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
