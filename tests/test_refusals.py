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
    # every sector path and dense state is held to SECTOR_BYTES_CAP; a
    # second module-level cap would be a second refusal rule
    caps = [(path.name, name.id) for path in SOURCES
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            for name in ast.walk(target)
            if isinstance(name, ast.Name) and name.id.endswith("_CAP")]
    assert caps == [("hamiltonians.py", "SECTOR_BYTES_CAP")]
