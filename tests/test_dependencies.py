"""The library imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import tsvar

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tsvar"}


def imported_modules(tree: ast.AST):
    """Top-level names of the absolute imports in ``tree``, with line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_library_imports_only_stdlib_and_numpy():
    package = Path(tsvar.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 1
    outside = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for name, line in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name not in ALLOWED
    ]
    assert not outside, "imports outside the standard library and numpy: " + ", ".join(outside)


def test_a_third_party_import_is_caught():
    tree = ast.parse("import scipy.linalg\nfrom sympy import Symbol\nfrom . import expr\n")
    assert [name for name, _ in imported_modules(tree) if name not in ALLOWED] == ["scipy", "sympy"]
