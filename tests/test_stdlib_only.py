"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "freegp").glob("*.py"))


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "gp.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [
        f"{path.name}:{line}: {name}"
        for line, name in _imported_modules(tree)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, "non-stdlib imports: " + ", ".join(outside)
