"""Source rules: invariants are explicit checks, since `python -O` strips
`assert` statements."""

import ast
from pathlib import Path

import eocd

SOURCES = sorted(Path(eocd.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found
