"""Source rules: invariants are explicit checks, since `python -O` strips
`assert` statements, and the package needs nothing beyond the standard
library."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import eocd

SOURCES = sorted(Path(eocd.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


def _imported(path):
    """The top-level module of each absolute import in `path`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_imports_are_the_standard_library_or_the_test_extra():
    # the package, its claim corpora included, runs in an install without
    # extras; the tests may add only what `[test]` in pyproject.toml lists
    stdlib = set(sys.stdlib_module_names) | {"eocd"}
    assert TESTS and Path(__file__) in TESTS
    found = [f"{path.name}: {name}" for path in SOURCES
             for name in _imported(path) if name not in stdlib]
    found += [f"{path.name}: {name}" for path in TESTS
              for name in _imported(path) if name not in stdlib | {"pytest", "hypothesis"}]
    assert not found, found


def test_package_names_do_not_shadow_modules():
    # a package attribute named like a module hides it: `import eocd.x as m`
    # binds eocd's attribute x, whatever it is
    assert len(SOURCES) > 1
    for name in (path.stem for path in SOURCES if path.stem != "__init__"):
        assert getattr(eocd, name, None) in (None, sys.modules.get(f"eocd.{name}")), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("eocd.sierpinski")
    assert eocd.sierpinski is eocd.families.sierpinski
