"""A source check that needs no linter: every module of the package uses
each name it imports."""

import ast
from pathlib import Path

import pytest

import metamine

MODULES = sorted(p for p in Path(metamine.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")   # its imports are re-exports


def unused_imports(source):
    """The names a module imports but never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0]
                         for alias in node.names]
    # annotations count as uses: ast parses them as names even where
    # `from __future__ import annotations` keeps them unevaluated
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    assert unused_imports("import csv\nfrom typing import Optional, "
                          "Sequence\nx: Optional[int] = None\n") \
        == ["csv", "Sequence"]
