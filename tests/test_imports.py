"""Unused-import check: every name an import binds in a package module is read there.

No linter is a dependency, so this parses each module of ``src/entaccess``
(the package's re-exporting ``__init__.py`` aside) with ``ast``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "entaccess"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read; ``__future__`` is exempt."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"statevector.py", "protocol.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_imports():
    source = "import math\nimport os.path\nfrom json import dumps, loads as l\nprint(dumps)\n"
    assert unused_imports(source) == ["l", "math", "os"]
    assert unused_imports("from __future__ import annotations\n") == []
