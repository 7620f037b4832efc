"""Unused-name checks: every name an import binds in a package module is read
there, and so is every private module-level name the module defines.

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
    return sorted(bound - loaded_names(tree))


def unread_private_names(source: str) -> list[str]:
    """Module-level functions, classes and assignments named ``_x`` (not dunder) never read."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - loaded_names(tree))


def loaded_names(tree: ast.AST) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_modules_found():
    assert {p.name for p in MODULES} >= {"statevector.py", "protocol.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_imports():
    source = "import math\nimport os.path\nfrom json import dumps, loads as l\nprint(dumps)\n"
    assert unused_imports(source) == ["l", "math", "os"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def test_detects_unread_private_names():
    source = (
        "_A = 1\n_B, c = 2, 3\n_C: int = 4\n__all__ = []\npublic = 5\n"
        "def _f(): return _A\nclass _K: pass\nasync def _g(): pass\n"
        "def h(): _unused_local = 1\n"
    )
    assert unread_private_names(source) == ["_B", "_C", "_K", "_f", "_g"]
