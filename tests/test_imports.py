"""Unused-name checks: every name an import binds in a package module is read
there, and so is every private module-level name the module defines. Every
public function, class and method of the package is read by something
outside the tests, so no test-only helper lives in ``src``.

No linter is a dependency, so this parses each module of ``src/entaccess``
(the package's re-exporting ``__init__.py`` aside) with ``ast``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "entaccess"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# What counts as a use of a public name: the package's own modules (its
# re-exports aside), the demos, the benchmark, and the acceptance suite.
READERS = [
    *MODULES,
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


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


def public_definitions(source: str) -> list[str]:
    """Public module-level functions and classes, and ``Class.method`` for each
    public method or property of those classes."""
    names = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            )
    return names


def read_names(source: str) -> set[str]:
    """Names ``source`` reads: loaded names, attribute names, and identifier strings
    (the benchmark's tracer looks functions up by name)."""
    tree = ast.parse(source)
    strings = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.isidentifier()
    }
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return loaded_names(tree) | attributes | strings


def unread_public_names(definitions: str, readers: list[str]) -> list[str]:
    """Public definitions in ``definitions`` whose last name no reader source reads."""
    read = set().union(*(read_names(source) for source in readers))
    return [
        name for name in public_definitions(definitions) if name.rpartition(".")[2] not in read
    ]


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


def test_no_test_only_public_names():
    readers = [path.read_text() for path in READERS]
    unread = {
        path.name: unread_public_names(path.read_text(), readers) for path in MODULES
    }
    assert {name: names for name, names in unread.items() if names} == {}


def test_detects_test_only_public_names():
    definitions = (
        "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
        "class K:\n"
        "    def called(self): pass\n    def never(self): pass\n"
        "    def __repr__(self): return ''\n"
        "    @property\n    def view(self): return 1\n"
        "    @staticmethod\n    def looked_up(): pass\n"
        "class Unused: pass\n"
    )
    readers = ["used()\nk = K()\nk.called()\n", "getattr(K, 'looked_up')\n"]
    assert unread_public_names(definitions, readers) == ["unused", "K.never", "K.view", "Unused"]
