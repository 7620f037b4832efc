"""Unused-name checks: every name an import binds in a package module is read
there, and so is every private module-level name the module defines. Every
public function, class and method of the package is read by something
outside the tests, so no test-only helper lives in ``src``. So is every
member of the package's enums. The names that only the benchmark reads are
pinned, so that one it stops reading, or a new one, is seen.

No linter is a dependency, so this parses each module of ``src/entaccess``
(the package's re-exporting ``__init__.py`` aside) with ``ast``.

Also here: importing the package and its command line loads no
``numpy.random``, which only a seeded draw needs.
"""

import ast
import os
import subprocess
import sys
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


def _enum_name(node: ast.AST) -> str | None:
    """``E`` for a reference ``E`` or ``module.E``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def enum_members(source: str) -> list[str]:
    """``Enum.MEMBER`` for each member of each module-level ``Enum`` subclass."""
    members = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(_enum_name(b) == "Enum" for b in node.bases):
            members.extend(
                f"{node.name}.{target.id}"
                for item in node.body if isinstance(item, ast.Assign)
                for target in item.targets
                if isinstance(target, ast.Name) and not target.id.startswith("_")
            )
    return members


def read_enum_members(source: str) -> tuple[set[str], set[str]]:
    """(``E.MEMBER`` read qualified, enums ``E`` read whole) in ``source``.

    A qualified access that is only an operand of a comparison reads no
    member: it tests for a value that something else has to produce. An
    enum is read whole when it is iterated (a ``for`` or comprehension over
    it, or an argument of ``list``, ``tuple``, ``set``, ``sorted``) or looked
    up by value or name (``E(value)``, ``E[name]``).
    """
    tree = ast.parse(source)
    compared = {
        id(operand)
        for node in ast.walk(tree) if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
    }
    qualified, whole = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in compared:
            enum = _enum_name(node.value)
            if enum is not None:
                qualified.add(f"{enum}.{node.attr}")
        elif isinstance(node, (ast.For, ast.comprehension)):
            whole.add(_enum_name(node.iter))
        elif isinstance(node, ast.Call):
            whole.add(_enum_name(node.func))
            if _enum_name(node.func) in {"list", "tuple", "set", "sorted"}:
                whole.update(map(_enum_name, node.args))
        elif isinstance(node, ast.Subscript):
            whole.add(_enum_name(node.value))
    return qualified, whole - {None}


def unread_enum_members(definitions: str, readers: list[str]) -> list[str]:
    """Enum members in ``definitions`` that no reader source reads."""
    qualified, whole = set(), set()
    for source in readers:
        q, w = read_enum_members(source)
        qualified |= q
        whole |= w
    return [
        member for member in enum_members(definitions)
        if member not in qualified and member.partition(".")[0] not in whole
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


def test_benchmark_only_public_names():
    # the traced slot of perfbench/workloads.py still contends through the
    # state API and checks fidelity against a product state; once it makes
    # run_slot's calls, these leave src with it
    readers = [path.read_text() for path in READERS if "perfbench" not in path.parts]
    only_bench = {
        name for path in MODULES for name in unread_public_names(path.read_text(), readers)
    }
    assert only_bench == {"contend", "read_ancillas", "product_state"}


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


def test_no_test_only_enum_members():
    readers = [path.read_text() for path in READERS]
    unread = {path.name: unread_enum_members(path.read_text(), readers) for path in MODULES}
    assert {name: members for name, members in unread.items() if members} == {}


def test_detects_test_only_enum_members():
    definitions = (
        "class Color(Enum):\n    RED = 1\n    GREEN = 2\n    BLUE = 3\n    _HIDDEN = 4\n"
        "class Shape(enum.Enum):\n    ROUND = 1\n    SQUARE = 2\n"
        "class Size(Enum):\n    BIG = 1\n"
        "class Kind(Enum):\n    A = 1\n"
        "class Plain:\n    FLAT = 1\n"
    )
    readers = [
        # RED is produced; GREEN is only compared against; BLUE is a bare name
        "paint(mod.Color.RED)\nif c is Color.GREEN or Color.GREEN == c: pass\nBLUE = 3\n",
        "for s in Shape: pass\n",
        "Size('big')\n",
        "kinds = sorted(Kind)\n",
    ]
    assert unread_enum_members(definitions, readers) == ["Color.GREEN", "Color.BLUE"]


def test_import_leaves_numpy_random_unloaded():
    # A fresh interpreter: this one has long since imported numpy.random.
    code = (
        "import sys\n"
        "import entaccess, entaccess.cli, entaccess.session\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split() == ["True", "False"]
