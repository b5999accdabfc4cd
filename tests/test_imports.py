"""Every name the code binds is read.

Every top-level import of a module is read somewhere in that module;
``__init__.py`` is exempt, because its imports are the package's public API.
Every top-level function, class and constant of ``src/reachmap``,
``tests/conftest.py`` and ``tests/reference_*.py``, and every method of a
``src/reachmap`` class, is read by name somewhere in ``src/``, ``tests/`` or
``perfbench/``.  A string constant counts as a read, because code reads some
names by string (``getattr``, ``cls.__dict__["predict"]``).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reachmap"
TESTS = ROOT / "tests"
MODULES = sorted(
    p for d in (PACKAGE, TESTS) for p in d.glob("*.py")
    if p.name != "__init__.py"
)
DEFINERS = sorted([*PACKAGE.glob("*.py"), TESTS / "conftest.py", *TESTS.glob("reference_*.py")])
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the module's top-level imports bind and it never reads."""
    tree = ast.parse(source)
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in stmt.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def definitions(source: str, methods: bool) -> list[str]:
    """The names of the module's top-level functions, classes and
    constants, and with ``methods`` those of its classes' methods;
    dunder names are exempt."""
    names = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        if methods and isinstance(stmt, ast.ClassDef):
            names += [f.name for f in stmt.body if isinstance(f, ast.FunctionDef)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def names_read(source: str) -> set[str]:
    """The names, attributes and string constants the module reads, and
    the names it imports from other modules."""
    read = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            read.add(n.value)
        elif isinstance(n, ast.ImportFrom):
            read.update(a.name for a in n.names)
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom math import pi, tau as t\nprint(pi)\n"
    assert unused_imports(source) == ["os", "t"]


def test_every_definition_is_read():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in READERS))
    unread = [
        f"{p.parent.name}/{p.name}: {name}"
        for p in DEFINERS
        for name in definitions(p.read_text(encoding="utf-8"), methods=p.parent == PACKAGE)
        if name not in read
    ]
    assert unread == []


def test_an_unread_definition_is_found():
    source = (
        "A, B = 1, 2\nLIMIT: int = 3\n"
        "def f():\n    return A\n"
        "class C:\n    def __init__(self):\n        self.m = 0\n"
        "    def m(self):\n        pass\n    def n(self):\n        pass\n"
        "print(getattr(C(), 'n'))\n"
    )
    read = names_read(source)
    assert [name for name in definitions(source, methods=True) if name not in read] == [
        "B", "LIMIT", "f", "m",
    ]
    assert [name for name in definitions(source, methods=False) if name not in read] == [
        "B", "LIMIT", "f",
    ]
