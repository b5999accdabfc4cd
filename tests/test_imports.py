"""Every top-level import of a module is read somewhere in that module.

``__init__.py`` is exempt: its imports are the package's public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for d in (ROOT / "src" / "reachmap", ROOT / "tests") for p in d.glob("*.py")
    if p.name != "__init__.py"
)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom math import pi, tau as t\nprint(pi)\n"
    assert unused_imports(source) == ["os", "t"]
