"""Source hygiene: no module of the package or of its tests imports a name it
never reads.

pyflakes and ruff are not dependencies, so the check is a small ``ast`` scan.
A name counts as read when any ``Name`` node of the module carries it, in any
scope, or when ``__all__`` lists it.  ``from __future__`` imports are compiler
directives, not names, and are skipped.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "wittgrass"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .witt import mat_det, mat_mul as mm\n"
        "from . import structure\n"
        "__all__ = ['structure']\n"
        "def f():\n"
        "    return os.path.join(mm)\n"
    )
    assert unused_imports(source) == [(3, "mat_det")]


def test_modules_found():
    names = {m.name for m in MODULES}
    assert {"cli.py", "lattice.py", "witt.py", "conftest.py", "test_hygiene.py"} <= names
    assert len(names) == len(MODULES)  # the names are the test ids


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
