"""Source hygiene: no module of the package or of its tests imports a name it
never reads, and every top-level function or class of the package, and every
method of a top-level class, is used by the package or by the benchmark; a
definition that only tests use belongs in the tests.  Every ``--option`` that
the package's text names, in a docstring, comment or message, is an option of
the command line.

pyflakes and ruff are not dependencies, so the checks are small ``ast`` scans.
A name counts as read when any ``Name`` node of the module carries it, in any
scope, or when ``__all__`` lists it.  ``from __future__`` imports are compiler
directives, not names, and are skipped.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

from wittgrass import cli

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "wittgrass"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
# where a definition of the package may be used, besides the package itself;
# not the tests, so that no definition lives in the package for tests alone
USERS = sorted((ROOT / "perfbench").rglob("*.py"))


def _all_entries(tree):
    """The string constants that ``__all__`` assignments list."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from (e for e in node.value.elts if isinstance(e, ast.Constant))


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
    read.update(e.value for e in _all_entries(tree))
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


def _references(tree):
    """Every name the tree uses: ``Name`` ids, attribute names, imported names,
    and the parts of string constants spelled as a dotted name (the tracer's
    targets).  Docstrings and other bare strings are comments, not uses, and
    an ``__all__`` entry exports a name without using it."""
    comments = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    comments.update(id(node) for node in _all_entries(tree))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in comments and re.fullmatch(r"[\w.]+", node.value)):
            names += node.value.split(".")
    return names


def _definitions(tree):
    """(name, node) of each top-level function and class of the module, and
    ("Class.method", node) of each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member


def dead_definitions(package, users):
    """(module, name) of each top-level function or class of the ``package``
    sources ({module: source}), and of each method of a top-level class, used
    nowhere but in its own definition, across the package and the ``users``
    sources.  Uses are matched by name alone, so a method counts as used when
    any attribute of that name is read.  Dunder functions and methods, such as
    a module ``__getattr__`` or ``__add__``, are called by the interpreter and
    are skipped."""
    uses = {}
    for source in [*package.values(), *users]:
        for name in _references(ast.parse(source)):
            uses[name] = uses.get(name, 0) + 1
    dead = []
    for module, source in package.items():
        for qualname, node in _definitions(ast.parse(source)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = _references(node).count(node.name)
            if uses.get(node.name, 0) == own:
                dead.append((module, qualname))
    return sorted(dead)


def test_the_scan_finds_a_dead_definition():
    package = {
        "m": (
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def mentioned():\n"
            "    'Only a docstring names used and mentioned.'\n"
            "class Traced:\n"
            "    def run(self):\n"
            "        return self.step()\n"
            "    def step(self):\n"
            "        return 1\n"
            "    def unread(self):\n"
            "        return self.unread\n"
            "    def __add__(self, other):\n"
            "        return self\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
            "def exported():\n"
            "    return 1\n"
            "__all__ = ['exported', 'used']\n"
        ),
    }
    users = ["from m import used\nused()\nTARGETS = ('m', 'Traced.run')\n"]
    assert dead_definitions(package, users) == [
        ("m", "Traced.unread"), ("m", "exported"), ("m", "mentioned"), ("m", "recursive"),
    ]


def test_every_definition_is_used():
    package = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    users = [path.read_text(encoding="utf-8") for path in USERS]
    assert dead_definitions(package, users) == []


# an option as text names it: two dashes that no word character or dash precedes
OPTION = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def parser_options(parser):
    """The option strings of the parser and of all its subparsers."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= parser_options(sub)
    return options


def unknown_options(sources, options):
    """(module, option) of each option the ``sources`` ({module: text}) name
    that is not among ``options``."""
    return sorted({(module, name) for module, text in sources.items()
                   for name in OPTION.findall(text) if name not in options})


def test_the_scan_finds_a_removed_option():
    sources = {"m": '"""So ``witt add --laurent --N 3`` parses three lines; x--y is no option."""'}
    assert unknown_options(sources, parser_options(cli.build_parser())) == [("m", "--laurent")]


def test_every_option_the_package_names_exists():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unknown_options(sources, parser_options(cli.build_parser())) == []
