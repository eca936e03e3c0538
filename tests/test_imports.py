"""Every module-level import is used, and every package name is read.

Two AST scans, with no linter dependency:

* a name bound by a module-level ``import`` of the package or its tests
  must be read somewhere in the module (``__future__`` imports and the
  package's ``__init__.py``, whose imports are its re-exports, are exempt);
* a module-level function, class or constant of the package must be read
  somewhere in ``src/`` or ``perfbench/``: as a variable, an attribute or a
  name imported with ``from ... import`` (dunders and ``__init__.py``'s own
  names are exempt).  A name only the tests read is not part of what the
  package's callers use.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "bernstein_lab").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
READERS = sorted([*PACKAGE, *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source):
    """Names bound by the module-level imports of ``source`` that no
    expression of the module reads, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport sys\n"
              "from math import pi as half, tau\n"
              "print(sys.argv, tau)\n")
    assert unused_imports(source) == ["os", "os", "half"]


@pytest.mark.parametrize("path", [p for p in FILES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def defined_names(source):
    """The module-level functions, classes and constants of ``source``
    other than dunders, in source order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names
            if not (name.startswith("__") and name.endswith("__"))]


def read_names(source):
    """The names ``source`` reads: loaded variables, attributes, and the
    names of ``from ... import`` statements."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_names(source, readers):
    """The names ``source`` defines that none of ``readers`` reads."""
    read = set().union(*map(read_names, readers))
    return [name for name in defined_names(source) if name not in read]


def test_scan_flags_an_unread_name():
    source = ("import os\nLIMIT = 3\nUSED = 4\n_CACHE: dict = {}\n"
              "__all__ = []\n"
              "def helper():\n    return USED\n"
              "def unused():\n    return helper()\n"
              "class Thing:\n    LIMIT = 1\n")
    caller = "from mod import Thing\nprint(mod.unused, os)\n"
    assert unread_names(source, [source, caller]) == ["LIMIT", "_CACHE"]
    assert unread_names(source, [source]) == ["LIMIT", "_CACHE", "unused",
                                              "Thing"]


@pytest.mark.parametrize("path",
                         [p for p in PACKAGE if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_package_name_is_read(path):
    readers = [reader.read_text() for reader in READERS]
    assert unread_names(path.read_text(), readers) == []
