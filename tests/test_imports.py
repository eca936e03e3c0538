"""Every module-level import is used, every package name is read, no
product of the package goes to BLAS, no record is a dataclass, and a CLI
invocation loads ``numpy.random`` only when it uses it.

Four AST scans, with no linter dependency:

* a name bound by a module-level ``import`` of the package or its tests
  must be read somewhere in the module (``__future__`` imports and the
  package's ``__init__.py``, whose imports are its re-exports, are exempt);
* a module-level function, class or constant of the package must be read
  somewhere in ``src/`` or ``perfbench/``: as a variable, an attribute or a
  name imported with ``from ... import`` (dunders and ``__init__.py``'s own
  names are exempt).  A name only the tests read is not part of what the
  package's callers use;
* no module of the package forms a product that numpy may hand to BLAS,
  whose kernel, and so whose summation order, the CPU picks: no ``@``, no
  numpy ``matmul``, ``dot``, ``vecdot``, ``matvec``, ``vecmat``, ``inner``
  or ``tensordot``, nothing of ``np.linalg`` and no ``einsum`` with
  ``optimize``.  Products go through ``linalg.matmul``;
* no module of the package imports ``dataclasses``: a dataclass generates
  and executes its methods' source at import, which every CLI invocation
  would pay.  Records are ``NamedTuple``s or plain classes.

A fresh interpreter runs the CLI's subcommands and reports whether
``numpy.random`` (with ``secrets``, ``hashlib`` and ``hmac``) was loaded:
only a rotation search that reaches a restart needs it.
"""

import ast
import json
import os
import subprocess
import sys
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


BLAS_NAMES = {"matmul", "dot", "vecdot", "matvec", "vecmat", "inner",
              "tensordot", "linalg"}


def blas_routes(source):
    """(line, route) of every product in ``source`` that numpy may hand to
    BLAS, in walk order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append((node.lineno, "@"))
        elif (isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"np.{node.attr}"))
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("numpy")
              and ("linalg" in node.module
                   or any(a.name in BLAS_NAMES for a in node.names))):
            found.append((node.lineno, f"from {node.module} import"))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "einsum"
              and any(k.arg == "optimize" for k in node.keywords)):
            found.append((node.lineno, "einsum(optimize=...)"))
    return found


def test_scan_flags_every_blas_route():
    source = ("import numpy as np\nfrom numpy.linalg import svd\n"
              "from numpy import dot\nfrom . import linalg\n"
              "a = x @ y\nx @= y\nb = np.matmul(x, y) + np.vecdot(x, y)\n"
              "c = np.linalg.norm(x)\n"
              "d = np.einsum('ij,jk', x, y, optimize=True)\n"
              "e = linalg.matmul(x, y) + np.einsum('ij,jk', x, y)\n")
    assert sorted(blas_routes(source)) == [
        (2, "from numpy.linalg import"), (3, "from numpy import"),
        (5, "@"), (6, "@"), (7, "np.matmul"), (7, "np.vecdot"),
        (8, "np.linalg"), (9, "einsum(optimize=...)")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_has_no_blas_route(path):
    assert blas_routes(path.read_text()) == []


def dataclass_imports(source):
    """Lines of the ``dataclasses`` imports of ``source``, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "dataclasses"
                for alias in node.names))
            or (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "dataclasses")]


def test_scan_flags_every_dataclasses_import():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "import typing, dataclasses as dc\n"
              "def late():\n    from dataclasses import replace\n"
              "from typing import NamedTuple\n")
    assert dataclass_imports(source) == [1, 2, 3, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_no_dataclasses(path):
    assert dataclass_imports(path.read_text()) == []


# Each subcommand on an input that needs no restart, then a rotation search
# that reaches one: a 3 x 3 trace-free OptimalB search is certified and
# stops at evaluation 1, a (1, 1) full one has no ceiling.
NO_RESTART = {
    "check": ["check", "--input", "m.json", "--out", "check.json"],
    "region": ["region", "--n", "2", "--m", "2", "--grid", "0:1:3,0:1:3",
               "--out", "region.csv"],
    "rotate": ["rotate", "--input", "m.json", "--seed", "1",
               "--out", "rotate.json"],
    "verify": ["verify", "--surface", "holo_z2", "--identity", "gradient",
               "--grid", "5", "--out", "verify.json"],
}
RESTART = ["rotate", "--input", "one.json", "--seed", "4", "--budget", "120",
           "--traceless", "false", "--out", "restart.json"]


def test_numpy_random_loads_only_when_a_search_reaches_a_restart(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps(
        {"matrix": [[0.3, -0.2, 0.1], [0.1, 0.2, -0.3], [0.0, 0.1, 0.2]]}))
    (tmp_path / "one.json").write_text(json.dumps({"matrix": [[0.7]]}))
    code = ("import json, sys\n"
            "import bernstein_lab.cli as cli\n"
            "loaded = lambda: 'numpy.random' in sys.modules\n"
            "out = [('import', 0, loaded())]\n"
            "for name, argv in json.loads(sys.argv[1]):\n"
            "    out.append((name, cli.main(argv), loaded()))\n"
            "print(json.dumps(out))\n")
    runs = [*NO_RESTART.items(), ("restart", RESTART)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [tuple(row) for row in json.loads(proc.stdout)] == [
        ("import", 0, False), ("check", 0, False), ("region", 0, False),
        ("rotate", 0, False), ("verify", 0, False), ("restart", 0, True)]
    rotate = json.loads((tmp_path / "rotate.json").read_text())["results"]
    assert rotate["evaluations"] == 1
    restart = json.loads((tmp_path / "restart.json").read_text())["results"]
    assert restart["evaluations"] == 120
