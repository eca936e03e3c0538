"""Every module-level import in the package and its tests is used.

An AST scan, with no linter dependency: a name bound by a module-level
``import`` must be read somewhere in the module.  ``__future__`` imports
and the package's ``__init__.py`` (whose imports are its re-exports) are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "bernstein_lab").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


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
