"""Source hygiene: every module-level import in src/cmtk is read somewhere.

__init__.py is left out: its imports are the re-exported public API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cmtk"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system, xml.dom\n"
        "from .x import a, b as c, d\n"
        "def f():\n"
        "    import json\n"
        "    return os.sep, c, xml, d.e\n"
    )
    assert unused_imports(source) == ["a", "system"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_imports(name):
    assert unused_imports((SRC / name).read_text()) == []
