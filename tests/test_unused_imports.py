"""Every module-level import in the package's modules is used there."""

import ast
from pathlib import Path

import pytest

import shaploc

MODULES = sorted(
    p for p in Path(shaploc.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source):
    """Sorted names bound by imports outside functions and classes, never read."""
    tree = ast.parse(source)
    bound = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            stack += [stmt for handler in getattr(node, "handlers", []) for stmt in handler.body]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_referenced(path):
    assert unused_imports(path.read_text()) == [], path.name


def test_the_guard_sees_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os\nimport os.path as osp\n"
        "try:\n    import sys\nexcept ImportError:\n    from math import pi, tau\n"
        "def f():\n    import json\n    return sys.argv, tau, osp\n"
    )
    assert unused_imports(source) == ["os", "pi"]
