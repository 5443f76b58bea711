"""Every module-level function and class in the package is used by the
package itself or exported: code that only the tests call lives with them."""

import ast
from pathlib import Path

import shaploc

SOURCES = {
    p.name: p.read_text() for p in sorted(Path(shaploc.__file__).parent.glob("*.py"))
}


def names_in(node):
    """Names that ``node`` reads, imports or lists in an ``__all__``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(a.name for a in sub.names)
        elif isinstance(sub, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets
        ):
            found.update(
                e.value for e in ast.walk(sub.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return found


def unreferenced_definitions(sources):
    """Sorted (module, name) of module-level functions and classes that no
    other statement of any of the sources names."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    named = [names_in(stmt) for _, stmt in statements]
    found = []
    for k, (module, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(stmt.name in names for j, names in enumerate(named) if j != k):
                found.append((module, stmt.name))
    return sorted(found)


def test_every_module_level_definition_is_used_or_exported():
    assert unreferenced_definitions(SOURCES) == []


def test_the_guard_sees_a_definition_nothing_else_names():
    sources = {
        "__init__.py": "from .a import used, Exported\n__all__ = ['Exported', 'listed']\n",
        "a.py": (
            "import os\n"
            "def used():\n    return helper()\n"
            "def helper():\n    return os.sep\n"
            "class Exported:\n    pass\n"
            "def listed():\n    pass\n"
            "def recursive(k):\n    return recursive(k - 1) if k else 0\n"
            "def orphan():\n    return used()\n"
            "class Method:\n    def helper(self):\n        pass\n"
        ),
        "b.py": "from . import a\nX = a.used\n",
    }
    assert unreferenced_definitions(sources) == [
        ("a.py", "Method"), ("a.py", "orphan"), ("a.py", "recursive")
    ]
