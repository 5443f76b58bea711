"""Check that every demo's imports resolve, and run the quick demos and the README's code.

The quick demos and each ``python`` code block of README.md run in a
subprocess with warnings as errors and a timeout, and must exit 0 and print
something.  ``complexity_scaling.py`` takes about 12 s, so only its imports
are checked.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
QUICK_DEMOS = ["truncation_and_sampling.py", "single_term_equivalence.py", "localization_error_rates.py"]


def _shaploc_imports(path):
    """(module, name or None) for every import of shaploc in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "shaploc":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "shaploc")


def test_every_demo_is_checked():
    assert DEMOS and README_BLOCKS
    assert set(QUICK_DEMOS) <= {p.name for p in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = list(_shaploc_imports(path))
    assert imports, f"{path.name} imports nothing from shaploc"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module} has no {name}"


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert not any(cwd.iterdir()), f"{args} wrote files"


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demo_runs(name, tmp_path):
    _run([str(ROOT / "demos" / name)], tmp_path)


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    _run(["-c", block], tmp_path)
