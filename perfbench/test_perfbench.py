"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import shaploc  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(name, trace):
    done = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(m["unit"])
                   for line in lines), m["name"]
    if trace == "1":
        assert result["metrics"]["trace.hooks_missing"]["value"] == 0
        assert (ROOT / ".perfbench_out" / f"trace-{name}-seed3.json").is_file()
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert any(line.startswith("fail_frac = 0.0 ") for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "table2", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_missing_hook_is_reported_not_raised():
    t = tracer.Tracer()
    specs = (("shaploc.harness", "no_such_function", tracer._leaf),
             ("shaploc.gaussian", "GaussianModel.no_such_method", tracer._batch),
             ("shaploc.no_such_module", "main", tracer._leaf))
    with tracer.Hooks(t, specs):
        pass
    assert t.missing == ["shaploc.harness.no_such_function",
                         "shaploc.gaussian.GaussianModel.no_such_method",
                         "shaploc.no_such_module.main"]


def test_hooks_are_removed_on_exit():
    import shaploc.suite

    originals = (shaploc.harness.run_experiment, shaploc.suite.run_experiment,
                 shaploc.Coalition.__post_init__)
    with tracer.Hooks(tracer.Tracer()):
        assert shaploc.suite.run_experiment is not originals[1]
        assert shaploc.suite.run_experiment is shaploc.harness.run_experiment
    assert (shaploc.harness.run_experiment, shaploc.suite.run_experiment,
            shaploc.Coalition.__post_init__) == originals


def test_oracles_reject_wrong_outputs(tmp_path):
    table2 = workloads.Table2(shaploc, 5, True, tmp_path)
    status, text = table2.op(0)
    assert table2.check([(status, text)])[:2] == (6, 0)
    header, first, *rest = [ln for ln in text.decode().splitlines()
                            if not ln.startswith("#")]
    cells = first.split(",")
    col = header.split(",").index("Pe_v")
    cells[col] = repr(float(cells[col]) + 0.05)
    bad = "\n".join([header, ",".join(cells), *rest]).encode()
    assert table2.check([(status, text), (status, bad)])[:2] == (12, 6)

    explain = workloads.ExplainN14(shaploc, 5, True, tmp_path)
    record = explain.op(1)
    assert explain.check([record])[:2] == (1, 0)
    j, phi, singles, truncated, sampled = record
    shifted = (j, phi + np.eye(len(phi))[0] * 1e-7, singles, truncated, sampled)
    assert explain.check([shifted])[:2] == (1, 1)
