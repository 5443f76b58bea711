"""A fresh process explains observations, runs the Monte Carlo harness and
prints the presets on numpy alone."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import shaploc
from shaploc import AttackSpec, Coalition, ExperimentConfig, GaussianModel, run_experiment
from shaploc.harness import _STREAM_BLOCK


def _run_fresh(script: str, stdin: bytes = b"", *args: str) -> str:
    src = str(Path(shaploc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", script, *args],
        env=env, input=stdin, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


def test_the_explanation_path_and_bench_load_no_scipy():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import shaploc, shaploc.cli\n"
        "from shaploc import *\n"
        "vf = GaussianValueFunction(GaussianModel([0.5, -1.0, 2.0], np.eye(3) + 0.4))\n"
        "x = np.array([1.0, 2.0, -0.5])\n"
        "phi = all_shapley(vf, x).phi\n"
        "assert exact_shapley(vf, x, 1) == phi[1]\n"
        "truncated_shapley(vf, x, 1, lambda s: len(s) <= 1)\n"
        "sampled_shapley(vf, x, 1, 10, np.random.default_rng(0))\n"
        "assert shaploc.cli.main(['bench', '--max-n', '3']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    assert _run_fresh(script).startswith("n,t_shapley_s")


def test_the_harness_and_the_presets_load_no_scipy(tmp_path):
    model = GaussianModel(
        [0.5, -1.0, 2.0], [[2.0, 0.6, -0.3], [0.6, 1.0, 0.4], [-0.3, 0.4, 1.5]]
    )
    targets = Coalition.of([0, 1], 3)
    configs = [
        ExperimentConfig(
            model=model, attack=attack, sensor_under_test=1,
            trials=3 * _STREAM_BLOCK,  # three chunks: both workers take one
            seed=77,
        )
        for attack in (
            AttackSpec(kind="A", am=1.5, targets=targets),
            AttackSpec(kind="B", am=1.5, targets=targets, sigma_a=0.7),
            AttackSpec(kind="C", am=1.5, targets=targets, um=2.0),
        )
    ]
    script = (
        "import pickle, sys\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from shaploc import cli, harness, run_experiment\n"
        "configs = pickle.load(sys.stdin.buffer)\n"
        "with ThreadPoolExecutor(2) as two:\n"
        "    harness._POOL = two\n"
        "    for config in configs:\n"
        "        print(repr(run_experiment(config)))\n"
        "    for table in ('table1', 'table2'):\n"
        "        out = f'{sys.argv[1]}/{table}.csv'\n"
        "        assert cli.main(['preset', table, '--trials', '2000', '--out', out]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    got = _run_fresh(script, pickle.dumps(configs), str(tmp_path))
    assert got == "".join(repr(run_experiment(config)) + "\n" for config in configs)
