"""A fresh process explains observations on numpy alone; scipy loads on the
harness's first use, which may be on a pool worker."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import shaploc
from shaploc import AttackSpec, Coalition, ExperimentConfig, GaussianModel, run_experiment
from shaploc.harness import _TRIAL_CHUNK


def _run_fresh(script: str, stdin: bytes = b"") -> str:
    src = str(Path(shaploc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
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
        "assert shaploc.cli.main(['bench', '--max-n', '3', '--reps', '1']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    assert _run_fresh(script).startswith("n,t_shapley_s")


def test_scipy_first_loaded_on_a_pool_worker_gives_the_same_reports():
    config = ExperimentConfig(
        model=GaussianModel(
            [0.5, -1.0, 2.0], [[2.0, 0.6, -0.3], [0.6, 1.0, 0.4], [-0.3, 0.4, 1.5]]
        ),
        attack=AttackSpec(kind="B", am=1.5, targets=Coalition.of([0, 1], 3), sigma_a=0.7),
        sensor_under_test=1,
        trials=3 * _TRIAL_CHUNK,  # three chunks: both workers take one
        seed=77,
    )
    # the child records which thread asks for scipy.special first
    script = (
        "import pickle, sys, threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from shaploc import harness, run_experiment\n"
        "\n"
        "class Watch:\n"
        "    threads = []\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy.special':\n"
        "            self.threads.append(threading.current_thread().name)\n"
        "\n"
        "sys.meta_path.insert(0, Watch())\n"
        "config = pickle.load(sys.stdin.buffer)\n"
        "assert 'scipy' not in sys.modules\n"
        "with ThreadPoolExecutor(2) as two:\n"
        "    harness._POOL = two\n"
        "    print(repr(run_experiment(config)))\n"
        "assert len(Watch.threads) == 1, Watch.threads\n"
        "assert Watch.threads[0] != threading.main_thread().name, Watch.threads\n"
    )
    got = _run_fresh(script, pickle.dumps(config))
    assert got == repr(run_experiment(config)) + "\n"
