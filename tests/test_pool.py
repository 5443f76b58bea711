"""The harness's thread pool: the same bits as the serial path, failures
that stay in their experiment, forked children and the memory budget."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import shaploc
from shaploc import (
    AttackSpec,
    Coalition,
    ExperimentConfig,
    ExperimentSpec,
    GaussianModel,
    GridSpec,
    SuiteConfig,
    run_experiment,
    run_suite,
)
from shaploc import harness
from shaploc.cli import main
from shaploc.harness import _COUNT_BLOCK, _TRIAL_CHUNK

from harness_helpers import optimize_exact, trial_scores


@pytest.fixture
def pool(monkeypatch):
    """The harness's pool, or a two-worker one where this process has one CPU."""
    if harness._POOL is not None:
        yield harness._POOL
        return
    with ThreadPoolExecutor(2) as own:
        monkeypatch.setattr(harness, "_POOL", own)
        yield own


def three_sensor_config(kind, threshold_mode="exact", trials=4 * _TRIAL_CHUNK + 5):
    model = GaussianModel(
        [0.5, -1.0, 2.0], [[2.0, 0.6, -0.3], [0.6, 1.0, 0.4], [-0.3, 0.4, 1.5]]
    )
    attack = AttackSpec(
        kind=kind, am=1.5, targets=Coalition.of([0, 1], 3),
        sigma_a=0.7 if kind == "B" else None, um=2.0 if kind == "C" else None,
    )
    return ExperimentConfig(
        model=model, attack=attack, sensor_under_test=1, trials=trials, seed=77,
        threshold_mode=threshold_mode,
    )


@pytest.mark.parametrize("kind, mode", [
    ("A", "exact"), ("B", "exact"), ("C", "exact"), ("A", GridSpec(0.0, 12.0, 301)),
])
def test_pool_and_serial_path_give_the_same_bits(pool, monkeypatch, kind, mode):
    # at a prior of 0.4 the clean class spans several count blocks, about
    # 39300 of 65541 trials, though the cuts left to count after pruning
    # may fit in one (see the interleaved test below)
    config = replace(three_sensor_config(kind, mode), attack_prior=0.4)
    pooled_scores = trial_scores(config)
    pooled = run_experiment(config)
    assert np.count_nonzero(~pooled_scores[2]) > 2 * _COUNT_BLOCK
    monkeypatch.setattr(harness, "_POOL", None)
    serial_scores = trial_scores(config)
    assert all(np.array_equal(a, b) for a, b in zip(pooled_scores, serial_scores))
    assert run_experiment(config) == pooled


@pytest.mark.parametrize("pooled", [True, False], ids=["pool", "no pool"])
def test_no_result_shares_a_threads_kept_scratch(pool, monkeypatch, pooled):
    # the chunks score into each thread's kept buffers; every array the
    # harness hands out is its own
    kept = {}
    chunk_buffers = harness._chunk_buffers

    def recording(stride, n):
        buffers = chunk_buffers(stride, n)
        kept.update((id(b), b) for b in harness._KEPT.buffers)
        return buffers

    monkeypatch.setattr(harness, "_chunk_buffers", recording)
    if not pooled:
        monkeypatch.setattr(harness, "_POOL", None)
    for trials in (300, 3 * _TRIAL_CHUNK + 5):
        config = three_sensor_config("B", trials=trials)
        results = list(trial_scores(config))
        results += [c for classes in harness._simulate_classes(config) for c in classes]
        assert kept
        for result in results:
            assert not any(np.shares_memory(result, b) for b in kept.values())


@pytest.mark.parametrize("drop", [None, 5, 2 * _COUNT_BLOCK + 77])
def test_pooled_counts_over_a_wide_span_give_the_serial_bits(pool, monkeypatch, drop):
    # Interleaved classes make the error curve flat, so pruning keeps every
    # clean cut and the count blocks go to the pool.  Dropping the attacked
    # score just below a clean one moves the minimum to that clean score.
    n_clean = 3 * _COUNT_BLOCK + 5
    clean = 2.0 * np.arange(n_clean)
    attacked = clean + 1.0 if drop is None else np.delete(clean + 1.0, drop - 1)
    order = np.random.default_rng(3).permutation(clean.size + attacked.size)
    scores = np.concatenate((clean, attacked))[order]
    labels = (np.arange(scores.size) >= clean.size)[order]
    batches = []
    run_all = harness._run_all

    def recording(fn, items):
        batches.append(len(items))
        run_all(fn, items)

    monkeypatch.setattr(harness, "_run_all", recording)
    pooled = optimize_exact(scores, labels)
    assert batches == [4]  # the count blocks of every cut
    monkeypatch.setattr(harness, "_POOL", None)
    assert optimize_exact(scores, labels) == pooled
    k = 0 if drop is None else drop
    errors = n_clean - 1 - (drop is not None)
    assert pooled == (clean[k] + 0.5, errors / scores.size)


def test_more_workers_than_cores_and_fast_switching_give_the_same_bits(monkeypatch):
    config = three_sensor_config("B")
    monkeypatch.setattr(harness, "_POOL", None)
    want_scores = trial_scores(config)
    want = run_experiment(config)
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(8) as many:
        monkeypatch.setattr(harness, "_POOL", many)
        sys.setswitchinterval(1e-6)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(harness, "_TRIAL_CHUNK", 997)
                got_scores = trial_scores(config)
            got = run_experiment(config)
        finally:
            sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(got_scores, want_scores))
    assert got == want


def child_env():
    """This process's environment, with the package's source tree on the path."""
    src = str(Path(shaploc.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks")
def test_a_one_cpu_process_prints_the_pooled_csv(pool, tmp_path):
    args = ["preset", "table2", "--trials", "20000", "--seed", "7", "--no-timestamp"]
    pooled = tmp_path / "pooled.csv"
    assert main(args + ["--out", str(pooled)]) == 0
    serial = tmp_path / "serial.csv"
    # the child pins itself before it imports shaploc, so it builds no pool
    script = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from shaploc import harness\n"
        "from shaploc.cli import main\n"
        "assert harness._POOL is None\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    subprocess.run(
        [sys.executable, "-c", script, *args, "--out", str(serial)],
        env=child_env(), check=True, timeout=300,
    )
    assert serial.read_bytes() == pooled.read_bytes()


def run_a_suite_with_a_failing_chunk(monkeypatch, on_a_worker=False):
    """Threads that ran the failing chunk, after checking that only its row failed.

    The bad experiment's second chunk fails.  With ``on_a_worker``, its
    chunks fail on every thread but the calling one, which waits for the
    first failure before it scores a chunk of its own.
    """
    failed_on = []
    failed = threading.Event()
    simulate_chunk = harness._simulate_chunk

    def fail_a_chunk(config, start, count):
        if config.attack.am == 2.0:
            on_the_caller = threading.current_thread() is threading.main_thread()
            if (on_a_worker and not on_the_caller) or (not on_a_worker and start == _TRIAL_CHUNK):
                failed_on.append(threading.current_thread())
                failed.set()
                raise RuntimeError("chunk failed")
            if on_a_worker and not failed.wait(30):
                raise RuntimeError("no worker took a chunk")
        return simulate_chunk(config, start, count)

    monkeypatch.setattr(harness, "_simulate_chunk", fail_a_chunk)
    trials = 3 * _TRIAL_CHUNK
    cfg = SuiteConfig(experiments=tuple(
        (name, ExperimentSpec(attack_type="A", am=am, trials=trials))
        for name, am in (("first", 1.0), ("bad", 2.0), ("last", 3.0))
    ))
    want = [run_experiment(spec.to_config(0)) for _, spec in cfg.experiments[::2]]
    status, rows = run_suite(cfg)
    assert status == 2
    assert [row["name"] for row in rows] == ["first", "bad FAILED: chunk failed", "last"]
    assert rows[0]["Pe_v"] is not None and rows[2]["Pe_v"] is not None
    # the failed experiment's reservations do not reach the next experiment
    assert [run_experiment(spec.to_config(0)) for _, spec in cfg.experiments[::2]] == want
    return failed_on


def test_a_failing_chunk_fails_only_its_experiment(pool, monkeypatch):
    assert run_a_suite_with_a_failing_chunk(monkeypatch)


def test_a_workers_failing_chunk_fails_only_its_experiment(pool, monkeypatch):
    failed_on = run_a_suite_with_a_failing_chunk(monkeypatch, on_a_worker=True)
    assert failed_on and threading.main_thread() not in failed_on


def recorded_run_all(items, fn=None):
    """[(item, thread)] of every call ``_run_all`` made, in the order they started."""
    calls = []

    def record(item):
        calls.append((item, threading.current_thread()))
        if fn is not None:
            fn(item)

    harness._run_all(record, items)
    return calls


def test_run_all_calls_every_item_once_on_the_caller_and_every_worker(monkeypatch):
    # items 0-2 each hold their thread until three threads hold one: the
    # caller and both workers
    barrier = threading.Barrier(3, timeout=30)
    with ThreadPoolExecutor(2) as two:
        monkeypatch.setattr(harness, "_POOL", two)
        for items in (range(3), range(50), list(range(7))):
            calls = recorded_run_all(items, lambda k: k < 3 and barrier.wait())
            assert sorted(k for k, _ in calls) == list(items)
            threads = {thread for k, thread in calls if k < 3}
            assert len(threads) == 3 and threading.current_thread() in threads
        assert recorded_run_all([]) == []
        # one item runs in the caller, which submits no helper
        assert recorded_run_all(["only"]) == [("only", threading.current_thread())]


def test_run_all_without_a_pool_calls_every_item_in_order_in_the_caller(monkeypatch):
    monkeypatch.setattr(harness, "_POOL", None)
    caller = threading.current_thread()
    assert recorded_run_all(range(9)) == [(k, caller) for k in range(9)]


@pytest.mark.parametrize("pooled", [True, False], ids=["pool", "no pool"])
def test_run_all_raises_the_first_failure_in_item_order_after_every_call(
    monkeypatch, pooled
):
    # item 1 fails last, item 4 at once, and item 6 finishes long after both
    finished = []

    def run(k):
        try:
            time.sleep({1: 0.05, 6: 0.1}.get(k, 0.0))
            if k in (1, 4):
                raise ValueError(k)
        finally:
            finished.append(k)

    with ThreadPoolExecutor(2) as two:
        monkeypatch.setattr(harness, "_POOL", two if pooled else None)
        with pytest.raises(ValueError) as raised:
            harness._run_all(run, range(8))
        assert raised.value.args == (1,)
        assert sorted(finished) == list(range(8))


NESTED_RUN_ALL = """
import os, sys, threading
from concurrent.futures import ThreadPoolExecutor
from shaploc import harness
calls = []
def outer(k):
    harness._run_all(lambda item: calls.append((k, item)), range(3))
harness._POOL = ThreadPoolExecutor(2)
runner = threading.Thread(target=harness._run_all, args=(outer, range(2)), daemon=True)
runner.start()
runner.join(30)
print(sorted(calls), flush=True)
# a hung pool's workers would hold up the interpreter's exit
os._exit(3 if runner.is_alive() else 0)
"""


def test_a_nested_run_all_returns():
    # two outer items each wait for three inner items: run by the pool's two
    # workers alone, both would wait for inner items no thread was free to run
    done = subprocess.run(
        [sys.executable, "-c", NESTED_RUN_ALL], env=child_env(), capture_output=True, timeout=120
    )
    assert done.returncode == 0, "the nested _run_all never returned"
    assert done.stdout.decode().strip() == str([(k, i) for k in range(2) for i in range(3)])


def in_order(order):
    """A serial ``_run_all`` that calls its items in the given order."""

    def run_all(fn, items):
        items = list(items)
        if order == "reversed":
            items.reverse()
        else:  # the odd items, then the even ones
            items = items[1::2] + items[::2]
        for item in items:
            fn(item)

    return run_all


@pytest.mark.parametrize("order", ["reversed", "interleaved", "three workers"])
@pytest.mark.parametrize(
    "kind, mode", [("A", "exact"), ("C", GridSpec(0.0, 12.0, 301))], ids=["A-exact", "C-grid"]
)
def test_chunk_completion_order_changes_no_result(monkeypatch, order, kind, mode):
    # Each chunk reserves its class slices when it finishes scoring, so the
    # order of the chunks decides where each one's scores lie in its class
    config = three_sensor_config(kind, mode, trials=9 * 997 + 5)
    monkeypatch.setattr(harness, "_TRIAL_CHUNK", 997)
    monkeypatch.setattr(harness, "_POOL", None)
    phi, v, labels = trial_scores(config)
    want = run_experiment(config)
    with ThreadPoolExecutor(3) as three:
        if order == "three workers":
            monkeypatch.setattr(harness, "_POOL", three)
        else:
            monkeypatch.setattr(harness, "_run_all", in_order(order))
        for (att, clean), scores in zip(harness._simulate_classes(config), (phi, v)):
            assert np.array_equal(att, np.sort(scores[labels]))
            assert np.array_equal(clean, np.sort(scores[~labels]))
        assert run_experiment(config) == want
        monkeypatch.setattr(harness, "_TRIAL_CHUNK", _TRIAL_CHUNK)
        assert run_a_suite_with_a_failing_chunk(monkeypatch)


def _experiment_in_child(config, conn):
    conn.send(run_experiment(config))
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
def test_a_forked_child_runs_experiments():
    config = three_sensor_config("A", trials=3 * _TRIAL_CHUNK)
    # the parent's workers now exist and wait for work
    want = run_experiment(config)
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_experiment_in_child, args=(config, writer))
    child.start()
    writer.close()
    try:
        assert reader.poll(30), "the forked child's experiment did not finish"
        got = reader.recv()
    finally:
        reader.close()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert not child.is_alive()
    assert got == want


def test_experiment_scratch_stays_under_20_bytes_per_trial(monkeypatch):
    # Two warmed workers, as on a 2-core host.  The phi and v scores hold
    # 16 B a trial, and the four classes are views of them, which the
    # chunks fill in place; each chunk's two index arrays and the counts'
    # scratch bring the peak to about 17.8 B.  Attacked classes copied out
    # for the sorts held 24 B, splitting trial-order scores by a label
    # array 29 B, and a merge of the classes by a concatenate and an
    # argsort 16 B more.
    trials = 1 << 18
    model = GaussianModel([0.0, 0.0], [[4.0, 3.2], [3.2, 4.0]])
    attack = AttackSpec(kind="A", am=1.0, targets=Coalition.of([0], 2))
    config = ExperimentConfig(model=model, attack=attack, trials=trials, seed=5)
    with ThreadPoolExecutor(2) as two:
        monkeypatch.setattr(harness, "_POOL", two)
        run_experiment(config)  # builds the scoring form and starts the workers
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak / trials <= 20


def test_a_warmed_experiment_at_ten_sensors_stays_under_40_bytes_per_trial(monkeypatch):
    # Each worker keeps its chunk buffers from the warm-up, so the second
    # experiment's chunks draw, multiply and score in memory that is already
    # there.  Fresh uniforms, normals, products and observations per chunk
    # held 74 B a trial on two workers.
    trials = 1 << 17
    n = 10
    rng = np.random.default_rng(10)
    a = rng.normal(size=(n, n))
    model = GaussianModel(np.zeros(n), a @ a.T / n + np.eye(n))
    attack = AttackSpec(kind="A", am=2.0, targets=Coalition.of([0, 1], n))
    config = ExperimentConfig(model=model, attack=attack, trials=trials, seed=5)
    with ThreadPoolExecutor(2) as two:
        monkeypatch.setattr(harness, "_POOL", two)
        run_experiment(config)  # starts the workers, which keep their buffers
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak / trials <= 40


def test_counting_after_the_sorts_allocates_under_5_percent_of_the_clean_class(monkeypatch):
    # table2's rho = +0.8 row.  The coarse pass holds two intp arrays of
    # 1/64 of the clean cuts, and each thread counts the kept span a small
    # piece at a time.  An error count for every clean cut took 8 bytes each.
    trials = 1 << 18
    model = GaussianModel([0.0, 0.0], [[4.0, 3.2], [3.2, 4.0]])
    attack = AttackSpec(kind="A", am=1.0, targets=Coalition.of([0], 2))
    config = ExperimentConfig(model=model, attack=attack, trials=trials, seed=5)
    exact_threshold = harness._exact_threshold
    counted = []

    def measured(att, clean):
        # the classes are sorted: what the count allocates from here on
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = exact_threshold(att, clean)
        counted.append((tracemalloc.get_traced_memory()[1] - before, clean.size))
        return result

    monkeypatch.setattr(harness, "_exact_threshold", measured)
    with ThreadPoolExecutor(2) as two:
        monkeypatch.setattr(harness, "_POOL", two)
        tracemalloc.start()
        try:
            run_experiment(config)
        finally:
            tracemalloc.stop()
    assert len(counted) == 2  # phi, then v
    for peak, n_clean in counted:
        assert peak < 0.05 * n_clean * 8
