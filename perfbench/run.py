"""shaploc benchmark: one workload, timed or traced, checked against oracles.

Run from the repository root:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

``--trace 0`` times the unmodified package and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced units of work and
prints the per-layer metrics, writing the spans to
``.perfbench_out/trace-<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
output passed its oracle, 1 when some did not (the result is still
printed), 2 when the package cannot be imported from ``src/`` (nothing is
printed on standard output).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: every workload is a single process, and at these matrix
# sizes (at most 14 x 14) a second BLAS thread only adds scheduling noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# Set-up is measured in this process and in SETUP_SAMPLES - 1 fresh child
# processes; setup_s is the median.  Each sample is gauged against
# python_kernel, timed SETUP_CAL_REPEATS times in the same process just
# before and just after set-up, and reported as seconds on a host where the
# kernel takes SETUP_REF_CAL_S (its median on the 2-core VM the benchmark
# was defined on).  Set-up is mostly interpreted work (imports, and for
# explain_n14 the first all_shapley), and on a shared host its wall time
# follows the host's speed from minute to minute, by up to 35%.
SETUP_SAMPLES = 7
SETUP_CAL_REPEATS = 6
SETUP_REF_CAL_S = 0.0367
WORKLOAD_NAMES = ("table2", "harness_n10", "explain_n14")
# Throughput is counted per calibration unit ("cal"): the wall time of a
# fixed kernel of the benchmark's own, run between operations.  On a shared
# host the CPU speed swings by up to 40% in phases of 10-60 s, which moves
# wall-clock throughput by as much from run to run; operation time divided
# by the neighbouring calibration time cancels most of that swing.  Each
# workload names the kernel that does its kind of work, because the swing
# hits interpreted code and numpy array code by different amounts.
CAL_SHARE = 0.04
UNITS = {"items_per_cal": "1/cal", "setup_s": "s", "peak_rss_mib": "MiB",
         "ok_frac": "frac"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small n and M, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup(args):
    """Import the package from src/, build the workload and warm it up."""
    t0 = time.perf_counter()
    if not (SRC / "shaploc" / "__init__.py").is_file():
        raise ImportError(f"no shaploc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import shaploc
    import shaploc.cli

    if Path(shaploc.__file__).resolve().parent != (SRC / "shaploc").resolve():
        raise ImportError(f"shaploc was imported from {shaploc.__file__}, not {SRC}")
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](shaploc, args.seed, args.tiny, OUT)
    return workload, time.perf_counter() - t0


def python_kernel() -> None:
    """Dict stores and small tuples and strings: interpreted work, no numpy."""
    table = {}
    for i in range(100_000):
        table[i % 997] = (i, str(i))


def gauged_setup(args):
    """Set up once; returns the workload, the wall time and the gauged time.

    The gauged time is the wall time divided by the mean python_kernel
    time around it, times SETUP_REF_CAL_S.
    """
    before = calibrate(python_kernel, SETUP_CAL_REPEATS)
    workload, wall = setup(args)
    after = calibrate(python_kernel, SETUP_CAL_REPEATS)
    return workload, wall, wall / (0.5 * (before + after)) * SETUP_REF_CAL_S


def probe_setups(args, count: int) -> list[tuple[float, float]]:
    """(wall, gauged) set-up times of ``count`` fresh processes, in turn."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        wall, gauged = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(wall), float(gauged)))
    return samples


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "tiny": args.tiny}


def run_op(workload, k, tracer, records, errors):
    """One operation; an exception is recorded as a failed operation."""
    try:
        records.append(workload.op(k, tracer))
    except Exception:  # noqa: BLE001 - counted and reported, the run goes on
        errors.append(traceback.format_exc())


def make_kernel(kind: str):
    """A fixed calibration kernel of the benchmark's own.

    ``sort``: a stable argsort and cumulative count over 2^19 scores, like
    threshold optimisation.  ``batch``: gathers, triangular solves and row
    norms over 16384 x 6 blocks, like batched scoring over trials.
    ``scalar``: 1500 small triangular solves and dict stores, like
    per-observation scoring.
    """
    import numpy as np
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(0)
    chol = np.linalg.cholesky(np.eye(6) + 0.1)
    if kind == "sort":
        scores = rng.random(1 << 19)
        labels = rng.random(1 << 19) < 0.5

        def kernel() -> None:
            np.cumsum(labels[np.argsort(scores, kind="stable")])
    elif kind == "batch":
        xs = rng.random((16_384, 10))
        out = np.empty((32, 16_384))

        def kernel() -> None:
            for m in range(32):
                diff = xs[:, [(m + j) % 10 for j in range(6)]] - 0.5
                y = solve_triangular(chol, diff.T, lower=True, check_finite=False)
                out[m] = np.einsum("ij,ij->j", y, y)
    else:
        x = rng.random(10)
        idx = np.array([0, 2, 5, 7, 8, 9])

        def kernel() -> None:
            scores = {}
            for m in range(1500):
                y = solve_triangular(chol, x[idx] - 0.5, lower=True, check_finite=False)
                scores[m] = float(-0.5 * (y @ y))
    return kernel


def calibrate(kernel, repeats: int = 1) -> float:
    """Mean wall time of a fixed kernel: the host's current speed.

    One untimed call first, so that memory the operation before it handed
    back to the system is mapped again before the kernel is timed.
    """
    kernel()
    t0 = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - t0) / repeats


def timed_run(workload, seconds):
    """Operations until ``seconds`` pass, each between two calibrations.

    Returns the records, the errors, each operation's wall time and each
    operation's wall time in calibration units (divided by the mean of the
    calibrations on either side of it).  A calibration repeats its kernel
    until it takes about CAL_SHARE of an operation's time, so that long
    operations are gauged against a longer sample of the host's speed.
    """
    kernel = make_kernel(workload.calibration)
    records, errors, walls, cals = [], [], [], [calibrate(kernel)]
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        run_op(workload, k, None, records, errors)
        walls.append(time.perf_counter() - t0)
        cals.append(calibrate(kernel, max(1, round(CAL_SHARE * walls[-1] / cals[-1]))))
        k += 1
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            in_cal = [w / (0.5 * (a + b)) for w, a, b in zip(walls, cals, cals[1:])]
            return records, errors, walls, in_cal


def traced_run(workload, seconds):
    """Alternate untraced and traced units; returns both units' wall times."""
    from tracer import Hooks, Tracer

    tracer = Tracer()
    records, errors = [], []
    plain, traced = [], []
    start = time.perf_counter()
    k = 0
    while True:
        for walls in (plain, traced):
            t0 = time.perf_counter()
            if walls is traced:
                with Hooks(tracer):
                    for j in range(k, k + workload.unit_ops):
                        tracer.op = j
                        run_op(workload, j, tracer, records, errors)
            else:
                for j in range(k, k + workload.unit_ops):
                    run_op(workload, j, None, records, errors)
            walls.append(time.perf_counter() - t0)
            k += workload.unit_ops
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            return tracer, records, errors, plain, traced


def summary(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}, quartiles {q1:.4f}-{q3:.4f}"


def check(workload, records, errors):
    attempted = failed = len(errors) * workload.attempts_per_op
    problems = [e.strip().splitlines()[-1] for e in errors]
    if records:
        a, f, p = workload.check(records)
        attempted += a
        failed += f
        problems += p
    return attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload, setup_wall, setup_s = gauged_setup(args)
    except ImportError as exc:
        print(f"perfbench: cannot load shaploc: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"{setup_wall!r} {setup_s!r}")
        return 0

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        import tracer as tr
        import workloads

        tracer, records, errors, plain, traced = traced_run(workload, args.seconds)
        metrics = tr.layer_metrics(tracer, sum(traced), len(traced),
                                   workloads.SAMPLED_PERMUTATIONS)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0)
        metrics["trace.unit_wall_s"] = statistics.median(traced)
        units = tr.UNITS
        dominance = tr.dominance(args.workload, metrics)
        print(f"dominant layer: expected {dominance['expected']}, observed "
              f"{dominance['observed']} ({'ok' if dominance['ok'] else 'MISMATCH'})")
        if tracer.missing:
            print("missing hooks: " + ", ".join(tracer.missing))
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env, "layer_map": tr.LAYER_MAP, "dominance": dominance,
            "missing_hooks": tracer.missing, "metrics": metrics,
            "untraced_unit_s": plain, "traced_unit_s": traced,
            "leaf_s": dict(tracer.leaf_s), "counts": dict(tracer.counts),
            "spans": tracer.spans}, indent=1))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        records, errors, walls, in_cal = timed_run(workload, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = [(setup_wall, setup_s)] + probe_setups(args, SETUP_SAMPLES - 1)
        metrics = {
            "items_per_cal": statistics.median(workload.items_per_op / c for c in in_cal),
            "setup_s": statistics.median(gauged for _, gauged in setups),
            "peak_rss_mib": peak_rss_mib,
        }
        units = UNITS
        print(f"{len(walls)} operations of {workload.items_per_op} {workload.item}s; "
              f"wall s per operation: {summary(walls)}; in cal: {summary(in_cal)}; "
              f"wall-clock {workload.item}s per s: "
              f"{statistics.median(workload.items_per_op / w for w in walls)!r}; "
              f"set-up wall s: {', '.join(f'{w:.3f}' for w, _ in setups)}; "
              f"gauged s: {', '.join(f'{g:.3f}' for _, g in setups)}")

    attempted, failed, problems = check(workload, records, errors)
    for problem in problems:
        print("FAILED: " + problem, file=sys.stderr)
    if not args.trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
        print(f"fail_frac = {failed / attempted!r} ({failed} of {attempted} "
              f"{'experiments' if workload.item == 'trial' else 'observations'})")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
