"""Run every workload on several seeds and record how far the metrics spread.

    python3 perfbench/stability.py --runs 10 --out perfbench/STABILITY.json

Runs ``run.py --trace 0`` once per (set, workload, seed), one at a time,
with seeds 1..runs, using ``run_seconds`` from BENCHMARK.json.  For each
set and end-to-end metric it records every value, the median, the
quartiles from ``statistics.quantiles(values, n=4)``, the interquartile
spread as a share of the median, and whether that spread is below a third
of the metric's bound.  With two or more sets it also records by how much
each later set's median is worse than the first set's, as a share of the
first, and whether that stays within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--workloads", nargs="*", default=None)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    env = None
    sets = []
    for set_no in range(1, args.sets + 1):
        summary = {}
        for name in names:
            values = {m: [] for m in metrics}
            for seed in range(1, args.runs + 1):
                cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]),
                                         "--trace", "0"]
                cmd[0] = sys.executable
                t0 = time.perf_counter()
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600)
                wall = time.perf_counter() - t0
                if done.returncode != 0:
                    print(done.stdout, done.stderr, file=sys.stderr)
                    return 1
                lines = done.stdout.splitlines()
                env = env or json.loads(lines[0][len("env "):])
                result = json.loads(lines[-1])
                for m in metrics:
                    values[m].append(result["metrics"][m]["value"])
                print(f"set {set_no} {name} seed {seed}: {wall:.1f} s, " + ", ".join(
                    f"{m}={values[m][-1]:.6g}" for m in metrics), flush=True)
            summary[name] = {m: spread(v, metrics[m]["bound"]) for m, v in values.items()}
            for m, s in summary[name].items():
                print(f"  set {set_no} {name} {m}: median {s['median']:.6g}, spread "
                      f"{s['spread']:.4f} (bound {s['bound']})", flush=True)
        sets.append(summary)
    drifts = [{name: {m: drift(sets[0][name][m]["median"], later[name][m]["median"],
                               metrics[m]) for m in metrics} for name in names}
              for later in sets[1:]]
    for set_no, d in enumerate(drifts, 2):
        for name in names:
            for m, x in d[name].items():
                print(f"  set {set_no} vs 1 {name} {m}: worse by {x['worse_by']:.4f} "
                      f"(bound {x['bound']})", flush=True)
    if args.out:
        env = {k: env[k] for k in ("git_sha", "python", "numpy", "scipy", "nproc",
                                   "blas_threads", "seconds")}
        Path(args.out).write_text(json.dumps(
            {"env": env, "seeds": list(range(1, args.runs + 1)), "sets": sets,
             "drift_from_first_set": drifts}, indent=1) + "\n")
    return 0


def spread(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / q2 if q2 else 0.0
    return {"values": values, "median": q2, "q1": q1, "q3": q3, "spread": share,
            "bound": bound, "below_third_of_bound": share < bound / 3}


def drift(first: float, later: float, metric: dict) -> dict:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    worse = later - first if metric["better"] == "lower" else first - later
    share = worse / first if first else 0.0
    return {"first": first, "later": later, "worse_by": share,
            "bound": metric["bound"], "within_bound": share <= metric["bound"]}


if __name__ == "__main__":
    raise SystemExit(main())
