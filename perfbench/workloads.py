"""The benchmark's three workloads, driven through shaploc's public entry points.

Each workload is built from the seed alone by its constructor, which also
runs its warm-up call; ``op(k)`` performs the k-th operation and returns a record,
and ``check(records)`` compares the records with the oracles afterwards,
outside the timed region.  Package functions are looked up on the module
at call time so that the traced run's hooks see every call.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from importlib import import_module
from pathlib import Path

import numpy as np

SAMPLED_PERMUTATIONS = 200


def random_spd(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T / n + np.eye(n)


class Table2:
    """``shaploc preset table2`` in-process: six correlated n=2 experiments."""

    item = "trial"
    calibration = "sort"
    sigma = 2.0
    am = 1.0

    def __init__(self, shaploc, seed: int, tiny: bool, workdir: Path):
        import_module(shaploc.__name__ + ".cli")
        self.sh = shaploc
        self.trials = 20_000 if tiny else 1_000_000
        self.out = workdir / f"table2-seed{seed}.csv"
        self.items_per_op = 6 * self.trials
        self.attempts_per_op = 6
        self.unit_ops = 1
        self._argv = ["preset", "table2", "--trials", str(self.trials), "--seed",
                      str(seed), "--no-timestamp", "--out", str(self.out)]
        warm = list(self._argv)
        warm[3] = "1000"
        shaploc.cli.main(warm)

    def op(self, k: int, tracer=None):
        status = self.sh.cli.main(self._argv)
        return status, self.out.read_bytes()

    def check(self, records) -> tuple[int, int, list[str]]:
        from oracles import pe_tolerance, single_term_pe

        oracle = single_term_pe(self.sigma, self.am)
        tol = pe_tolerance(oracle, self.trials)
        first = records[0][1]
        attempted = failed = 0
        problems = []
        for status, text in records:
            rows = _rows(text)
            attempted += 6
            bad = set()
            if status != 0:
                problems.append(f"exit status {status}")
            if text != first:
                problems.append("CSV differs from the first run at this seed")
                bad.update(range(6))
            if len(rows) != 6:
                problems.append(f"{len(rows)} rows instead of 6")
                bad.update(range(len(rows), 6))
            for j, row in enumerate(rows):
                try:
                    pe_v = float(row["Pe_v"])
                    pe_phi = float(row["Pe_phi"])
                except (KeyError, ValueError):
                    problems.append(f"row {row.get('name')!r} has no error rates")
                    bad.add(j)
                    continue
                if abs(pe_v - oracle) > tol or not 0.0 <= pe_phi <= 0.5:
                    problems.append(f"row {row['name']}: Pe_v={pe_v} vs oracle "
                                    f"{oracle:.6f} +- {tol:.2e}, Pe_phi={pe_phi}")
                    bad.add(j)
            failed += len(bad)
        return attempted, failed, problems


def _rows(text: bytes) -> list[dict]:
    lines = [ln for ln in text.decode().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class HarnessN10:
    """``run_experiment`` on a seeded random n=10 model, type-A on {0, 1}."""

    item = "trial"
    calibration = "batch"
    am = 2.0

    def __init__(self, shaploc, seed: int, tiny: bool, workdir: Path):
        self.sh = shaploc
        n = 4 if tiny else 10
        self.trials = 4_000 if tiny else 40_000
        self.cov = random_spd(n, np.random.default_rng([seed, 10]))
        model = shaploc.GaussianModel(np.zeros(n), self.cov)
        attack = shaploc.AttackSpec(kind="A", am=self.am,
                                    targets=shaploc.Coalition.of([0, 1], n))
        self.config = shaploc.ExperimentConfig(
            model=model, attack=attack, sensor_under_test=0,
            trials=self.trials, seed=seed, threshold_mode="exact")
        self.items_per_op = self.trials
        self.attempts_per_op = 1
        self.unit_ops = 1
        shaploc.run_experiment(replace(self.config, trials=1000))

    def op(self, k: int, tracer=None):
        shap, single = self.sh.run_experiment(self.config)
        return (shap.pe, shap.threshold, single.pe, single.threshold)

    def check(self, records) -> tuple[int, int, list[str]]:
        from oracles import pe_tolerance, single_term_pe

        oracle = single_term_pe(float(np.sqrt(self.cov[0, 0])), self.am)
        tol = pe_tolerance(oracle, self.trials)
        failed = 0
        problems = []
        for rec in records:
            pe_phi, _, pe_v, _ = rec
            if rec != records[0]:
                problems.append("result differs from the first run at this seed")
            elif abs(pe_v - oracle) > tol or not 0.0 <= pe_phi <= 0.5:
                problems.append(f"Pe_v={pe_v} vs oracle {oracle:.6f} +- {tol:.2e}, "
                                f"Pe_phi={pe_phi}")
            else:
                continue
            failed += 1
        return len(records), failed, problems


class ExplainN14:
    """Per-observation explanations on a seeded random n=14 model."""

    item = "observation"
    calibration = "scalar"
    attacked_sensor = 3
    offset = 4.0

    def __init__(self, shaploc, seed: int, tiny: bool, workdir: Path):
        self.sh = shaploc
        n = 6 if tiny else 14
        rng = np.random.default_rng([seed, 14])
        self.cov = random_spd(n, rng)
        self.seed = seed
        z = rng.standard_normal((6, n))
        self.xs = z @ np.linalg.cholesky(self.cov).T
        self.xs[1::2, self.attacked_sensor] += self.offset
        self.vf = shaploc.GaussianValueFunction(
            shaploc.GaussianModel(np.zeros(n), self.cov))
        self.items_per_op = 1
        self.attempts_per_op = 1
        self.unit_ops = len(self.xs)
        shaploc.all_shapley(self.vf, self.xs[0])

    def op(self, k: int, tracer=None):
        sh = self.sh
        j = k % len(self.xs)
        x = self.xs[j]
        vf = self.vf
        if tracer is not None:
            from tracer import TimedValueFunction
            vf = TimedValueFunction(vf, tracer)
        n = vf.n
        phi = sh.all_shapley(vf, x).phi
        singles = [vf(sh.Coalition.of([i], n), x) for i in range(n)]
        i = int(np.argmax(phi))
        truncated = sh.truncated_shapley(vf, x, i, lambda s: len(s) <= 2)
        sampled = sh.sampled_shapley(vf, x, i, SAMPLED_PERMUTATIONS,
                                     np.random.default_rng([self.seed, j]))
        return j, phi, np.array(singles), truncated, sampled

    def check(self, records) -> tuple[int, int, list[str]]:
        from oracles import EXPLAIN_TOL, neg_joint_logpdf, neg_single_logpdfs

        joint = [neg_joint_logpdf(x, self.cov) for x in self.xs]
        singles = [neg_single_logpdfs(x, self.cov) for x in self.xs]
        seen = {}
        failed = 0
        problems = []
        for rec in records:
            j, phi, v1, truncated, sampled = rec
            ref = seen.setdefault(j, rec)
            gap = abs(float(np.sum(phi)) - joint[j])
            gap1 = float(np.max(np.abs(v1 - singles[j])))
            if gap > EXPLAIN_TOL or gap1 > EXPLAIN_TOL:
                problems.append(f"observation {j}: |sum phi - oracle|={gap:.2e}, "
                                f"max |v(i) - oracle|={gap1:.2e}")
            elif not (np.isfinite(truncated) and np.isfinite(sampled)):
                problems.append(f"observation {j}: non-finite truncated/sampled value")
            elif not (np.array_equal(phi, ref[1]) and truncated == ref[3]
                      and sampled == ref[4]):
                problems.append(f"observation {j}: differs from its first run")
            else:
                continue
            failed += 1
        return len(records), failed, problems


WORKLOADS = {"table2": Table2, "harness_n10": HarnessN10, "explain_n14": ExplainN14}
