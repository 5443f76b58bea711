"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The statistical criteria use fixed seeds, so the
asserted values are reproducible.
"""

import itertools
import math
import time

import numpy as np
import pytest

from shaploc import (
    AdditiveValueFunction,
    Coalition,
    ExperimentSpec,
    GaussianModel,
    GaussianValueFunction,
    all_shapley,
    analytic_pe_gaussian,
    binomial_ci,
    exact_shapley,
    run_experiment,
    shapley_weight,
    truncated_shapley,
)
from shaploc.cli import main
from shaploc.suite import (
    bench,
    experiment_seed,
    preset_table1,
    preset_table2,
    run_suite,
)


def report(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {number} failed: {description}"


# shared heavy runs ----------------------------------------------------


@pytest.fixture(scope="module")
def table2_rows():
    status, rows = run_suite(preset_table2(trials=10**6, seed=0))
    assert status == 0
    return rows


@pytest.fixture(scope="module")
def independent_type_a_runs():
    """(sigma, am) -> single-term report, M = 10^6, prior 0.5, seed-fixed."""
    out = {}
    for idx, (sigma, am) in enumerate(
        [(s, a) for s in (1.0, 1.5, 2.0) for a in (1.0, 10.0)]
    ):
        spec = ExperimentSpec(
            attack_type="A", am=am, sigma1=sigma, sigma2=sigma, trials=10**6
        )
        _, single = run_experiment(spec.to_config(experiment_seed(123, idx)))
        out[(sigma, am)] = single
    return out


# criteria -------------------------------------------------------------


def test_criterion_1_independence_identity():
    tic = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        model = GaussianModel(
            rng.normal(size=n), np.diag(rng.uniform(0.3, 4.0, n))
        )
        x = model.sample(rng)
        vf = GaussianValueFunction(model)
        phi = all_shapley(vf, x).phi
        singles = [vf(Coalition.of([i], n), x) for i in range(n)]
        worst = max(worst, float(np.max(np.abs(phi - singles))))
    elapsed = time.perf_counter() - tic
    report(
        1,
        f"diagonal models: max |phi_i - v({{i}})| = {worst:.2e} < 1e-9 "
        f"({elapsed:.1f}s < 10s)",
        worst < 1e-9 and elapsed < 10,
    )


def test_criterion_2_additive_identity():
    tic = time.perf_counter()
    rng = np.random.default_rng(200)
    worst_exact = worst_trunc = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        coeffs = rng.normal(size=n)
        game = AdditiveValueFunction(coeffs)
        kept = {0} | {
            int(b) for b in rng.integers(0, 1 << n, size=rng.integers(1, 16))
        }
        for i in range(n):
            worst_exact = max(
                worst_exact, abs(exact_shapley(game, None, i) - coeffs[i])
            )
            trunc = truncated_shapley(game, None, i, lambda s: s.bits in kept)
            worst_trunc = max(worst_trunc, abs(trunc - coeffs[i]))
    elapsed = time.perf_counter() - tic
    report(
        2,
        f"additive games: exact err {worst_exact:.2e}, truncated err "
        f"{worst_trunc:.2e}, both < 1e-12 ({elapsed:.1f}s < 5s)",
        worst_exact < 1e-12 and worst_trunc < 1e-12 and elapsed < 5,
    )


def test_criterion_3_weights_and_efficiency():
    worst_weight = 0.0
    for n in range(2, 13):
        total = sum(
            shapley_weight(len(c), n)
            for size in range(n)
            for c in itertools.combinations(range(n - 1), size)
        )
        worst_weight = max(worst_weight, abs(total - 1.0))

    rng = np.random.default_rng(300)
    worst_eff = 0.0
    for n in (2, 5, 8, 12):
        table = rng.normal(size=1 << n)
        table[0] = 0.0

        class Game:
            def __init__(self, table, n):
                self.table, self.n = table, n

            def __call__(self, s, x=None):
                return self.table[s.bits]

        res = all_shapley(Game(table, n), None)
        worst_eff = max(worst_eff, abs(res.phi.sum() - table[(1 << n) - 1]))
    report(
        3,
        f"weight sums off by {worst_weight:.2e}, efficiency off by "
        f"{worst_eff:.2e}, both < 1e-10",
        worst_weight < 1e-10 and worst_eff < 1e-10,
    )


def test_criterion_4_table1_pattern_equality():
    tic = time.perf_counter()
    status, rows = run_suite(preset_table1(trials=10**5, seed=0))
    elapsed = time.perf_counter() - tic
    equal = all(row["Pe_v"] == row["Pe_phi"] for row in rows)
    report(
        4,
        f"independent grid, 12 configs at M=1e5: Pe_v == Pe_phi in every row "
        f"({elapsed:.0f}s < 120s)",
        status == 0 and len(rows) == 12 and equal and elapsed < 120,
    )


def test_criterion_5_table2_pattern_equality(table2_rows):
    worst_gap = worst_bound = 0.0
    ok = True
    for row in table2_rows:
        gap = abs(row["Pe_phi"] - row["Pe_v"])
        bound = 2 * (row["CI_v"] + row["CI_phi"])
        ok = ok and gap <= bound
        if gap > worst_gap:
            worst_gap, worst_bound = gap, bound
    report(
        5,
        f"correlated grid, 6 configs at M=1e6: worst |Pe_phi - Pe_v| = "
        f"{worst_gap:.2e} <= {worst_bound:.2e}",
        ok and len(table2_rows) == 6,
    )


def test_criterion_6_table2_absolute_value(table2_rows):
    row = next(r for r in table2_rows if r["rho"] == 0.2)
    report(
        6,
        f"rho=0.2, sigma=2, A, AM=1, M=1e6: Pe_v = {row['Pe_v']:.4f} "
        f"within 0.4709 +- 0.003",
        abs(row["Pe_v"] - 0.4709) <= 0.003,
    )


def test_criterion_7_oracle_agreement(independent_type_a_runs):
    ok = True
    details = []
    for (sigma, am), single in independent_type_a_runs.items():
        oracle = analytic_pe_gaussian(sigma, am, 0.5)
        # evaluate the CI half-width at the larger of the two estimates so
        # an empirical zero does not collapse the bound to zero
        ci = binomial_ci(max(single.pe, oracle), single.trials)
        ok = ok and abs(single.pe - oracle) <= 3 * ci
        details.append(f"s={sigma:g},AM={am:g}: {abs(single.pe - oracle):.1e}<={3 * ci:.1e}")
    report(7, "oracle agreement at M=1e6: " + "; ".join(details), ok)


def test_criterion_8_monotonicity_in_sigma(independent_type_a_runs):
    pes = [independent_type_a_runs[(s, 10.0)].pe for s in (1.0, 1.5, 2.0)]
    report(
        8,
        f"attack A, AM=10: Pe strictly increases over sigma 1->1.5->2: "
        f"{pes[0]:.2e} < {pes[1]:.2e} < {pes[2]:.2e}",
        pes[0] < pes[1] < pes[2],
    )


def test_criterion_9_complexity_scaling():
    tic = time.perf_counter()
    rows = bench(range(13, 19))
    elapsed = time.perf_counter() - tic
    shap_ratios = [
        rows[i]["t_shapley"] / rows[i - 1]["t_shapley"] for i in range(1, len(rows))
    ]
    single_ratios = [
        rows[i]["t_single"] / rows[i - 1]["t_single"] for i in range(1, len(rows))
    ]
    shap_ok = all(1.4 <= r <= 2.8 for r in shap_ratios)
    single_ok = all(r <= 1.5 for r in single_ratios)
    report(
        9,
        f"exponential vs linear cost: shapley ratios "
        f"{[round(r, 2) for r in shap_ratios]} in [1.4, 2.8], single ratios "
        f"{[round(r, 2) for r in single_ratios]} <= 1.5 ({elapsed:.0f}s < 180s)",
        shap_ok and single_ok and elapsed < 180,
    )


def test_criterion_10_cli_determinism(tmp_path):
    args = ["preset", "table2", "--trials", "100000", "--seed", "42", "--no-timestamp"]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    report(
        10,
        "two `preset table2 --trials 100000 --seed 42` runs are byte-identical",
        code1 == 0 and code2 == 0 and identical,
    )
