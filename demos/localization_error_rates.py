"""Monte Carlo comparison of the two localization tests.

Runs the two built-in experiment grids at a reduced trial count and prints
the resulting tables: for independent sensors the optimized Shapley test
and single-term test commit exactly the same errors, while for strongly
correlated sensors the Shapley statistic pulls ahead (at an exponentially
higher evaluation cost).
"""

from shaploc import analytic_pe_gaussian
from shaploc.suite import preset_table1, preset_table2, run_suite

TRIALS = 200_000

print(f"independent sensors, {TRIALS:,} trials per config")
print(f"{'config':>12} {'Pe_v':>10} {'Pe_phi':>10} {'analytic':>10}")
_, rows = run_suite(preset_table1(trials=TRIALS, seed=0))
for row in rows:
    oracle = f"{row['analytic_Pe']:.6f}" if row["analytic_Pe"] is not None else ""
    print(f"{row['name']:>12} {row['Pe_v']:>10.6f} {row['Pe_phi']:>10.6f} {oracle:>10}")
assert all(row["Pe_v"] == row["Pe_phi"] for row in rows)
print("-> identical error counts in every configuration\n")

print(f"correlated sensors (attack A, AM=1), {TRIALS:,} trials per config")
print(f"{'config':>12} {'Pe_v':>10} {'Pe_phi':>10} {'conditional bound':>18}")
_, rows = run_suite(preset_table2(trials=TRIALS, seed=0))
for row in rows:
    # error rate of a test on the conditional score alone: effective noise
    # shrinks from sigma to sigma * sqrt(1 - rho^2)
    sigma_cond = row["sigma1"] * (1 - row["rho"] ** 2) ** 0.5
    bound = analytic_pe_gaussian(sigma_cond, row["AM"], row["prior"])
    print(f"{row['name']:>12} {row['Pe_v']:>10.6f} {row['Pe_phi']:>10.6f} {bound:>18.6f}")
print("-> the single-term error stays near the marginal optimum 0.4710 for\n"
      "   every rho, while the Shapley test improves with |rho| because it\n"
      "   blends in each sensor's conditional density given the other")
