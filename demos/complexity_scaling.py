"""Cost of the exact Shapley value vs the single-term statistic.

The exact Shapley value enumerates all 2^n coalitions (n 2^n work), so its
wall time roughly doubles with every extra sensor; the single-term
statistic touches each sensor once and grows linearly.  This script times
both and prints the step-to-step growth ratios.
"""

from shaploc.suite import bench

rows = bench(range(2, 15))

print(f"{'n':>3} {'shapley':>12} {'single-term':>12} {'shapley x':>10} {'single x':>10}")
prev = None
for row in rows:
    shap_ratio = f"{row['t_shapley'] / prev['t_shapley']:.2f}" if prev else ""
    single_ratio = f"{row['t_single'] / prev['t_single']:.2f}" if prev else ""
    print(
        f"{row['n']:>3} {row['t_shapley'] * 1e3:>10.3f}ms "
        f"{row['t_single'] * 1e6:>10.1f}us {shap_ratio:>10} {single_ratio:>10}"
    )
    prev = row

print("\nshapley time roughly doubles per sensor; the single-term statistic")
print("barely moves. At n = 24 the exact sum would need ~17 million")
print("coalition evaluations per observation, which is why the engine")
print("refuses larger universes and offers permutation sampling instead.")
