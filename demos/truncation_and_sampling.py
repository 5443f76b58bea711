"""Approximating the Shapley value: truncated sums and permutation sampling.

Two cheaper stand-ins for the exact coalition sum:

* truncated_shapley keeps only coalitions passing a predicate, or of at
  most max_size sensors, and renormalizes the weights over the kept set;
* sampled_shapley averages marginal contributions over random sensor
  orderings (unbiased, with Monte Carlo error ~ 1/sqrt(permutations)).
"""

import numpy as np

from shaploc import (
    GaussianModel,
    GaussianValueFunction,
    exact_shapley,
    sampled_shapley,
    truncated_shapley,
)

rng = np.random.default_rng(7)
n = 8
raw = rng.normal(size=(n, n))
model = GaussianModel(rng.normal(size=n), raw @ raw.T + n * np.eye(n))
vf = GaussianValueFunction(model)
x = model.sample(rng)
i = 3

exact = exact_shapley(vf, x, i)
print(f"exact Shapley value of sensor {i}: {exact:.6f}\n")

print("truncation to coalitions of bounded size:")
for max_size in range(n):
    approx = truncated_shapley(vf, x, i, max_size=max_size)
    print(f"  |S| <= {max_size}: {approx:>10.6f}   (gap {approx - exact:+.2e})")
print("  keeping only the empty coalition recovers the single-term score\n")

print("permutation sampling:")
for perms in (10, 100, 1_000, 10_000):
    est = sampled_shapley(vf, x, i, perms, np.random.default_rng(1))
    print(f"  {perms:>6} permutations: {est:>10.6f}   (gap {est - exact:+.2e})")
