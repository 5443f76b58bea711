"""Exact, truncated and permutation-sampled Shapley values.

The Shapley value of sensor i is the coalition-weighted average of its
marginal contribution v(S u {i}) - v(S) over all coalitions S that exclude
i.  Coalitions are enumerated as bit masks; the value function is an
abstract callable so the same engine serves the Gaussian anomaly score and
synthetic games alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .coalitions import Coalition
from .gaussian import GaussianModel, GaussianValueFunction, check_observation

MAX_EXACT_SENSORS = 24


class UniverseTooLargeError(ValueError):
    """Exact enumeration refused; use sampled_shapley instead."""


class EmptyKeptSetError(ValueError):
    """The truncation predicate rejected every coalition."""


@runtime_checkable
class ValueFunction(Protocol):
    """Deterministic coalition score; must return 0 on the empty coalition."""

    n: int

    def __call__(self, s: Coalition, x) -> float: ...


class AdditiveValueFunction:
    """Synthetic additive game: score of S is the sum of per-sensor coefficients.

    Ignores the observation argument; useful for exercising the engine on a
    game whose Shapley values are known in closed form (they equal the
    coefficients).
    """

    def __init__(self, coeffs):
        self.a = np.asarray(coeffs, dtype=float)
        if self.a.ndim != 1 or self.a.size == 0:
            raise ValueError("coefficients must be a non-empty vector")
        self.n = self.a.size

    def __call__(self, s: Coalition, x=None) -> float:
        return float(sum(self.a[j] for j in s))


@dataclass(frozen=True)
class ShapleyResult:
    phi: np.ndarray        # one value per sensor
    evaluations: int       # value-function calls made


def shapley_weight(s_card: int, n: int) -> float:
    """Coalition weight |S|! (n-|S|-1)! / n! for a universe of n sensors."""
    if n < 1:
        raise ValueError(f"universe size must be positive, got {n}")
    if not 0 <= s_card <= n - 1:
        raise ValueError(f"coalition cardinality {s_card} out of range for n={n}")
    # int true division rounds correctly, so each weight is the nearest double
    return math.factorial(s_card) * math.factorial(n - s_card - 1) / math.factorial(n)


def _check_universe(n: int) -> None:
    if n > MAX_EXACT_SENSORS:
        raise UniverseTooLargeError(
            f"exact enumeration refuses n={n} > {MAX_EXACT_SENSORS}"
        )


def _values(v: ValueFunction, x) -> np.ndarray:
    """v(S, x) for every coalition S, indexed by bit mask.

    A Gaussian value function is scored by its model's chain-rule kernel;
    any other takes one call per coalition.
    """
    n = v.n
    if isinstance(v, GaussianValueFunction):
        return v.model.coalition_values(check_observation(x, n)[None, :])[:, 0]
    return np.array([v(Coalition(mask, n), x) for mask in range(1 << n)], dtype=float)


@lru_cache(maxsize=4)
def _pair_weights(n: int) -> np.ndarray:
    """Shapley weight of each coalition excluding a sensor, in (n-1)-bit counting order."""
    sizes = np.zeros(1, dtype=np.intp)
    for _ in range(n - 1):
        sizes = np.concatenate((sizes, sizes + 1))  # popcounts of 0 .. 2^(n-1) - 1
    weights = np.array([shapley_weight(c, n) for c in range(n)])[sizes]
    weights.setflags(write=False)  # shared by every caller through the cache
    return weights


# the Gaussian form builder keeps its residual coefficients within about
# this many doubles, beyond the model's chain-rule factor tables
_FORM_ELEMENTS = 1 << 24


def _residual_blocks(gammas, n: int, block: int):
    """Yield (lo, b): b[s] is the last sensor's residual given mask lo + s, as a vector.

    This is the residual recursion of ``GaussianModel.coalition_values``
    run on the n basis vectors, so row s of b holds the coefficients of
    e_{n-1 | S} in x - mean.  Masks are grown breadth first up to ``block``
    of them, then depth first, so at most one block per sensor is alive.
    """

    def grow(res, k, lo):
        # res[j - k, s] holds the coefficients of sensor j's residual given mask lo + s
        if k == n - 1:
            yield lo, res[0]
            return
        width = res.shape[1]
        gamma = gammas[k][:, lo : lo + width]
        if 2 * width <= block:  # then lo = 0 and width = 2^k: add sensor k to every mask
            yield from grow(np.concatenate((res[1:], res[1:] - gamma * res[0]), axis=1), k + 1, lo)
        else:
            yield from grow(res[1:], k + 1, lo)
            yield from grow(res[1:] - gamma * res[0], k + 1, lo + (1 << k))

    yield from grow(np.eye(n)[:, None, :], 0, 0)


def gaussian_shapley_form(model: GaussianModel, i: int) -> tuple[float, np.ndarray]:
    """(C, A) such that phi_i(x) = C + d^T A d exactly, with d = x - mean.

    Each marginal contribution v(S + i) - v(S) = -ln f(x_i | x_S) equals
    0.5 ln(2 pi c_S) + 0.5 e_S^2 / c_S, where c_S = Var(x_i | x_S) and the
    residual e_S = b_S . d is linear in d.  So C is the weighted sum of
    0.5 ln(2 pi c_S) and A that of (0.5 / c_S) b_S b_S^T over the coalitions
    S that exclude i.  The chain-rule factors of the model with sensor i
    moved last give every c_S; the kernel's residual recursion gives b_S.
    """
    n = model.n
    if not 0 <= i < n:
        raise ValueError(f"sensor index {i} out of range for n={n}")
    order = [j for j in range(n) if j != i] + [i]
    half_log_var, half_precision, gammas = GaussianModel(
        model.mean[order], model.cov[np.ix_(order, order)]
    )._chain_factors
    last = slice(1 << (n - 1), None)  # the coalitions whose highest sensor is i
    weights = _pair_weights(n)
    scaled = weights * half_precision[last, 0]
    # the live residual blocks and one weighted copy take at most
    # block * n * (n + 3) * (n + 4) / 2 doubles
    block = 1 << (n - 1)
    while block > 1 and block * n * (n + 3) * (n + 4) // 2 > _FORM_ELEMENTS:
        block //= 2
    a = np.zeros((n, n))
    for lo, b in _residual_blocks(gammas, n, block):
        a += (b.T * scaled[lo : lo + len(b)]) @ b
    form = np.empty((n, n))
    form[np.ix_(order, order)] = a
    form.setflags(write=False)
    return float(weights @ half_log_var[last, 0]), form


def _transform(column: np.ndarray, sensors, weights: np.ndarray) -> np.ndarray:
    """Weighted sums of v(S + i) - v(S) over coalitions S excluding i.

    ``column`` holds the 2^n coalition values of one observation;
    ``weights`` has one entry per excluded coalition in (n-1)-bit counting
    order.  Returns one sum per sensor in ``sensors``.

    The weighted differences fill one contiguous buffer, which numpy sums
    pairwise in an order fixed by its length 2^(n-1) alone.
    """
    diffs = np.empty(column.size // 2)
    phi = np.empty(len(sensors))
    for r, i in enumerate(sensors):
        pairs = column.reshape(-1, 2, 1 << i)  # [higher bits, bit i, lower bits]
        np.subtract(pairs[:, 1], pairs[:, 0], out=diffs.reshape(-1, 1 << i))
        diffs *= weights
        phi[r] = np.add.reduce(diffs)
    return phi


def shapley_from_values(values, i: int | None = None) -> np.ndarray:
    """Shapley values from a table of coalition values.

    ``values`` has shape (2^n,) or (2^n, m); row ``mask`` holds v(S) for the
    coalition with that bit mask.  Returns phi of shape (n,) or (n, m), or
    only sensor i's row when ``i`` is given.
    """
    values = np.asarray(values, dtype=float)
    size = values.shape[0] if values.ndim in (1, 2) else 0
    n = size.bit_length() - 1
    if n < 1 or size != 1 << n:
        raise ValueError(f"values have shape {values.shape}, expected (2^n,) or (2^n, m)")
    _check_universe(n)
    if i is not None and not 0 <= i < n:
        raise ValueError(f"sensor index {i} out of range for n={n}")
    sensors = list(range(n)) if i is None else [i]
    # one column at a time, so a column's phi does not depend on the others;
    # a contiguous copy keeps each pass over a wide table's column in cache
    table = values.reshape(size, -1)
    weights = _pair_weights(n)
    phi = np.empty((len(sensors), table.shape[1]))
    for j in range(table.shape[1]):
        phi[:, j] = _transform(np.ascontiguousarray(table[:, j]), sensors, weights)
    shape = values.shape[1:] if i is not None else (n,) + values.shape[1:]
    return phi.reshape(shape)


def exact_shapley(v: ValueFunction, x, i: int) -> float:
    """Shapley value of sensor i by full coalition enumeration."""
    n = v.n
    _check_universe(n)
    if not 0 <= i < n:
        raise ValueError(f"sensor index {i} out of range for n={n}")
    return float(shapley_from_values(_values(v, x), i))


def all_shapley(v: ValueFunction, x) -> ShapleyResult:
    """Shapley values of every sensor, evaluating each coalition once."""
    n = v.n
    _check_universe(n)
    return ShapleyResult(phi=shapley_from_values(_values(v, x)), evaluations=1 << n)


def truncated_shapley(
    v: ValueFunction, x, i: int, keep: Callable[[Coalition], bool]
) -> float:
    """Shapley sum restricted to kept coalitions, weights renormalized."""
    n = v.n
    _check_universe(n)
    if not 0 <= i < n:
        raise ValueError(f"sensor index {i} out of range for n={n}")
    low = (1 << i) - 1
    kept = np.array([
        bool(keep(Coalition(((sub & ~low) << 1) | (sub & low), n)))
        for sub in range(1 << (n - 1))
    ])
    weights = np.where(kept, _pair_weights(n), 0.0)
    mass = weights.sum()
    if mass == 0.0:
        raise EmptyKeptSetError("truncation predicate kept no coalition")
    return float(_transform(_values(v, x), (i,), weights)[0] / mass)


def sampled_shapley(
    v: ValueFunction, x, i: int, permutations: int, rng: np.random.Generator
) -> float:
    """Unbiased permutation-sampling estimate of the Shapley value of i.

    Averages the marginal contribution of i over uniformly random sensor
    orderings; coalition values are memoized within the call.
    """
    n = v.n
    if not 0 <= i < n:
        raise ValueError(f"sensor index {i} out of range for n={n}")
    if permutations < 1:
        raise ValueError("need at least one permutation")
    cache: dict[int, float] = {0: 0.0}

    def val(mask: int) -> float:
        got = cache.get(mask)
        if got is None:
            got = cache[mask] = v(Coalition(mask, n), x)
        return got

    bit = 1 << i
    total = 0.0
    for _ in range(permutations):
        perm = rng.permutation(n)
        pred = 0
        for j in perm:
            if j == i:
                break
            pred |= 1 << int(j)
        total += val(pred | bit) - val(pred)
    return total / permutations
