"""Exact, truncated and permutation-sampled Shapley values.

The Shapley value of sensor i is the coalition-weighted average of its
marginal contribution v(S u {i}) - v(S) over all coalitions S that exclude
i.  Coalitions are enumerated as bit masks; the value function is an
abstract callable so the same engine serves the Gaussian anomaly score and
synthetic games alike.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, cycle, repeat
from typing import Callable, Iterator, Protocol, runtime_checkable

import numpy as np

from .coalitions import Coalition
from .gaussian import MAX_SENSORS, GaussianModel, GaussianValueFunction, check_observation


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

    ``a`` is a read-only copy of ``coeffs``, taken once: later edits to the
    caller's array do not change the game, and ``a`` itself cannot be written,
    because the scores add a Python-float snapshot of it.
    """

    def __init__(self, coeffs):
        self.a = np.array(coeffs, dtype=float)
        if self.a.ndim != 1 or self.a.size == 0:
            raise ValueError("coefficients must be a non-empty vector")
        self.a.setflags(write=False)  # the Python floats below are a copy of it
        self.n = self.a.size
        self._terms = self.a.tolist()

    def __call__(self, s: Coalition, x=None) -> float:
        # left to right from 0, as a numpy scalar sum would add; sum() may compensate
        total = 0.0
        for j in s:
            total += self._terms[j]
        return total


@dataclass(frozen=True)
class ShapleyResult:
    phi: np.ndarray        # one value per sensor
    evaluations: int       # coalitions scored into phi, 2^n


def shapley_weight(s_card: int, n: int) -> float:
    """Coalition weight |S|! (n-|S|-1)! / n! for a universe of n sensors."""
    if n < 1:
        raise ValueError(f"universe size must be positive, got {n}")
    if not 0 <= s_card <= n - 1:
        raise ValueError(f"coalition cardinality {s_card} out of range for n={n}")
    # int true division rounds correctly, so each weight is the nearest double
    return math.factorial(s_card) * math.factorial(n - s_card - 1) / math.factorial(n)


# sampled_shapley reads a Gaussian score from the 2^n table in a kept
# universe, or when 2^n is at most this many times the permutations.  A kept
# table at n = 14 costs less than one permutation's memo misses, and scoring
# one about as much (0.34 against 0.35 ms).  At n = 14..20 a table coalition
# costs 7-17 ns once the model's factors are built, and a permutation's memo
# misses 71-257 us, so the table costs less up to 2^n = 5600 to 27000 times
# the permutations (BENCH_explain_table.json); this stays below all of them.
_TABLE_PER_PERMUTATION = 1 << 12

# sampled_shapley draws this many permutations per generator call; its
# scratch is a few (rows, n) arrays of 8-byte entries, at most 2 MiB each
_PERMUTATION_BLOCK = 1 << 12
# and sums coalition masks as int64, so it samples at most this many sensors
MAX_SAMPLED_SENSORS = 62


def _sensor(i, n: int) -> int:
    """Sensor index i as a Python int (numpy integers poison mask arithmetic), checked."""
    i = operator.index(i)
    if not 0 <= i < n:
        raise ValueError(f"sensor index {i} out of range for n={n}")
    return i


def _check_universe(n: int) -> None:
    if n > MAX_SENSORS:
        raise UniverseTooLargeError(f"exact enumeration refuses n={n} > {MAX_SENSORS}")


# a universe of at most this many coalitions builds them once per process
# and keeps them, about 90 bytes each: 1.4 MiB at n = 14, 2.8 MiB for every
# n up to 14.  Larger universes build each coalition as it is handed out,
# since keeping all 2^24 would take about 1.4 GiB.  Coalitions are frozen,
# so every caller can share them.
_KEPT_COALITIONS = 1 << 14


@lru_cache(maxsize=None)
def _universe(n: int) -> tuple[Coalition, ...]:
    """Every coalition of n sensors, indexed by bit mask; built once per n."""
    return tuple(map(Coalition._trusted, range(1 << n), repeat(n)))


def _coalitions(n: int, skip: int | None = None) -> Iterator[Coalition]:
    """Every coalition of n sensors, or every one without sensor ``skip``, by increasing mask.

    A kept universe hands out its own objects; a larger one builds each
    coalition as it is handed out and keeps none.
    """
    if 1 << n <= _KEPT_COALITIONS:
        kept = _universe(n)
        if skip is None:
            return iter(kept)
        run = 1 << skip  # the masks alternate runs of 2^skip without and with bit skip
        return compress(kept, cycle((True,) * run + (False,) * run))
    if skip is None:
        masks = range(1 << n)
    else:
        # mask m of the other n-1 sensors, spread around bit skip, is
        # m + (m & -2^skip); a cycled pattern would hold 2^(skip+1) entries
        others = range(1 << (n - 1))
        masks = map(operator.add, others, map(operator.and_, others, repeat(-1 << skip)))
    return map(Coalition._trusted, masks, repeat(n))


@lru_cache(maxsize=1)
def _kept_table(model: GaussianModel, observation: bytes) -> np.ndarray:
    """The read-only coalition table of one validated observation, kept until the next.

    At most 2^14 doubles, 128 KiB, in a universe small enough to keep.
    """
    table = model.coalition_values(np.frombuffer(observation))
    table.setflags(write=False)  # shared with every later call on this observation
    return table


def _values(v: ValueFunction, x) -> np.ndarray:
    """v(S, x) for every coalition S, indexed by bit mask.

    A Gaussian value function is scored by its model's chain-rule kernel;
    any other takes one call per coalition.  In a universe small enough to
    keep, every explainer reads the table of the last (model, observation)
    scored, so explaining one observation several ways scores it once.
    """
    n = v.n
    if isinstance(v, GaussianValueFunction):
        if 1 << n > _KEPT_COALITIONS:
            return v.model.coalition_values(x)
        return _kept_table(v.model, check_observation(x, n).tobytes())
    return np.fromiter(map(v, _coalitions(n), repeat(x)), float, 1 << n)


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
    i = _sensor(i, n)
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
    # a pairwise sum, whose order depends on the length alone; a BLAS dot
    # splits by the thread count
    return float(np.add.reduce(weights * half_log_var[last, 0])), form


def _transform(table: np.ndarray, sensors, weights: np.ndarray) -> np.ndarray:
    """Weighted sums of v(S + i) - v(S) over coalitions S excluding i.

    ``table`` holds the 2^n coalition values of one observation;
    ``weights`` has one entry per excluded coalition in (n-1)-bit counting
    order.  Returns one sum per sensor in ``sensors``.

    The weighted differences fill one contiguous buffer, which numpy sums
    pairwise in an order fixed by its length 2^(n-1) alone.
    """
    diffs = np.empty(table.size // 2)
    phi = np.empty(len(sensors))
    for r, i in enumerate(sensors):
        pairs = table.reshape(-1, 2, 1 << i)  # [higher bits, bit i, lower bits]
        np.subtract(pairs[:, 1], pairs[:, 0], out=diffs.reshape(-1, 1 << i))
        diffs *= weights
        phi[r] = np.add.reduce(diffs)
    return phi


def shapley_from_values(values, i: int | None = None) -> np.ndarray:
    """Shapley values from one observation's table of coalition values.

    ``values`` has shape (2^n,); entry ``mask`` holds v(S) for the coalition
    with that bit mask.  Returns phi of shape (n,), or only sensor i's
    value, of shape (), when ``i`` is given.
    """
    values = np.asarray(values, dtype=float)
    n = values.size.bit_length() - 1
    if values.ndim != 1 or n < 1 or values.size != 1 << n:
        raise ValueError(f"values have shape {values.shape}, expected (2^n,)")
    _check_universe(n)
    sensors = range(n) if i is None else (_sensor(i, n),)
    # a strided table is copied once, so the n passes over it read contiguous memory
    phi = _transform(np.ascontiguousarray(values), sensors, _pair_weights(n))
    return phi if i is None else phi.reshape(())


def exact_shapley(v: ValueFunction, x, i: int) -> float:
    """Shapley value of sensor i by full coalition enumeration."""
    n = v.n
    _check_universe(n)
    i = _sensor(i, n)
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
    i = _sensor(i, n)
    if isinstance(v, GaussianValueFunction):
        check_observation(x, n)  # before the predicate's 2^(n-1) calls
    # fromiter takes each answer's truth value, as bool() would
    kept = np.fromiter(map(keep, _coalitions(n, i)), bool, 1 << (n - 1))
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
    orderings, drawn a block at a time; the generator shuffles each block's
    rows as that many ``rng.permutation(n)`` calls would.  A Gaussian value
    function's scores are read from its 2^n coalition table in a universe
    small enough to keep, or while the table costs less than scoring the
    permutations' coalitions one by one (the two agree bit for bit);
    otherwise coalition values are memoized within the call.
    Coalitions are summed as int64 masks, so n is at most
    ``MAX_SAMPLED_SENSORS``.
    """
    n = v.n
    if n > MAX_SAMPLED_SENSORS:
        raise ValueError(f"sampled_shapley refuses n={n} > {MAX_SAMPLED_SENSORS}")
    i = _sensor(i, n)
    permutations = operator.index(permutations)
    if permutations < 1:
        raise ValueError("need at least one permutation")
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    table = None
    if isinstance(v, GaussianValueFunction) and 1 << n <= max(
        _KEPT_COALITIONS, _TABLE_PER_PERMUTATION * permutations
    ):
        table = _values(v, x)
    else:
        cache: dict[int, float] = {0: 0.0}
        trusted = Coalition._trusted

        def val(mask: int) -> float:
            got = cache.get(mask)
            if got is None:
                got = cache[mask] = v(trusted(mask, n), x)
            return got

    bit = 1 << i
    powers = 1 << np.arange(n, dtype=np.int64)
    total = 0.0
    for lo in range(0, permutations, _PERMUTATION_BLOCK):
        rows = min(_PERMUTATION_BLOCK, permutations - lo)
        perms = rng.permuted(np.broadcast_to(np.arange(n), (rows, n)), axis=1)
        before = np.cumsum(perms == i, axis=1) == 0  # the sensors ahead of i
        preds = np.where(before, powers[perms], 0).sum(axis=1)
        if table is not None:
            # added left to right as the memo loop adds; np.sum would change the bits
            diffs = table[preds | bit] - table[preds]
            total = reduce(operator.add, diffs.tolist(), total)
        else:
            for pred in preds.tolist():
                total += val(pred | bit) - val(pred)
    return total / permutations
