"""Monte Carlo comparison of the Shapley score against the single-term score.

Each trial draws one clean observation, attacks it with the configured
probability, and scores the sensor under test two ways: the exact Shapley
value phi(x_i) of the Gaussian anomaly score, and the single marginal term
v({i}, x).  Thresholds are then optimized per statistic on the same paired
trials, so their error rates are directly comparable.

Both statistics read a trial only through d = x - mean, so trials are
drawn as d and no result depends on the mean.  phi_i(x) is exactly
C + d^T A d (``gaussian_shapley_form``), built once per model and sensor,
so the harness never builds the 2^n coalition table.  A chunk of at most
2^14 trials takes two matrix products, (n, n) @ (n, w), its trials rounded
up to a multiple of 2^10 columns w with the unused ones zeroed.  BLAS
rounds by shape, but every such w gives a column the bits of the
2^14-column product, so a run's trials score the same bits as the first
trials of any longer run.  The single term repeats the coalition kernel's
arithmetic for {i} bit for bit.  Scores that overflow become infinite
without a warning.

A chunk is one block of 2^14 trials, the last one short.  Trial j reads
entry j mod 2^14 of three SFC64 streams, seeded by
``SeedSequence(seed, spawn_key=(j // 2^14, role))``: its label uniform,
its n ziggurat normals and its attack offsets.  So results depend on
neither the order the chunks run in nor the number of workers.

The trial chunks, the four class sorts and the fine threshold counts run
in ``_run_all``: the calling thread takes them from one shared iterator
beside the workers of one thread pool per process, one per usable CPU but
one.  ``_simulate_classes`` takes each chunk's scores straight into
reserved class slices of one (2, trials) array, attacked trials from the
front and clean ones from the back, then sorts the four classes in place.
Each thread keeps two scratch buffers for its lifetime, (n + t) x 2^14 and
n x 2^14 doubles for t attacked sensors, which a chunk's scores are views
of; no view leaves this module.  Workers write results only into arrays
the calling thread allocated, because freed worker temporaries stay
resident in glibc's per-thread heaps.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .attacks import AttackSpec, draw_offsets
from .gaussian import _LOG_2PI, GaussianModel
from .shapley import gaussian_shapley_form

Z_95 = 1.96
# clean cuts per threshold-count block, the unit of work of the fine pass
_COUNT_BLOCK = 1 << 14
# trials per stream block, which is also a chunk: trial j draws entry
# j mod _STREAM_BLOCK of the generators of block j // _STREAM_BLOCK, one per
# role, so changing it changes every trial.  BLAS picks its kernel, and so
# its rounding, by the shapes, so a chunk's two matrix products span its
# trials rounded up to a multiple of _WIDTH_STEP columns: every such width
# gives the columns of the _STREAM_BLOCK-column product bit for bit, which
# widths of 1, 4 or 300 columns did not
_STREAM_BLOCK = 1 << 14
_WIDTH_STEP = 1 << 10
_LABELS, _NORMALS, _OFFSETS = range(3)
# clean cuts per block of the coarse threshold pass, and the fewest that
# the fine pass counts at once
_COARSE_STEP = 64
_FINE_PIECE = 1 << 10


def _new_pool() -> ThreadPoolExecutor | None:
    """A pool with one worker per usable CPU but one, or None on one CPU.

    The calling thread of ``_run_all`` is the last CPU's worker.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return ThreadPoolExecutor(cpus - 1, "shaploc") if cpus > 1 else None


# threads start on first use, not at import
_POOL = _new_pool()


def _rebuild_pool() -> None:
    # a forked child inherits the pool's state but not its threads: work
    # queued on the inherited pool would wait forever
    global _POOL
    _POOL = _new_pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_rebuild_pool)


def _run_all(fn, items) -> None:
    """Call ``fn`` on every item, in the calling thread and the pool's workers.

    The caller and at most one helper per pool worker take the items one
    at a time from one shared iterator until none are left.  Every call
    has finished when this returns or raises; the first exception, in item
    order, is raised.  The caller drains the items itself and cancels the
    helpers that never started, so an ``fn`` that calls ``_run_all`` never
    waits for a busy worker.
    """
    todo = enumerate(items)
    lock = threading.Lock()
    failed = {}

    def drain() -> None:
        while True:
            with lock:
                k, item = next(todo, (-1, None))
            if k < 0:
                return
            try:
                fn(item)
            except Exception as exc:  # raised by the caller, after every call
                failed[k] = exc

    pool = _POOL
    helpers = [] if pool is None else [
        pool.submit(drain) for _ in range(min(pool._max_workers, len(items) - 1))
    ]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.cancel()
        wait(helpers)
    for helper in helpers:
        if not helper.cancelled():
            helper.result()
    if failed:
        raise failed[min(failed)]


class DegenerateLabelsError(ValueError):
    """Threshold optimization needs at least one trial of each class."""


@dataclass(frozen=True)
class GridSpec:
    """Equally spaced threshold grid (the fine-grid search mode)."""

    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", operator.index(self.steps))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("grid bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError("grid needs lo < hi")
        if self.steps < 2:
            raise ValueError("grid needs at least 2 steps")


@dataclass(frozen=True)
class ExperimentConfig:
    model: GaussianModel
    attack: AttackSpec
    sensor_under_test: int = 0
    trials: int = 100_000
    attack_prior: float = 0.5
    seed: int = 0
    threshold_mode: GridSpec | str = "exact"  # "exact" or a GridSpec

    def __post_init__(self) -> None:
        # a float count, index or seed would fail deep inside numpy or be truncated
        for name in ("sensor_under_test", "trials", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.trials < 1:
            raise ValueError("trials: need at least one trial")
        if not 0.0 < self.attack_prior < 1.0:
            raise ValueError("attack_prior: must lie strictly inside (0, 1)")
        if not 0 <= self.seed < 1 << 128:
            raise ValueError("seed must lie in [0, 2**128)")
        if not 0 <= self.sensor_under_test < self.model.n:
            raise ValueError(
                f"sensor under test {self.sensor_under_test} out of range"
            )
        if self.attack.targets.n != self.model.n:
            raise ValueError("attack universe does not match the model")
        mode = self.threshold_mode
        if not (isinstance(mode, GridSpec) or (isinstance(mode, str) and mode == "exact")):
            raise ValueError(f"threshold_mode: unknown threshold mode {mode!r}")


@dataclass(frozen=True)
class ErrorRateReport:
    statistic: str          # "shapley" or "single-term"
    threshold: float
    pe: float
    ci_halfwidth: float
    trials: int


def binomial_ci(pe: float, m: int) -> float:
    """95% normal-approximation half-width for an empirical proportion."""
    if not 0.0 <= pe <= 1.0:
        raise ValueError("pe must lie in [0, 1]")
    if m < 1:
        raise ValueError("need at least one trial")
    return Z_95 * math.sqrt(pe * (1.0 - pe) / m)


# ----------------------------------------------------------------------
# trial simulation


def _block_generator(seed: int, block: int, role: int) -> np.random.Generator:
    """The generator of one role's draws for the trials of one stream block."""
    seeds = np.random.SeedSequence(seed, spawn_key=(block, role))
    return np.random.Generator(np.random.SFC64(seeds))


# the two scratch buffers each thread that simulates chunks keeps
_KEPT = threading.local()
_NO_BUFFER = np.empty((0, _STREAM_BLOCK))


def _chunk_buffers(stride: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two scratch arrays of at least stride and n rows of _STREAM_BLOCK doubles.

    They are the buffers this thread keeps for its lifetime, grown to the
    widest model it has simulated, so a chunk reuses pages that are
    already resident.  The contents are left over from the thread's last
    chunk.
    """
    wide, narrow = getattr(_KEPT, "buffers", (_NO_BUFFER, _NO_BUFFER))
    if len(wide) < stride:
        wide = np.empty((stride, _STREAM_BLOCK))
    if len(narrow) < n:
        narrow = np.empty((n, _STREAM_BLOCK))
    _KEPT.buffers = wide, narrow
    return wide, narrow


def _chunk_deviations(
    config: ExperimentConfig, block: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(deviations d = x - mean, attacked labels, spare) of one stream block.

    The block holds the run's trials from block * _STREAM_BLOCK on, at most
    _STREAM_BLOCK of them, and they take the first entries of the block's
    generators.  The deviations are sensor-major, n rows of the count
    rounded up to a multiple of _WIDTH_STEP, with the block's trials in the
    first count columns and zeros after them.  They live in this thread's
    scratch, as does the spare buffer of at least n + t rows of
    _STREAM_BLOCK, t being the number of targets; both are overwritten by
    the thread's next chunk.  The labels are the caller's, one per trial.
    A trial is attacked when its label uniform lies below the prior.  Each
    target's offset, finite by ``AttackSpec``'s checks, is added as
    ``attacked * offset``, so a clean trial adds a zero.
    """
    model = config.model
    n = model.n
    attack = config.attack
    t = len(attack.targets)
    count = min(_STREAM_BLOCK, config.trials - block * _STREAM_BLOCK)
    wide, narrow = _chunk_buffers(n + t, n)
    labels = wide[0, :count]
    _block_generator(config.seed, block, _LABELS).random(out=labels)
    attacked = labels < config.attack_prior
    # trial-major normals in the first n rows, over the spent uniforms, and
    # zeros in the unused trials up to the product's width
    width = -(-count // _WIDTH_STEP) * _WIDTH_STEP
    z = wide[:n].reshape(_STREAM_BLOCK, n)[:width]
    _block_generator(config.seed, block, _NORMALS).standard_normal(out=z[:count])
    z[count:] = 0.0
    # a constant offset draws nothing, so its block builds no generator
    rng = None if attack.constant else _block_generator(config.seed, block, _OFFSETS)
    offsets = draw_offsets(attack, rng, wide[n:].reshape(-1)[: count * t].reshape(count, t))
    # sensor-major, so the attack and the scoring run over contiguous rows
    d = np.matmul(model.chol, z.T, out=narrow[:n, :width])
    shift = wide[0, :count]  # the normals are spent
    for col, j in enumerate(attack.targets):
        np.multiply(attacked, offsets[:, col], out=shift)
        d[j, :count] += shift
    return d, attacked, wide


@lru_cache(maxsize=8)
def _scoring_form(model: GaussianModel, i: int):
    """(C, A, 0.5 / var_i, 0.5 ln(2 pi var_i)) of sensor i.

    phi_i = C + d^T A d, evaluated as C plus the row-by-row sum of
    (A @ d) * d.  The single-term factors are computed as the coalition
    kernel computes them for {i}.  The cache keeps the last few models
    alive.
    """
    c, a = gaussian_shapley_form(model, i)
    var = model.cov[i, i]
    return c, a, 0.5 / var, 0.5 * (_LOG_2PI + np.log(var))


def _simulate_chunk(
    config: ExperimentConfig, block: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi_scores, v_scores, attacked labels) of the trials of one stream block.

    The scores are views of this thread's scratch, overwritten by its next
    chunk; the labels are the caller's.  Both matrix products span the
    block's trials rounded up to a multiple of _WIDTH_STEP columns, and
    the rest is elementwise over trials in an order fixed by n, so a
    short last block scores the bits of the same trials in a longer run.
    Scores that overflow become infinite without a warning.
    """
    with np.errstate(over="ignore"):
        d, attacked, spare = _chunk_deviations(config, block)
        count = attacked.size
        n, i = config.model.n, config.sensor_under_test
        c, a, half_precision, half_log_var = _scoring_form(config.model, i)
        # the spare's first n rows take A @ d over the spent normals, and phi
        # is summed into the first of them; v takes the row after them
        g = np.matmul(a, d, out=spare[:n, : d.shape[1]])[:, :count]
        g *= d[:, :count]
        phi = g[0]
        for row in g[1:]:
            phi += row
        phi += c
        v = np.multiply(d[i, :count], d[i, :count], out=spare[n, :count])
        v *= half_precision
        v += half_log_var
    return phi, v, attacked


def _simulate_classes(config: ExperimentConfig) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """[sorted attacked scores, sorted clean scores] of phi, and of v.

    The classes are views of one (2, trials) array, phi's row and v's.
    Each chunk's worker reserves, under one lock, its attacked columns from
    the front of the array and its clean columns from the back, and takes
    its scores straight into them.  When every chunk is done the two
    cursors meet at the split, the attacked trials before it and the clean
    ones after.  Where a chunk's columns lie depends on the order in which
    the chunks finished, but the classes are sorted before anything counts
    them.
    """
    m = config.trials
    scores = np.empty((2, m))
    front, back = 0, m  # the attacked class grows from the front, the clean from the back
    lock = threading.Lock()
    # build the form here, so the workers find it cached
    _scoring_form(config.model, config.sensor_under_test)

    def run(block: int) -> None:
        nonlocal front, back
        phi, v, attacked = _simulate_chunk(config, block)
        attacked_at = np.flatnonzero(attacked)
        clean_at = np.flatnonzero(np.logical_not(attacked))
        with lock:
            a, front = front, front + attacked_at.size
            back -= clean_at.size
            c = back
        for at, lo in ((attacked_at, a), (clean_at, c)):
            phi.take(at, out=scores[0, lo : lo + at.size])
            v.take(at, out=scores[1, lo : lo + at.size])

    _run_all(run, range(-(-m // _STREAM_BLOCK)))
    if front != back:
        raise RuntimeError(f"the class cursors did not meet: {front} != {back}")
    if front in (0, m):
        raise DegenerateLabelsError("threshold optimization needs both classes")
    classes = [part for row in scores for part in (row[:front], row[front:])]
    _run_all(np.ndarray.sort, classes)
    return classes[:2], classes[2:]


# ----------------------------------------------------------------------
# threshold optimization


def _exact_threshold(att: np.ndarray, clean: np.ndarray) -> tuple[float, float]:
    """(tau, pe) minimizing the error over all midpoints of sorted distinct scores.

    ``att`` and ``clean`` are the two classes, each sorted.  Scores above
    tau are declared attacked.  The error count rises across every
    attacked score and falls only across a clean one, so the smallest
    minimizing cut lies below every score or just above the last copy of a
    clean value w, where the errors are #attacked <= w plus #clean > w.
    Only the cuts that a coarse pass cannot rule out are counted.
    """
    n_clean = clean.size
    total = att.size + n_clean

    def cut_errors(lo: int, hi: int, step: int = 1) -> np.ndarray:
        # errors at every step-th clean score w from the lo-th to before the
        # hi-th: #attacked <= w, plus the n_clean - 1 - k clean scores above
        # the k-th.  Every attacked score at or below the first w counts for
        # all of them, and none above the last w counts for any, so only the
        # attacked scores in between are searched
        keys = clean[lo:hi:step]
        below, upto = att.searchsorted(keys[[0, -1]], "right")
        errors = att[below:upto].searchsorted(keys, "right")
        errors += np.arange(n_clean - 1 - lo + below, n_clean - 1 - hi + below, -step)
        return errors

    # the fine pass counts a piece of cuts at a time, so each thread's
    # scratch, two intp arrays of a piece, is 16 KiB, or 1/64 of the
    # clean class's bytes beyond 2^17 clean scores
    piece_size = max(_FINE_PIECE, n_clean // 128)

    # coarse pass: the errors at the first cut of every block of
    # _COARSE_STEP cuts; their minimum is an attained error count
    coarse = cut_errors(0, n_clean, _COARSE_STEP)
    # #attacked <= w never falls, so no cut of a block errs fewer times than
    # its first cut less the block's other cuts: every minimizing cut, the
    # smallest included, lies in a block this bound cannot rule out
    kept = coarse <= coarse.min() + (_COARSE_STEP - 1)
    first = int(np.argmax(kept)) * _COARSE_STEP
    stop = min((kept.size - int(np.argmax(kept[::-1]))) * _COARSE_STEP, n_clean)
    del coarse, kept  # freed before the fine pass allocates its scratch
    # fine pass over the span from the first kept block to the last, a
    # count block per item; a span of one block starts no helper
    blocks = range(first, stop, _COUNT_BLOCK)
    found = np.empty((len(blocks), 2), dtype=np.intp)

    def count(b: int) -> None:
        # (fewest errors, the first cut with that many) over the block's cuts
        lo, hi = blocks[b], min(blocks[b] + _COUNT_BLOCK, stop)
        least, best = n_clean + 1, lo
        for piece in range(lo, hi, piece_size):
            errors = cut_errors(piece, min(piece + piece_size, hi))
            k = int(np.argmin(errors))
            if errors[k] < least:
                least, best = int(errors[k]), piece + k
            del errors  # freed before the next piece's scratch is allocated
        found[b] = least, best

    _run_all(count, range(len(blocks)))
    least, best = map(int, found[np.argmin(found[:, 0])])
    if least >= n_clean:  # the cut below every score errs n_clean times
        return -math.inf, n_clean / total
    a = least - (n_clean - 1 - best)  # attacked scores at or below w
    above = np.concatenate((clean[best + 1 : best + 2], att[a : a + 1]))
    if not above.size:
        return math.inf, least / total
    w, nearest = float(clean[best]), float(above.min())
    tau = 0.5 * (w + nearest)
    # no score lies strictly between w and the nearest score above it, so w
    # itself is the cut wherever the midpoint is not below that score: when
    # it is +inf, when the sum overflows, or when the two are adjacent floats
    return (tau if tau < nearest else w), least / total


def _grid_threshold(
    att: np.ndarray, clean: np.ndarray, lo: float, hi: float, steps: int
) -> tuple[float, float]:
    """(tau, pe) minimizing the error over an equally spaced grid, on sorted classes."""
    taus = np.linspace(lo, hi, steps)
    # errors less the constant #clean: misses minus clean scores at or below tau
    errors = np.searchsorted(att, taus, "right") - np.searchsorted(clean, taus, "right")
    best = int(np.argmin(errors))  # ties -> smallest threshold
    return float(taus[best]), int(errors[best] + clean.size) / (att.size + clean.size)


def run_experiment(
    config: ExperimentConfig,
) -> tuple[ErrorRateReport, ErrorRateReport]:
    """(shapley report, single-term report) over the configured trials."""
    m = config.trials
    reports = []
    for statistic, (att, clean) in zip(("shapley", "single-term"), _simulate_classes(config)):
        if isinstance(config.threshold_mode, GridSpec):
            g = config.threshold_mode
            tau, pe = _grid_threshold(att, clean, g.lo, g.hi, g.steps)
        else:
            tau, pe = _exact_threshold(att, clean)
        reports.append(ErrorRateReport(statistic, tau, pe, binomial_ci(pe, m), m))
    return reports[0], reports[1]


# ----------------------------------------------------------------------
# analytic oracle


def analytic_pe_gaussian(sigma: float, am: float, attack_prior: float = 0.5) -> float:
    """Minimum error probability of the single-term test under a type-A attack.

    The single term v({i}, x) = -ln f_i(x_i) reads d = x_i - mu_i alone,
    whatever the other sensors and their correlations: d ~ N(0, sigma^2)
    clean and N(am, sigma^2) when sensor i is attacked.  Thresholding v is
    thresholding |d|, so the error probability is a function of the cut t.
    Its derivative has the sign of p e^(-am^2 / 2 sigma^2) cosh(t am / sigma^2)
    - (1 - p), which rises with t: with L = ln((1 - p) / p) + am^2 / 2 sigma^2,
    the minimum lies at t = sigma^2 / |am| acosh(e^L) when am != 0 and L > 0,
    taken in the log domain so that a tiny sigma does not overflow, and at
    t = 0, where the error is 1 - p, otherwise.  With am = 0 it is min(p, 1 - p).
    """
    if not (0 < sigma < math.inf and math.isfinite(am)):
        raise ValueError("sigma must be positive and finite, and am finite")
    p = attack_prior
    if not 0.0 < p < 1.0:
        raise ValueError("attack prior must lie strictly inside (0, 1)")
    odds, snr = math.log((1.0 - p) / p), abs(am) / sigma
    if snr == 0.0:
        return min(p, 1.0 - p)
    level = odds + 0.5 * snr * snr
    if level <= 0.0:
        return 1.0 - p
    # sigma^2 / |am| acosh(e^L), with the am^2 / 2 sigma^2 of L taken out
    t = 0.5 * abs(am) + sigma / snr * (odds + math.log1p(math.sqrt(-math.expm1(-2.0 * level))))

    def ndtr(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    false_alarm = 2.0 * (1.0 - ndtr(t / sigma))
    miss = ndtr((t - am) / sigma) - ndtr((-t - am) / sigma)
    return (1.0 - p) * false_alarm + p * miss
