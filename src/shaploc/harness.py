"""Monte Carlo comparison of the Shapley score against the single-term score.

Each trial draws one clean observation, attacks it with the configured
probability, and scores the sensor under test two ways: the exact Shapley
value phi(x_i) of the Gaussian anomaly score, and the single marginal term
v({i}, x).  Thresholds are then optimized per statistic on the same paired
trials, so their error rates are directly comparable.

The harness scores one sensor on many trials of one model, so it never
builds the 2^n coalition table.  For the Gaussian score, phi_i(x) is
exactly C + d^T A d with d = x - mean, where C and A depend only on the
model and the sensor (see ``gaussian_shapley_form``).  The form is built
once per model and sensor, and each trial then costs O(n^2).  The single
term repeats the coalition kernel's arithmetic for {i}, so it equals the
kernel's score bit for bit.  The explanation API (``all_shapley`` and
friends) scores arbitrary observations and stays on the kernel.

Randomness is keyed by block: trial j reads entry j mod 2^14 of three
SFC64 streams, seeded by ``SeedSequence(seed, spawn_key=(j // 2^14,
role))``, one each for its label uniform, its n standard normals (numpy's
ziggurat) and its attack offsets.  Results are reproducible trial by trial
and independent of execution order: every chunk size, a chunk of one trial
included, gives each trial the same bits.

``run_experiment`` works class-major and never holds a label array.  The
calling thread allocates one (2, trials) array, a row for phi and one for
v.  Each chunk's worker reserves, under one lock, its attacked columns
from the front of the array and its clean columns from the back, and
takes its phi and v scores straight into them.  When every chunk is done
the two cursors meet, each row holds its attacked class before the split
and its clean class after it, and the four classes are sorted in place.
Thresholds depend only on the sorted classes, so they equal those of the
trial-order scores and labels that ``simulate_scores`` returns, whatever
order the chunks finished in, and both paths score their chunks with
``_simulate_chunk``.

Trial chunks, the four class sorts and the fine threshold counts of a
span longer than one count block run on one thread pool per process,
sized by the CPUs this process may run on; numpy releases the
interpreter lock in that work.  Each thread that simulates chunks (a
pool worker, or the calling thread where there is no pool) keeps two
scratch buffers for its lifetime, of 2^14 x max(n + t, 4) and 2^14 x n
doubles, t being the number of attacked sensors: the label uniforms,
then the Cholesky product with the attack offsets behind it, then each
target's injected offset and the scoring rows and the two scores in the
first, the normals and then the sensor-major observations in the
second.  So a chunk reuses resident pages instead of faulting in fresh
arrays, and a thread holds at most (max(n + t, 4) + n) x 2^14 doubles
of the widest model it has simulated, 9 MiB at n = 24 with 24 targets.  No
view of them leaves the chunk path: every array handed to a caller is
its own.  Workers write their results only into arrays the calling
thread allocated, because freed worker temporaries stay resident in
glibc's per-thread heaps, so a worker-allocated result would raise peak
RSS even where the traced peak does not rise.  Results do not depend on
the number of workers.
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
# the units of work a pool worker takes: trials per generation chunk, also
# the size of its scratch, and clean cuts per threshold-count block
_TRIAL_CHUNK = 1 << 14
_COUNT_BLOCK = 1 << 14
# part of the definition of the trial stream, not a unit of work: trial j
# draws from the generators of block j // _STREAM_BLOCK, one per role, so
# changing it changes every trial, and a chunk of any size, _TRIAL_CHUNK
# included, gives each trial the same bits
_STREAM_BLOCK = 1 << 14
_LABELS, _NORMALS, _OFFSETS = range(3)
# clean cuts per block of the coarse threshold pass, and the fewest that
# the fine pass counts at once
_COARSE_STEP = 64
_FINE_PIECE = 1 << 10


def _new_pool() -> ThreadPoolExecutor | None:
    """A pool with one worker per usable CPU, or None on one CPU."""
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(workers, "shaploc") if workers > 1 else None


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
    """Call ``fn`` on every item, on the pool when there is one.

    Every call has finished when this returns or raises; the first
    exception, in item order, is raised.
    """
    pool = _POOL
    if pool is None:
        for item in items:
            fn(item)
        return
    futures = [pool.submit(fn, item) for item in items]
    wait(futures)
    for future in futures:
        future.result()


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
            raise ValueError("need at least one trial")
        if not 0.0 < self.attack_prior < 1.0:
            raise ValueError("attack prior must lie strictly inside (0, 1)")
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
            raise ValueError(f"unknown threshold mode {mode!r}")


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


class _TrialStream:
    """One role's draws for trials start..start+count-1, in trial order.

    ``random`` and ``standard_normal`` fill a C-contiguous ``out`` whose
    first axis is the chunk's trials, k values a trial.  Trial j's values
    are entry j mod _STREAM_BLOCK, k draws an entry, of the generator for
    this role of block j // _STREAM_BLOCK.  A block's generator is built
    only when something is drawn, and a chunk that starts inside a block
    draws the block's prefix and drops it, so every chunk gives each trial
    the same bits.
    """

    def __init__(self, seed: int, role: int, start: int, count: int) -> None:
        self._seed, self._role, self._start, self._count = seed, role, start, count

    def random(self, out: np.ndarray) -> None:
        self._fill("random", out)

    def standard_normal(self, out: np.ndarray) -> None:
        self._fill("standard_normal", out)

    def _fill(self, method: str, out: np.ndarray) -> None:
        per_trial = out.size // self._count
        start, stop = self._start, self._start + self._count
        for block in range(start // _STREAM_BLOCK, -(-stop // _STREAM_BLOCK)):
            first = block * _STREAM_BLOCK
            lo, hi = max(start, first), min(stop, first + _STREAM_BLOCK)
            seeds = np.random.SeedSequence(self._seed, spawn_key=(block, self._role))
            draw = getattr(np.random.Generator(np.random.SFC64(seeds)), method)
            if lo > first:
                draw((lo - first) * per_trial)
            draw(out=out[lo - start : hi - start])


# the two scratch buffers each thread that simulates chunks keeps
_KEPT = threading.local()
_NO_BUFFER = np.empty(0)


def _chunk_buffers(rows: int, stride: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two flat scratch arrays of at least rows * stride and rows * n doubles.

    Up to a chunk's rows they are the buffers this thread keeps for its
    lifetime, grown to a chunk of the widest model it has simulated, so a
    chunk reuses pages that are already resident.  Larger requests get
    fresh arrays.  The contents are left over from the thread's last chunk.
    """
    if rows > _TRIAL_CHUNK:
        return np.empty(rows * stride), np.empty(rows * n)
    wide, narrow = getattr(_KEPT, "buffers", (_NO_BUFFER, _NO_BUFFER))
    if wide.size < rows * stride:
        wide = np.empty(_TRIAL_CHUNK * stride)
    if narrow.size < rows * n:
        narrow = np.empty(_TRIAL_CHUNK * n)
    _KEPT.buffers = wide, narrow
    return wide, narrow


def _chunk_observations(
    config: ExperimentConfig, start: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(observations, attacked labels, spare) for trials start..start+count-1.

    The observations are sensor-major, (n, count), and live in this
    thread's scratch, as does the flat spare buffer of at least 4 * count
    doubles; both are overwritten by the thread's next chunk.  The labels
    are the caller's.  A trial is attacked when its label uniform lies
    below the prior.  Each target's offset, finite by ``AttackSpec``'s
    checks, is injected as ``attacked * offset``, so a clean trial adds a
    zero, which can change only the sign of a zero observation and leaves
    ``x - mean`` bit for bit the same.
    """
    model = config.model
    n = model.n
    targets = config.attack.targets
    t = len(targets)
    # a one-row product would take BLAS's matrix-vector path, which rounds
    # differently from the matrix-matrix path of larger chunks: run two rows
    rows = max(count, 2)
    wide, narrow = _chunk_buffers(rows, max(n + t, 4), n)
    labels = wide[:count]
    _TrialStream(config.seed, _LABELS, start, count).random(out=labels)
    attacked = labels < config.attack_prior
    z = narrow[: rows * n].reshape(rows, n)
    _TrialStream(config.seed, _NORMALS, start, count).standard_normal(out=z[:count])
    z[count:] = z[:1]
    # the offsets sit behind the product, which may overwrite the label uniforms
    offsets = draw_offsets(
        config.attack,
        _TrialStream(config.seed, _OFFSETS, start, count),
        wide[rows * n : rows * n + count * t].reshape(count, t),
    )
    product = np.matmul(z, model.chol.T, out=wide[: rows * n].reshape(rows, n))
    # sensor-major, so the mean, the attack and the scoring run over contiguous rows
    xs = narrow[: n * count].reshape(n, count)
    xs[...] = product[:count].T
    xs += model.mean[:, None]
    shift = wide[:count]  # the product is spent
    for col, j in enumerate(targets):
        np.multiply(attacked, offsets[:, col], out=shift)
        xs[j] += shift
    return xs, attacked, wide


def _trial_observations(
    config: ExperimentConfig, start: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """(observations, attacked labels) for trials start..start+count-1."""
    xs, attacked, _ = _chunk_observations(config, start, count)
    return xs.copy().T, attacked


@lru_cache(maxsize=8)
def _scoring_form(model: GaussianModel, i: int):
    """(C, coefficients u, 0.5 / var_i, 0.5 ln(2 pi var_i)) of sensor i.

    phi_i = C + sum over a <= b of u[a][b] d_a d_b.  The single-term
    factors are computed as the coalition kernel computes them for {i}.
    The cache keeps the last few models alive.
    """
    c, a = gaussian_shapley_form(model, i)
    u = a + a.T
    np.fill_diagonal(u, np.diag(a))
    var = model.cov[i, i]
    return c, u.tolist(), 0.5 / var, 0.5 * (_LOG_2PI + np.log(var))


def _simulate_chunk(
    config: ExperimentConfig, start: int, count: int, reserve=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(phi_scores, v_scores, attacked labels) for trials start..start+count-1.

    The scores are new arrays in trial order.  Given ``reserve``, the chunk
    instead calls ``reserve(attacked, clean)`` with its two class counts,
    takes each class's phi and v scores, in trial order, into the
    (2, attacked) and (2, clean) arrays it returns, and returns nothing.
    Scoring is elementwise over trials, in an order fixed by n, so a
    trial's scores do not depend on the chunk.
    """
    d, attacked, spare = _chunk_observations(config, start, count)
    d -= config.model.mean[:, None]
    i = config.sensor_under_test
    c, u, half_precision, half_log_var = _scoring_form(config.model, i)
    # the spare's first 4 * count doubles: two rows of scratch, then the scores
    row, term, phi, v = spare[: 4 * count].reshape(4, count)
    phi[...] = 0.0
    for a, coeffs in enumerate(u):
        np.multiply(d[a], coeffs[a], out=row)
        for b in range(a + 1, len(u)):
            np.multiply(d[b], coeffs[b], out=term)
            row += term
        row *= d[a]
        phi += row
    phi += c
    np.multiply(d[i], d[i], out=v)
    v *= half_precision
    v += half_log_var
    if reserve is None:
        return phi.copy(), v.copy(), attacked
    attacked_at = np.flatnonzero(attacked)
    clean_at = np.flatnonzero(np.logical_not(attacked))
    for at, dst in zip((attacked_at, clean_at), reserve(attacked_at.size, clean_at.size)):
        phi.take(at, out=dst[0])
        v.take(at, out=dst[1])
    return None


def simulate_scores(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All trial scores and labels in trial order, computed in deterministic chunks."""
    chunk = _TRIAL_CHUNK
    m = config.trials
    phi, v, labels = np.empty(m), np.empty(m), np.empty(m, dtype=bool)
    # build the form here, so the workers find it cached
    _scoring_form(config.model, config.sensor_under_test)

    def fill(start: int) -> None:
        stop = min(start + chunk, m)
        phi[start:stop], v[start:stop], labels[start:stop] = _simulate_chunk(
            config, start, stop - start
        )

    _run_all(fill, range(0, m, chunk))
    return phi, v, labels


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
    chunk = _TRIAL_CHUNK
    m = config.trials
    scores = np.empty((2, m))
    front, back = 0, m  # the attacked class grows from the front, the clean from the back
    lock = threading.Lock()
    _scoring_form(config.model, config.sensor_under_test)

    def reserve(attacked: int, clean: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal front, back
        with lock:
            a, front = front, front + attacked
            back -= clean
            c = back
        return scores[:, a : a + attacked], scores[:, c : c + clean]

    def fill(start: int) -> None:
        _simulate_chunk(config, start, min(chunk, m - start), reserve)

    _run_all(fill, range(0, m, chunk))
    if front != back:
        raise RuntimeError(f"the class cursors did not meet: {front} != {back}")
    classes = [part for row in scores for part in (row[:front], row[front:])]
    _sort_classes(classes)
    return classes[:2], classes[2:]


# ----------------------------------------------------------------------
# threshold optimization


def _sort_classes(classes) -> None:
    """Sort every class in place, side by side; none may be empty."""
    if any(c.size == 0 for c in classes):
        raise DegenerateLabelsError("threshold optimization needs both classes")
    _run_all(np.ndarray.sort, classes)


def _split_sorted(scores: np.ndarray, labels: np.ndarray):
    """(sorted attacked scores, sorted clean scores); both classes must occur."""
    classes = (
        scores.take(np.flatnonzero(labels)),
        scores.take(np.flatnonzero(np.logical_not(labels))),
    )
    _sort_classes(classes)
    return classes


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

    def least_errors(lo: int, hi: int) -> tuple[int, int]:
        # (fewest errors, the first cut with that many) over cuts lo..hi-1
        least, best = n_clean + 1, lo
        for piece in range(lo, hi, piece_size):
            errors = cut_errors(piece, min(piece + piece_size, hi))
            k = int(np.argmin(errors))
            if errors[k] < least:
                least, best = int(errors[k]), piece + k
            del errors  # freed before the next piece's scratch is allocated
        return least, best

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
    # fine pass over the span from the first kept block to the last
    blocks = range(first, stop, _COUNT_BLOCK)
    if len(blocks) > 1:
        found = np.empty((len(blocks), 2), dtype=np.intp)

        def count(b: int) -> None:
            found[b] = least_errors(blocks[b], min(blocks[b] + _COUNT_BLOCK, stop))

        _run_all(count, range(len(blocks)))
        least, best = map(int, found[np.argmin(found[:, 0])])
    else:
        least, best = least_errors(first, stop)
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


def _optimize_exact(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """``_exact_threshold`` over the classes of trial-order scores and labels."""
    return _exact_threshold(*_split_sorted(scores, labels))


def _optimize_grid(scores, labels, lo: float, hi: float, steps: int) -> tuple[float, float]:
    """``_grid_threshold`` over the classes of trial-order scores and labels."""
    return _grid_threshold(*_split_sorted(scores, labels), lo, hi, steps)


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
    thresholding |d|, so the error probability reduces to a one-dimensional
    function of the cut t, minimized here by golden-section search.
    """
    if not (0 < sigma < math.inf and math.isfinite(am)):
        raise ValueError("sigma must be positive and finite, and am finite")
    p = attack_prior
    if not 0.0 < p < 1.0:
        raise ValueError("attack prior must lie strictly inside (0, 1)")

    def ndtr(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    def pe(t: float) -> float:
        false_alarm = 2.0 * (1.0 - ndtr(t / sigma))
        miss = ndtr((t - am) / sigma) - ndtr((-t - am) / sigma)
        return (1.0 - p) * false_alarm + p * miss

    lo, hi = 0.0, abs(am) + 8.0 * sigma
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = pe(c), pe(d)
    while b - a > 1e-10:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = pe(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = pe(d)
    return pe(0.5 * (a + b))
