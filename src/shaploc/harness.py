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

Randomness is counter-based: trial j always reads the same slots of a
Philox stream keyed by the experiment seed, so results are reproducible
trial by trial and independent of execution order.  Every chunk size, a
chunk of one trial included, gives each trial the same bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .attacks import AttackSpec, offsets_from_uniforms
from .gaussian import _LOG_2PI, GaussianModel
from .shapley import gaussian_shapley_form

Z_95 = 1.96


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
            raise ValueError("seed must lie in [0, 2**128), the Philox key range")
        if not 0 <= self.sensor_under_test < self.model.n:
            raise ValueError(
                f"sensor under test {self.sensor_under_test} out of range"
            )
        if self.attack.targets.n != self.model.n:
            raise ValueError("attack universe does not match the model")
        if isinstance(self.threshold_mode, str) and self.threshold_mode != "exact":
            raise ValueError(f"unknown threshold mode {self.threshold_mode!r}")


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


def _slot_count(config: ExperimentConfig) -> tuple[int, int]:
    """(used slots, padded stride) of uniforms per trial.

    Layout: slot 0 decides attacked/clean, slots 1..n seed the clean draw,
    then one slot per target sensor for the attack offset.  The stride is
    padded to a multiple of 4 because the Philox counter advances in
    four-draw blocks.
    """
    k = 1 + config.model.n + len(config.attack.targets)
    return k, -(-k // 4) * 4


def _trial_uniforms(seed: int, stride: int, start: int, count: int) -> np.ndarray:
    bg = np.random.Philox(key=seed)
    bg.advance(start * stride // 4)
    return np.random.Generator(bg).random((count, stride))


def _trial_observations(
    config: ExperimentConfig, start: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """(observations, attacked labels) for trials start..start+count-1."""
    model = config.model
    n = model.n
    k, stride = _slot_count(config)
    u = _trial_uniforms(config.seed, stride, start, count)

    attacked = u[:, 0] < config.attack_prior
    z = ndtri(np.clip(u[:, 1 : 1 + n], 1e-300, 1.0))
    # a one-row product would take BLAS's matrix-vector path, which rounds
    # differently from the matrix-matrix path of larger chunks: run two rows
    if count == 1:
        z = np.concatenate((z, z))
    xs = model.mean + (z @ model.chol.T)[:count]

    targets = tuple(config.attack.targets)
    offsets = offsets_from_uniforms(config.attack, u[:, 1 + n : k])
    for col, j in enumerate(targets):
        xs[attacked, j] += offsets[attacked, col]
    return xs, attacked


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
    config: ExperimentConfig, start: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi_scores, v_scores, attacked labels) for trials start..start+count-1.

    Scoring is elementwise over trials, in an order fixed by n, so a
    trial's scores do not depend on the chunk.
    """
    xs, attacked = _trial_observations(config, start, count)
    i = config.sensor_under_test
    c, u, half_precision, half_log_var = _scoring_form(config.model, i)
    d = np.ascontiguousarray((xs - config.model.mean).T)
    phi = np.zeros(count)
    row = np.empty(count)
    term = np.empty(count)
    for a, coeffs in enumerate(u):
        np.multiply(d[a], coeffs[a], out=row)
        for b in range(a + 1, len(u)):
            np.multiply(d[b], coeffs[b], out=term)
            row += term
        row *= d[a]
        phi += row
    phi += c
    return phi, 0.0 + (d[i] * d[i] * half_precision + half_log_var), attacked


def simulate_scores(
    config: ExperimentConfig, chunk: int = 1 << 17
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All trial scores and labels, computed in deterministic chunks."""
    if chunk < 1:
        raise ValueError("chunk must hold at least one trial")
    phis, vs, labels = [], [], []
    for start in range(0, config.trials, chunk):
        count = min(chunk, config.trials - start)
        p, v, a = _simulate_chunk(config, start, count)
        phis.append(p)
        vs.append(v)
        labels.append(a)
    return np.concatenate(phis), np.concatenate(vs), np.concatenate(labels)


# ----------------------------------------------------------------------
# threshold optimization


def _error_curve(scores: np.ndarray, labels: np.ndarray):
    """(sorted scores, per-cut error counts).

    Cut position c means "the c smallest scores are declared clean"; the
    decision rule is score > threshold.  errors[c] counts misses among the
    first c plus false alarms among the rest.
    """
    m = scores.size
    if m == 0:
        raise DegenerateLabelsError("no trials to optimize over")
    n_att = int(np.count_nonzero(labels))
    if n_att == 0 or n_att == m:
        raise DegenerateLabelsError("threshold optimization needs both classes")
    # any order of tied scores will do: both optimizers cut only between
    # distinct values
    order = np.argsort(scores)
    s = scores[order]
    att_below = np.concatenate(([0], np.cumsum(labels[order])))
    clean_below = np.arange(m + 1) - att_below
    return s, att_below + ((m - n_att) - clean_below)


def _optimize_exact(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(tau, pe) minimizing the error over all midpoints of sorted distinct scores."""
    s, errors = _error_curve(scores, labels)
    m = scores.size
    # candidate cuts: below all scores, between distinct neighbours, above all
    distinct = np.flatnonzero(s[1:] > s[:-1]) + 1
    cuts = np.concatenate(([0], distinct, [m]))
    best = int(cuts[int(np.argmin(errors[cuts]))])  # ties -> smallest threshold
    if best == 0:
        tau = -math.inf
    elif best == m:
        tau = math.inf
    else:
        tau = 0.5 * (s[best - 1] + s[best])
    return float(tau), float(errors[best] / m)


def _optimize_grid(scores, labels, lo: float, hi: float, steps: int) -> tuple[float, float]:
    """(tau, pe) minimizing the error over an equally spaced grid."""
    s, errors = _error_curve(scores, labels)
    taus = np.linspace(lo, hi, steps)
    cuts = np.searchsorted(s, taus, side="right")
    best_idx = int(np.argmin(errors[cuts]))  # ties -> smallest threshold
    return float(taus[best_idx]), float(errors[cuts[best_idx]] / scores.size)


def run_experiment(
    config: ExperimentConfig,
) -> tuple[ErrorRateReport, ErrorRateReport]:
    """(shapley report, single-term report) over the configured trials."""
    phi, v, labels = simulate_scores(config)
    reports = []
    for statistic, scores in (("shapley", phi), ("single-term", v)):
        if isinstance(config.threshold_mode, GridSpec):
            g = config.threshold_mode
            tau, pe = _optimize_grid(scores, labels, g.lo, g.hi, g.steps)
        else:
            tau, pe = _optimize_exact(scores, labels)
        ci = binomial_ci(pe, scores.size)
        reports.append(ErrorRateReport(statistic, tau, pe, ci, scores.size))
    return reports[0], reports[1]


# ----------------------------------------------------------------------
# analytic oracle


def analytic_pe_gaussian(sigma: float, am: float, attack_prior: float = 0.5) -> float:
    """Minimum error probability of the single-term test, zero-mean type-A case.

    With x ~ N(0, sigma^2) clean and N(am, sigma^2) attacked, thresholding
    v(x) = -ln f(x) is equivalent to thresholding |x|, so the error
    probability reduces to a one-dimensional function of the cut t,
    minimized here by golden-section search.
    """
    if not (0 < sigma < math.inf and math.isfinite(am)):
        raise ValueError("sigma must be positive and finite, and am finite")
    p = attack_prior
    if not 0.0 < p < 1.0:
        raise ValueError("attack prior must lie strictly inside (0, 1)")

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
