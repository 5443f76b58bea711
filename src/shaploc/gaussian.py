"""Multivariate Gaussian sensor model and the negative-log-density score.

The model describes the joint distribution of the *unattacked* sensor
readings.  Its anomaly score for a coalition S of sensors is
``-ln f_S(x_S)``, the negative log of the Gaussian marginal restricted to
the sensors in S: large when the readings are improbable under the clean
model, small when they are typical.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .coalitions import Coalition

# Exact coalition enumeration is capped well below anything a desk machine
# can chew through; the model shares the cap so its factor tables stay bounded.
MAX_SENSORS = 24

_LOG_2PI = math.log(2.0 * math.pi)

# observations per tile of the coalition-value kernel are chosen so each of
# its two scratch buffers stays within this many doubles (cache-sized)
_TILE_ELEMENTS = 1 << 18


class NotPositiveDefiniteError(ValueError):
    """Covariance admits no Cholesky factorization (degenerate model)."""


class DimensionMismatchError(ValueError):
    """Mean/covariance/observation dimensions disagree."""


def check_observation(values, n: int) -> np.ndarray:
    """Validate a raw observation vector: length n, all entries finite."""
    x = np.asarray(values, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatchError(f"observation has shape {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("observation contains non-finite entries")
    return x


def _check_rows(xs, n: int) -> np.ndarray:
    """Validate a batch of observations: shape (m, n), all entries finite."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != n:
        raise DimensionMismatchError(f"observations have shape {xs.shape}, expected (m, {n})")
    if not np.all(np.isfinite(xs)):
        raise ValueError("observations contain non-finite entries")
    return xs


class GaussianModel:
    """Immutable N-sensor Gaussian model with cached factorizations.

    Parameters
    ----------
    mean : array_like, shape (n,)
        Mean reading of each sensor.
    cov : array_like, shape (n, n)
        Covariance of the readings; must be symmetric positive definite.
    """

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        n = mean.shape[0]
        if mean.ndim != 1 or cov.shape != (n, n):
            raise DimensionMismatchError(
                f"mean has shape {mean.shape} but covariance has shape {cov.shape}"
            )
        if n == 0:
            raise DimensionMismatchError("model needs at least one sensor")
        if n > MAX_SENSORS:
            raise DimensionMismatchError(
                f"{n} sensors exceeds the supported maximum of {MAX_SENSORS}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean/covariance contain non-finite entries")
        scale = np.max(np.abs(cov))
        if not np.allclose(cov, cov.T, rtol=1e-12, atol=1e-12 * max(scale, 1.0)):
            raise ValueError("covariance is not symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                "covariance is not positive definite"
            ) from exc

        self._n = n
        self._mean = mean
        self._cov = cov
        self._chol = chol
        for arr in (self._mean, self._cov, self._chol):
            arr.setflags(write=False)
        self._cov_rows = cov.tolist()  # Python floats for the one-coalition path

    @property
    def n(self) -> int:
        return self._n

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @property
    def cov(self) -> np.ndarray:
        return self._cov

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the full covariance."""
        return self._chol

    def __repr__(self) -> str:
        return f"GaussianModel(n={self._n})"

    # ------------------------------------------------------------------
    # sampling

    def sample(self, rng, size: int | None = None) -> np.ndarray:
        """Draw from the joint pdf: mean + L z with z iid standard normal.

        Returns shape (n,) when ``size`` is None, else (size, n).
        """
        if size is None:
            z = rng.standard_normal(self._n)
            return self._mean + self._chol @ z
        z = rng.standard_normal((size, self._n))
        return self._mean + z @ self._chol.T

    # ------------------------------------------------------------------
    # marginal densities

    def _score(self, s: Coalition, x) -> float:
        """-ln f_S(x_S) for one observation ``x`` of all n sensors.

        The chain rule runs along the members of S in increasing order with
        exactly the arithmetic of ``_chain_factors`` and
        ``coalition_values``, so a coalition scores the same bits either way.
        """
        d = (check_observation(x, self._n) - self._mean).tolist()
        if s.n != self._n:
            raise DimensionMismatchError(
                f"coalition universe {s.n} does not match model with {self._n} sensors"
            )
        if not s:
            raise ValueError("marginal density of the empty coalition is undefined")
        idx = tuple(s)
        # lower triangle of the members' covariance, conditioned on each
        # member in turn; the kernel never reads the upper one either
        cond = [[self._cov_rows[a][b] for b in idx[: i + 1]] for i, a in enumerate(idx)]
        res = [d[j] for j in idx]
        pivots, squares = [], []
        for k, (row, e) in enumerate(zip(cond, res)):
            pivot = row[k]
            pivots.append(pivot)
            squares.append(e * e * (0.5 / pivot))
            for a in range(k + 1, len(idx)):
                gamma = cond[a][k] / pivot
                res[a] = res[a] - gamma * e
                for b in range(k + 1, a + 1):
                    cond[a][b] = cond[a][b] - gamma * cond[b][k]
        score = 0.0
        for square, half_log_var in zip(squares, (0.5 * (_LOG_2PI + np.log(pivots))).tolist()):
            score = score + (square + half_log_var)
        return score

    def marginal_log_density(self, s: Coalition, x) -> float:
        """ln f_S(x_S) for the Gaussian marginal over the sensors in S."""
        return -self._score(s, x)

    # ------------------------------------------------------------------
    # every coalition at once, by the chain rule

    @cached_property
    def _chain_factors(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-sensor factors of the chain-rule kernel, about 3 * 2^n doubles.

        Coalition ``2^k + t`` (highest sensor k, t a mask over sensors below
        k) scores v(t) - ln f(x_k | x_t) = v(t) + 0.5 ln(2 pi c) + 0.5 e^2 / c,
        with c = Var(x_k | x_t) and e the residual of x_k given x_t.  Entry k
        holds, for every t < 2^k, ``half_log_var`` = 0.5 ln(2 pi c) and
        ``half_precision`` = 0.5 / c, shape (2^k, 1), and ``gamma``, shape
        (n-k-1, 2^k, 1): adding k to t updates the residual of each higher
        sensor j by e_{j|t+k} = e_{j|t} - gamma[j-k-1, t] e_{k|t}.

        All come from one Schur-complement recursion: ``cond[t]`` is the
        conditional covariance of sensors k..n-1 given x_t.
        """
        n = self._n
        factors = []
        cond = self._cov[None].copy()
        for k in range(n):
            pivot = cond[:, :1, 0]
            gamma = cond[:, 1:, 0] / pivot
            factors.append((
                0.5 * (_LOG_2PI + np.log(pivot)),
                0.5 / pivot,
                np.ascontiguousarray(gamma.T)[:, :, None],
            ))
            rest = cond[:, 1:, 1:]
            cond = np.concatenate((rest, rest - gamma[:, :, None] * cond[:, None, 1:, 0]))
        return factors

    def coalition_values(self, xs) -> np.ndarray:
        """Anomaly scores of every coalition for every observation.

        ``xs`` has shape (m, n); the result has shape (2^n, m) and row
        ``mask`` holds -ln f_S(x_S) for the coalition with that bit mask
        (row 0, the empty coalition, is 0).  Every operation is elementwise
        over observations, so a column's values do not depend on m.
        """
        xs = _check_rows(xs, self._n)
        n = self._n
        m = xs.shape[0]
        factors = self._chain_factors
        values = np.empty((1 << n, m))
        values[0] = 0.0
        d = (xs - self._mean).T
        # a residual block takes at most 2^(n-1) * width doubles; two
        # buffers take turns across steps and tiles
        width = max(1, min(m, _TILE_ELEMENTS >> n))
        buffers = np.empty((2, width << n >> 1))
        for lo in range(0, m, width):
            cols = slice(lo, lo + width)
            # grow the residual block one sensor at a time: before step k,
            # res[j - k, t] is the residual of sensor j >= k given mask t < 2^k
            res = d[:, None, cols].copy()
            for k in range(n):
                half_log_var, half_precision, gamma = factors[k]
                shape = (n - k - 1, 2 << k, res.shape[2])
                grown = buffers[k % 2, : math.prod(shape)].reshape(shape)
                grown[:, : 1 << k] = res[1:]
                np.multiply(gamma, res[0], out=grown[:, 1 << k :])
                np.subtract(res[1:], grown[:, 1 << k :], out=grown[:, 1 << k :])
                # sensor k's residuals are spent: turn them into its score
                # terms while they are in cache
                term = res[0]
                term *= term
                term *= half_precision
                term += half_log_var
                np.add(values[: 1 << k, cols], term, out=values[1 << k : 2 << k, cols])
                res = grown
        return values

    # ------------------------------------------------------------------
    # anomaly score

    def value(self, s: Coalition, x) -> float:
        """Anomaly score -ln f_S(x_S); zero on the empty coalition."""
        if not s:
            return 0.0
        return self._score(s, x)


class GaussianValueFunction:
    """Coalition score backed by a Gaussian model, for the Shapley engine."""

    def __init__(self, model: GaussianModel):
        self.model = model
        self.n = model.n

    def __call__(self, s: Coalition, x) -> float:
        return self.model.value(s, x)
