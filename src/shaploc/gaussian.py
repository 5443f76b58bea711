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

# the most sensors a model takes, and the most the Shapley engine enumerates
# exactly: 2^24 coalitions, so the factor tables and coalition tables stay bounded
MAX_SENSORS = 24

_LOG_2PI = math.log(2.0 * math.pi)


class NotPositiveDefiniteError(ValueError):
    """Covariance admits no Cholesky factorization (degenerate model)."""


class DimensionMismatchError(ValueError):
    """Mean/covariance/observation dimensions disagree."""


def check_observation(values, n: int) -> np.ndarray:
    """Validate a raw observation vector: length n, all entries finite."""
    x = np.asarray(values, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatchError(f"observation has shape {x.shape}, expected ({n},)")
    if not np.isfinite(x).all():
        raise ValueError("observation contains non-finite entries")
    return x


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
    # anomaly score

    def value(self, s: Coalition, x) -> float:
        """Anomaly score -ln f_S(x_S) for one observation ``x`` of all n sensors.

        Zero on the empty coalition.  Otherwise the chain rule runs along
        the members of S in increasing order with exactly the arithmetic of
        ``_chain_factors`` and ``coalition_values``, so a coalition scores
        the same bits either way.
        """
        if not s:
            return 0.0
        d = (check_observation(x, self._n) - self._mean).tolist()
        if s.n != self._n:
            raise DimensionMismatchError(
                f"coalition universe {s.n} does not match model with {self._n} sensors"
            )
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

    # ------------------------------------------------------------------
    # every coalition at once, by the chain rule

    @cached_property
    def _chain_factors(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Factors of the chain-rule kernel, about 3 * 2^n doubles.

        Coalition ``2^k + t`` (highest sensor k, t a mask over sensors below
        k) scores v(t) - ln f(x_k | x_t) = v(t) + 0.5 ln(2 pi c) + 0.5 e^2 / c,
        with c = Var(x_k | x_t) and e the residual of x_k given x_t.  Row
        ``2^k + t`` of ``half_log_var`` holds 0.5 ln(2 pi c) and that of
        ``half_precision`` 0.5 / c, both of shape (2^n, 1) with a zero row 0.
        ``gammas[k]``, shape (n-k-1, 2^k, 1), updates the residuals: adding
        k to t gives each higher sensor j the residual
        e_{j|t+k} = e_{j|t} - gammas[k][j-k-1, t] e_{k|t}.

        All come from one Schur-complement recursion: ``cond[t]`` is the
        conditional covariance of sensors k..n-1 given x_t.
        """
        n = self._n
        half_log_var = np.zeros((1 << n, 1))
        half_precision = np.zeros((1 << n, 1))
        gammas = []
        cond = self._cov[None].copy()
        for k in range(n):
            pivot = cond[:, :1, 0]
            gamma = cond[:, 1:, 0] / pivot
            half_log_var[1 << k : 2 << k] = 0.5 * (_LOG_2PI + np.log(pivot))
            half_precision[1 << k : 2 << k] = 0.5 / pivot
            gammas.append(np.ascontiguousarray(gamma.T)[:, :, None])
            rest = cond[:, 1:, 1:]
            cond = np.concatenate((rest, rest - gamma[:, :, None] * cond[:, None, 1:, 0]))
        return half_log_var, half_precision, gammas

    def coalition_values(self, x) -> np.ndarray:
        """Anomaly scores of every coalition for one observation.

        ``x`` has shape (n,); the result has shape (2^n,) and entry ``mask``
        holds -ln f_S(x_S) for the coalition with that bit mask (entry 0,
        the empty coalition, is 0).
        """
        n = self._n
        half_log_var, half_precision, gammas = self._chain_factors
        # a trailing axis of length 1 lines the table up with the factors
        values = np.empty((1 << n, 1))
        values[0] = 0.0
        # grow the residual block one sensor at a time: before step k,
        # res[j - k, t] is the residual of sensor j >= k given mask t < 2^k;
        # sensor k's residuals are parked in the rows of its coalitions.
        # A block takes at most 2^(n-1) doubles, and two buffers take turns
        res = (check_observation(x, n) - self._mean)[:, None, None]
        buffers = np.empty((2, 1 << n >> 1))
        for k in range(n - 1):
            half = 1 << k
            own, rest = res[0], res[1:]
            values[half : 2 * half] = own
            res = buffers[k % 2][: 2 * rest.size].reshape(n - k - 1, 2 * half, 1)
            res[:, :half] = rest
            new = res[:, half:]
            np.multiply(gammas[k], own, out=new)
            np.subtract(rest, new, out=new)
        values[1 << (n - 1) :] = res[0]
        # then turn them into score terms, each added to the score of its
        # coalition without the highest sensor
        terms = values[1:]
        terms *= terms
        terms *= half_precision[1:]
        terms += half_log_var[1:]
        for k in range(n):
            values[1 << k : 2 << k] += values[: 1 << k]
        return values[:, 0]


class GaussianValueFunction:
    """Coalition score backed by a Gaussian model, for the Shapley engine."""

    def __init__(self, model: GaussianModel):
        self.model = model
        self.n = model.n

    def __call__(self, s: Coalition, x) -> float:
        return self.model.value(s, x)
