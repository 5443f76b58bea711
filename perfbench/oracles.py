"""Independent oracles for the benchmark's outputs.

Nothing here calls shaploc: the references come from scipy alone, so a
defect in the package cannot also hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

# A Monte Carlo error rate is accepted within this many standard errors of
# the closed form.  The package's 95% interval (1.96 standard errors) would
# reject a correct run on one row in twenty; at 5 the chance is ~6e-7 per row.
PE_Z = 5.0
EXPLAIN_TOL = 1e-9


def single_term_pe(sigma: float, am: float, prior: float = 0.5) -> float:
    """Minimum error of thresholding -ln N(x; 0, sigma^2) against a +am shift.

    The score is increasing in |x|, so the test is |x| > t; the error is
    minimised over t with scipy's bounded scalar search.
    """
    norm = stats.norm(0.0, sigma)

    def pe(t: float) -> float:
        false_alarm = 2.0 * norm.sf(t)
        miss = norm.cdf(t - am) - norm.cdf(-t - am)
        return (1.0 - prior) * false_alarm + prior * miss

    hi = abs(am) + 10.0 * sigma
    res = optimize.minimize_scalar(pe, bounds=(0.0, hi), method="bounded",
                                   options={"xatol": 1e-10})
    return float(res.fun)


def pe_tolerance(pe: float, trials: int) -> float:
    return PE_Z * math.sqrt(pe * (1.0 - pe) / trials)


def neg_joint_logpdf(x, cov) -> float:
    """-ln N(x; 0, cov), which the Shapley values of x must sum to."""
    return float(-stats.multivariate_normal.logpdf(x, np.zeros(len(x)), cov))


def neg_single_logpdfs(x, cov) -> np.ndarray:
    """-ln N(x_i; 0, cov_ii) for every sensor i."""
    return -stats.norm.logpdf(x, 0.0, np.sqrt(np.diag(cov)))
