import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import multivariate_normal

from shaploc import (
    Coalition,
    DimensionMismatchError,
    GaussianModel,
    NotPositiveDefiniteError,
    check_observation,
)


def biv(sigma1, sigma2, rho, mean=(0.0, 0.0)):
    c = rho * sigma1 * sigma2
    return GaussianModel(mean, [[sigma1**2, c], [c, sigma2**2]])


class ZeroRng:
    """Stub stream: standard normal draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


# ----------------------------------------------------------------------
# construction


def test_valid_independent_model():
    m = GaussianModel([0, 0], [[4, 0], [0, 4]])
    assert m.n == 2
    assert np.allclose(m.chol, np.diag([2.0, 2.0]))


def test_valid_correlated_model():
    m = biv(2.0, 2.0, 0.8)
    assert np.allclose(m.cov, [[4, 3.2], [3.2, 4]])


def test_singular_covariance_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        GaussianModel([0, 0], [[1, 1], [1, 1]])


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        GaussianModel([0, 0, 0], [[1, 0], [0, 1]])


def test_asymmetric_covariance_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianModel([0, 0], [[1, 0.3], [0.2, 1]])


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        GaussianModel([0, np.nan], np.eye(2))
    with pytest.raises(ValueError):
        check_observation([1.0, np.inf], 2)


def test_model_is_immutable():
    m = biv(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        m.mean[0] = 5.0
    with pytest.raises(ValueError):
        m.cov[0, 0] = 5.0


# ----------------------------------------------------------------------
# sampling


def test_zero_noise_returns_mean():
    m = GaussianModel([5.0, 7.0], np.eye(2))
    assert np.array_equal(m.sample(ZeroRng()), [5.0, 7.0])


def test_sample_mean_within_standard_error():
    m = GaussianModel([0, 0], [[4, 0], [0, 4]])
    draws = m.sample(np.random.default_rng(1), size=10**6)
    # SE of the mean is 2/1000 per component
    assert np.all(np.abs(draws.mean(axis=0)) < 3 * (2 / 1000))


def test_sample_correlation_matches_model():
    m = biv(1.0, 1.0, 0.5)
    draws = m.sample(np.random.default_rng(2), size=10**6)
    corr = np.corrcoef(draws.T)[0, 1]
    assert abs(corr - 0.5) < 0.005


def test_sample_covariance_within_four_se():
    m = biv(2.0, 1.5, -0.4, mean=(1.0, -2.0))
    n = 10**6
    draws = m.sample(np.random.default_rng(3), size=n)
    emp_mean = draws.mean(axis=0)
    emp_cov = np.cov(draws.T)
    se_mean = np.sqrt(np.diag(m.cov) / n)
    assert np.all(np.abs(emp_mean - m.mean) < 4 * se_mean)
    # var(sample cov_ij) ~ (cov_ii*cov_jj + cov_ij^2)/n
    se_cov = np.sqrt(
        (np.outer(np.diag(m.cov), np.diag(m.cov)) + m.cov**2) / n
    )
    assert np.all(np.abs(emp_cov - m.cov) < 4 * se_cov)


# ----------------------------------------------------------------------
# log densities, as the negated score


def test_standard_normal_at_mode():
    m = GaussianModel([0.0], [[1.0]])
    got = -m.value(Coalition.of([0], 1), [0.0])
    assert got == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_independence_factorization():
    m = GaussianModel([1.0, -2.0], [[4, 0], [0, 9]])
    x = [0.3, 0.7]
    joint = -m.value(Coalition.of([0, 1], 2), x)
    parts = sum(-m.value(Coalition.of([i], 2), x) for i in range(2))
    assert joint == pytest.approx(parts, abs=1e-12)


def test_correlated_joint_at_origin():
    m = biv(1.0, 1.0, 0.5)
    got = -m.value(Coalition.of([0, 1], 2), [0.0, 0.0])
    assert got == pytest.approx(-math.log(2 * math.pi * math.sqrt(0.75)), abs=1e-12)


def test_quadrature_marginalization_consistency():
    m = biv(1.3, 0.8, 0.6, mean=(0.5, -1.0))

    def joint(x1, x2):
        return math.exp(-m.value(Coalition.of([0, 1], 2), [x1, x2]))

    s1 = Coalition.of([0], 2)
    lo, hi = -1.0 - 6 * 0.8, -1.0 + 6 * 0.8
    for x1 in np.linspace(0.5 - 2 * 1.3, 0.5 + 2 * 1.3, 10):
        integrated, _ = quad(lambda x2: joint(x1, x2), lo, hi)
        direct = math.exp(-m.value(s1, [x1, 0.0]))
        assert integrated == pytest.approx(direct, rel=1e-6)


# ----------------------------------------------------------------------
# anomaly score


def test_value_empty_coalition_is_zero():
    m = biv(1.0, 1.0, 0.0)
    assert m.value(Coalition(0, 2), [3.0, 4.0]) == 0.0


def test_value_negates_log_density():
    m = GaussianModel([0.0], [[1.0]])
    assert m.value(Coalition.of([0], 1), [0.0]) == pytest.approx(
        0.5 * math.log(2 * math.pi), abs=1e-12
    )


def test_value_additive_under_independence():
    rng = np.random.default_rng(5)
    m = GaussianModel(rng.normal(size=4), np.diag(rng.uniform(0.5, 3.0, 4)))
    x = rng.normal(size=4)
    for _ in range(20):
        members = rng.permutation(4)
        cut = rng.integers(1, 4)
        s = Coalition.of(members[:cut], 4)
        t = Coalition.of(members[cut:], 4)
        union = Coalition(s.bits | t.bits, 4)
        assert m.value(union, x) == pytest.approx(
            m.value(s, x) + m.value(t, x), abs=1e-10
        )


def test_value_monotone_in_density():
    m = biv(1.0, 2.0, 0.4)
    s = Coalition.of([0, 1], 2)
    rng = np.random.default_rng(6)
    pts = rng.normal(scale=3.0, size=(30, 2))
    dens = multivariate_normal(m.mean, m.cov).logpdf(pts)
    vals = [m.value(s, p) for p in pts]
    for i in range(30):
        for j in range(30):
            if dens[i] > dens[j]:
                assert vals[i] < vals[j]


# ----------------------------------------------------------------------
# every coalition at once


def random_spd(n, rng):
    a = rng.normal(size=(n, n))
    return a @ a.T / n + np.eye(n)


def scalar_values(m, x):
    """Oracle: one scalar score per coalition of one observation."""
    return np.array([m.value(Coalition(mask, m.n), x) for mask in range(1 << m.n)])


def test_coalition_values_match_scalar_marginals():
    rng = np.random.default_rng(30)
    for n in range(1, 10):
        m = GaussianModel(rng.normal(scale=2.0, size=n), random_spd(n, rng))
        for x in m.mean + 3.0 * rng.normal(size=(4, n)):
            got = m.coalition_values(x)
            assert got.shape == (1 << n,)
            assert got[0] == 0.0
            assert np.allclose(got, scalar_values(m, x), rtol=1e-12, atol=0.0)


def test_coalition_values_strongly_correlated_pair():
    for rho in (0.95, -0.95):
        cov = np.diag([1.0, 2.0, 0.5])
        cov[0, 2] = cov[2, 0] = rho * math.sqrt(cov[0, 0] * cov[2, 2])
        m = GaussianModel([1.0, -2.0, 0.5], cov)
        for x in ([1.0, -2.0, 0.5], [3.0, 0.0, -1.0], [-0.5, -2.5, 2.0]):
            assert np.allclose(m.coalition_values(x), scalar_values(m, x), rtol=1e-12, atol=0.0)


def test_one_coalition_scores_equal_the_table():
    rng = np.random.default_rng(32)
    m = GaussianModel(rng.normal(size=6), random_spd(6, rng))
    for x in m.sample(rng, size=5) * 2.0:
        assert np.array_equal(scalar_values(m, x), m.coalition_values(x))


def test_batch_inputs_validated():
    m = biv(1.0, 1.0, 0.3)
    # one observation of shape (n,) only: a batch of one or more is refused
    for bad in (np.zeros(3), np.zeros((1, 2)), np.zeros((4, 2)), np.zeros((0, 2)), np.zeros(())):
        with pytest.raises(DimensionMismatchError):
            m.coalition_values(bad)
    with pytest.raises(ValueError):
        m.coalition_values([np.nan, 0.0])


def test_cached_marginal_still_checks_universe():
    m = GaussianModel(np.zeros(3), np.eye(3))
    m.value(Coalition(1, 3), np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        m.value(Coalition(1, 5), np.zeros(3))
