import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from shaploc import (
    AdditiveValueFunction,
    Coalition,
    EmptyKeptSetError,
    GaussianModel,
    GaussianValueFunction,
    UniverseTooLargeError,
    all_shapley,
    exact_shapley,
    sampled_shapley,
    shapley_from_values,
    shapley_weight,
    truncated_shapley,
)
from shaploc.shapley import gaussian_shapley_form


def brute_force_shapley(v, x, i, n):
    """Independent oracle: itertools enumeration with the textbook formula."""
    others = [j for j in range(n) if j != i]
    total = 0.0
    for size in range(n):
        for combo in itertools.combinations(others, size):
            w = (
                math.factorial(size)
                * math.factorial(n - size - 1)
                / math.factorial(n)
            )
            s = Coalition.of(combo, n)
            total += w * (v(Coalition.of(combo + (i,), n), x) - v(s, x))
    return total


class TableGame:
    """Value function backed by an explicit 2^n table."""

    def __init__(self, table):
        self.table = table
        self.n = (len(table) - 1).bit_length()

    def __call__(self, s, x=None):
        return self.table[s.bits]


def random_table_game(n, rng):
    table = rng.normal(size=1 << n)
    table[0] = 0.0
    return TableGame(table)


# ----------------------------------------------------------------------
# weights


def test_weight_small_cases():
    assert shapley_weight(0, 2) == pytest.approx(0.5)
    assert shapley_weight(1, 3) == pytest.approx(1 / 6)


def test_weight_against_comb_identity():
    # w(s, n) = 1 / (n * C(n-1, s)) is an equivalent closed form; both sides
    # round the same rational once, so they agree bit for bit
    for n in range(1, 25):
        for s in range(n):
            assert shapley_weight(s, n) == 1 / (n * math.comb(n - 1, s))


def test_weight_normalization_by_enumeration():
    for n in range(2, 11):
        total = sum(
            shapley_weight(len(combo), n)
            for size in range(n)
            for combo in itertools.combinations(range(n - 1), size)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_weight_out_of_range():
    with pytest.raises(ValueError):
        shapley_weight(2, 2)
    with pytest.raises(ValueError):
        shapley_weight(-1, 2)


# ----------------------------------------------------------------------
# exact enumeration


def test_single_player_game():
    game = TableGame(np.array([0.0, 3.5]))
    assert exact_shapley(game, None, 0) == pytest.approx(3.5)


def test_two_player_hand_expansion():
    m = GaussianModel([0, 0], [[1, 0.5], [0.5, 1]])
    vf = GaussianValueFunction(m)
    x = np.array([1.0, 2.0])

    def v(bits):
        return vf(Coalition(bits, 2), x)

    phi1 = 0.5 * (v(0b01) - v(0)) + 0.5 * (v(0b11) - v(0b10))
    assert exact_shapley(vf, x, 0) == pytest.approx(phi1, abs=1e-12)


def test_additive_game_returns_coefficients():
    game = AdditiveValueFunction([2.0, -1.0, 0.5])
    for i, a in enumerate([2.0, -1.0, 0.5]):
        assert exact_shapley(game, None, i) == pytest.approx(a, abs=1e-12)


def test_exact_matches_brute_force_on_random_games():
    rng = np.random.default_rng(10)
    for n in range(1, 7):
        game = random_table_game(n, rng)
        for i in range(n):
            assert exact_shapley(game, None, i) == pytest.approx(
                brute_force_shapley(game, None, i, n), abs=1e-10
            )


def test_universe_too_large_refused():
    class Big:
        n = 25

        def __call__(self, s, x):
            return 0.0

    with pytest.raises(UniverseTooLargeError):
        exact_shapley(Big(), None, 0)
    with pytest.raises(UniverseTooLargeError):
        all_shapley(Big(), None)


def test_sensor_index_out_of_range():
    game = AdditiveValueFunction([1.0, 2.0])
    with pytest.raises(ValueError):
        exact_shapley(game, None, 2)


# ----------------------------------------------------------------------
# all_shapley


def test_all_matches_exact_and_counts_evaluations():
    rng = np.random.default_rng(11)
    game = random_table_game(5, rng)
    res = all_shapley(game, None)
    assert res.evaluations == 2**5
    for i in range(5):
        assert res.phi[i] == pytest.approx(exact_shapley(game, None, i), abs=1e-12)


def test_independent_gaussian_phi_equals_single_term():
    rng = np.random.default_rng(12)
    for n in (2, 4, 6):
        m = GaussianModel(
            rng.normal(size=n), np.diag(rng.uniform(0.5, 3.0, n))
        )
        vf = GaussianValueFunction(m)
        x = m.sample(rng)
        res = all_shapley(vf, x)
        singles = [vf(Coalition.of([i], n), x) for i in range(n)]
        assert np.allclose(res.phi, singles, atol=1e-10)


def test_efficiency():
    rng = np.random.default_rng(13)
    for n in range(2, 7):
        game = random_table_game(n, rng)
        res = all_shapley(game, None)
        assert res.phi.sum() == pytest.approx(game.table[(1 << n) - 1], abs=1e-10)


def test_symmetry_of_exchangeable_sensors():
    # equal variances, swap-invariant covariance, equal observed values
    m = GaussianModel([0, 0, 1.0], [[1, 0.3, 0.2], [0.3, 1, 0.2], [0.2, 0.2, 2]])
    vf = GaussianValueFunction(m)
    x = np.array([0.7, 0.7, -1.2])
    res = all_shapley(vf, x)
    assert res.phi[0] == pytest.approx(res.phi[1], abs=1e-10)


def test_decision_equivalence_under_independence():
    rng = np.random.default_rng(14)
    n = 5
    m = GaussianModel(np.zeros(n), np.diag(rng.uniform(0.5, 2.0, n)))
    vf = GaussianValueFunction(m)
    x = m.sample(rng)
    phi = all_shapley(vf, x).phi
    singles = np.array([vf(Coalition.of([i], n), x) for i in range(n)])
    assert np.array_equal(np.argsort(phi), np.argsort(singles))
    # thresholds between the sorted scores, away from the float slack
    ordered = np.sort(singles)
    for tau in 0.5 * (ordered[:-1] + ordered[1:]):
        assert np.array_equal(phi > tau, singles > tau)


# ----------------------------------------------------------------------
# truncation


def test_truncation_keeping_everything_is_exact():
    rng = np.random.default_rng(15)
    game = random_table_game(4, rng)
    for i in range(4):
        assert truncated_shapley(game, None, i, lambda s: True) == pytest.approx(
            exact_shapley(game, None, i), abs=1e-12
        )


def test_truncation_to_empty_set_is_single_term():
    m = GaussianModel([0, 0], [[1, 0.5], [0.5, 1]])
    vf = GaussianValueFunction(m)
    x = np.array([0.4, -0.9])
    got = truncated_shapley(vf, x, 0, lambda s: len(s) == 0)
    assert got == pytest.approx(vf(Coalition.of([0], 2), x), abs=1e-12)


def test_truncation_invariant_for_additive_games():
    rng = np.random.default_rng(16)
    a = rng.normal(size=5)
    game = AdditiveValueFunction(a)
    for trial in range(10):
        kept_masks = set(
            int(b) for b in rng.integers(0, 1 << 5, size=rng.integers(1, 8))
        )
        kept_masks.add(0)  # ensure non-empty kept set for every i

        def keep(s):
            return s.bits in kept_masks

        for i in range(5):
            assert truncated_shapley(game, None, i, keep) == pytest.approx(
                a[i], abs=1e-12
            )


def test_truncation_empty_kept_set_raises():
    game = AdditiveValueFunction([1.0, 2.0])
    with pytest.raises(EmptyKeptSetError):
        truncated_shapley(game, None, 0, lambda s: False)


# ----------------------------------------------------------------------
# permutation sampling


def test_sampled_single_player():
    game = TableGame(np.array([0.0, 2.25]))
    rng = np.random.default_rng(17)
    assert sampled_shapley(game, None, 0, 3, rng) == pytest.approx(2.25)


def test_sampled_additive_is_exact_for_any_sample():
    game = AdditiveValueFunction([1.5, -0.5, 3.0])
    rng = np.random.default_rng(18)
    assert sampled_shapley(game, None, 1, 1, rng) == pytest.approx(-0.5, abs=1e-12)


def test_sampled_within_four_standard_errors_of_exact():
    rng = np.random.default_rng(19)
    n = 5
    cov = rng.normal(size=(n, n))
    cov = cov @ cov.T + n * np.eye(n)
    m = GaussianModel(rng.normal(size=n), cov)
    vf = GaussianValueFunction(m)
    x = m.sample(rng)
    i = 2
    exact = exact_shapley(vf, x, i)

    # estimate the per-permutation spread to scale the tolerance
    probes = [sampled_shapley(vf, x, i, 1, rng) for _ in range(200)]
    se = np.std(probes) / math.sqrt(10**5)
    got = sampled_shapley(vf, x, i, 10**5, rng)
    assert abs(got - exact) < 4 * max(se, 1e-12)


# ----------------------------------------------------------------------
# the transform on a table of values


def test_transform_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(20)
    for n in range(1, 8):
        table = rng.normal(size=(1 << n, 3))
        table[0] = 0.0
        phi = shapley_from_values(table)
        assert phi.shape == (n, 3)
        for c in range(3):
            game = TableGame(table[:, c])
            want = [brute_force_shapley(game, None, i, n) for i in range(n)]
            assert np.allclose(phi[:, c], want, atol=1e-12)
        i = int(rng.integers(n))
        assert np.array_equal(shapley_from_values(table, i), phi[i])
        assert shapley_from_values(table[:, 0]).shape == (n,)


def test_transform_sums_do_not_depend_on_batch_or_block():
    rng = np.random.default_rng(21)
    for n in (1, 2, 9):
        table = rng.normal(size=(1 << n, 40))
        whole = shapley_from_values(table)
        assert np.array_equal(shapley_from_values(table[:, ::3]), whole[:, ::3])
        for i in sorted({0, n // 2, n - 1}):
            assert np.array_equal(shapley_from_values(table[:, 5:6], i), whole[i, 5:6])
            assert np.array_equal(shapley_from_values(table[:, 3:30], i), whole[i, 3:30])
            assert np.array_equal(shapley_from_values(table[:, 7], i), whole[i, 7])


def test_transform_matches_an_exact_rational_sum():
    # a large common level cancels in every difference, so only the rounding
    # of the weights and of the sum separates the transform from the exact
    # value; the bound scales with the differences, not with the level
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 10):
        table = 1e6 + rng.normal(size=1 << n)
        exact = [Fraction(0)] * n
        for i in range(n):
            for mask in range(1 << n):
                if not mask >> i & 1:
                    s = mask.bit_count()
                    w = Fraction(math.factorial(s) * math.factorial(n - s - 1), math.factorial(n))
                    exact[i] += w * (Fraction(table[mask | 1 << i]) - Fraction(table[mask]))
        phi = shapley_from_values(table)
        err = max(abs(Fraction(p) - e) for p, e in zip(phi, exact))
        assert err <= 1e-14 * np.ptp(table)


def test_transform_rejects_bad_tables():
    for bad in (np.zeros(1), np.zeros(6), np.zeros((2, 2, 2)), np.zeros(())):
        with pytest.raises(ValueError):
            shapley_from_values(bad)
    with pytest.raises(ValueError):
        shapley_from_values(np.zeros(8), 3)


class PlainValueFunction:
    """The same Gaussian score behind a class the engine cannot recognise."""

    def __init__(self, vf):
        self.vf = vf
        self.n = vf.n

    def __call__(self, s, x):
        return self.vf(s, x)


def test_gaussian_fast_path_matches_generic_path():
    rng = np.random.default_rng(22)
    for n in (1, 2, 5, 8):
        a = rng.normal(size=(n, n))
        m = GaussianModel(rng.normal(size=n), a @ a.T / n + np.eye(n))
        fast = GaussianValueFunction(m)
        slow = PlainValueFunction(fast)
        x = m.sample(rng) + 1.5
        assert np.allclose(all_shapley(fast, x).phi, all_shapley(slow, x).phi, rtol=0, atol=1e-12)
        i = n - 1
        assert exact_shapley(fast, x, i) == pytest.approx(exact_shapley(slow, x, i), abs=1e-12)

        def keep(s):
            return len(s) <= 2

        assert truncated_shapley(fast, x, i, keep) == pytest.approx(
            truncated_shapley(slow, x, i, keep), abs=1e-12
        )


def test_gaussian_fast_path_validates_observation():
    vf = GaussianValueFunction(GaussianModel(np.zeros(3), np.eye(3)))
    with pytest.raises(ValueError):
        all_shapley(vf, np.zeros(4))
    with pytest.raises(ValueError):
        all_shapley(vf, [0.0, np.nan, 1.0])


# ----------------------------------------------------------------------
# the Gaussian Shapley value as a quadratic form


def test_form_of_independent_sensors_is_the_single_term():
    sigma = np.array([0.5, 1.0, 2.0, 3.5])
    model = GaussianModel([1.0, -2.0, 0.0, 4.0], np.diag(sigma**2))
    for i in range(4):
        c, a = gaussian_shapley_form(model, i)
        want = np.zeros((4, 4))
        want[i, i] = 0.5 / sigma[i] ** 2
        assert c == pytest.approx(0.5 * math.log(2 * math.pi * sigma[i] ** 2), rel=1e-14)
        assert np.allclose(a, want, rtol=1e-14, atol=0.0)


def test_form_of_a_correlated_pair_matches_the_inverse():
    # phi_i = v({i}) / 2 + (v({i, j}) - v({j})) / 2, written out with inv and det
    for rho, s1, s2 in ((0.8, 2.0, 2.0), (-0.5, 1.0, 3.0), (0.95, 0.3, 1.7)):
        cov = np.array([[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]])
        model = GaussianModel([0.5, -1.0], cov)
        for i, j in ((0, 1), (1, 0)):
            c, a = gaussian_shapley_form(model, i)
            ei, ej = np.eye(2)[i], np.eye(2)[j]
            want_a = 0.25 * np.outer(ei, ei) / cov[i, i] + 0.25 * (
                np.linalg.inv(cov) - np.outer(ej, ej) / cov[j, j]
            )
            log_2pi = math.log(2 * math.pi)
            want_c = 0.25 * (log_2pi + math.log(cov[i, i])) + 0.5 * (
                log_2pi + 0.5 * math.log(np.linalg.det(cov))
                - 0.5 * (log_2pi + math.log(cov[j, j]))
            )
            assert c == pytest.approx(want_c, rel=1e-13)
            assert np.allclose(a, want_a, rtol=1e-12, atol=1e-14 * np.abs(want_a).max())


def test_blocked_form_matches_the_unblocked_form(monkeypatch):
    import shaploc.shapley as shapley

    rng = np.random.default_rng(23)
    for n in (1, 3, 9):
        a = rng.normal(size=(n, n))
        model = GaussianModel(rng.normal(size=n), a @ a.T / n + 0.2 * np.eye(n))
        whole = [gaussian_shapley_form(model, i) for i in range(n)]
        monkeypatch.setattr(shapley, "_FORM_ELEMENTS", 1)
        for i, (c, a_whole) in enumerate(whole):
            c_blocked, a_blocked = gaussian_shapley_form(model, i)
            assert abs(c_blocked - c) <= 1e-13 * max(1.0, abs(c))
            assert np.all(np.abs(a_blocked - a_whole) <= 1e-13 * np.abs(a_whole).max())
        monkeypatch.undo()


def test_form_scratch_stays_within_its_budget(monkeypatch):
    import tracemalloc

    import shaploc.shapley as shapley

    n, budget = 12, 1 << 14
    rng = np.random.default_rng(24)
    a = rng.normal(size=(n, n))
    model = GaussianModel(np.zeros(n), a @ a.T / n + np.eye(n))
    monkeypatch.setattr(shapley, "_FORM_ELEMENTS", budget)
    tracemalloc.start()
    try:
        GaussianModel(model.mean, model.cov)._chain_factors  # the factor tables alone
        _, factors_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gaussian_shapley_form(model, 5)
        _, form_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # unblocked, the residual coefficients alone take about 1 MB at n = 12
    assert form_peak - factors_peak <= 8 * budget


def test_form_rejects_bad_sensor():
    model = GaussianModel(np.zeros(3), np.eye(3))
    for i in (-1, 3):
        with pytest.raises(ValueError):
            gaussian_shapley_form(model, i)
