import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from shaploc import (
    AdditiveValueFunction,
    Coalition,
    DimensionMismatchError,
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


@pytest.mark.parametrize("bad", ["short", "nan"])
def test_truncation_validates_the_observation_before_calling_keep(bad):
    n = 18
    vf = GaussianValueFunction(GaussianModel(np.zeros(n), np.eye(n)))
    x = np.zeros(n - 1) if bad == "short" else np.where(np.arange(n) == 4, np.nan, 0.0)
    calls = []

    def keep(s):
        calls.append(s)
        return True

    with pytest.raises(ValueError) as want:
        all_shapley(vf, x)
    with pytest.raises(ValueError) as got:
        truncated_shapley(vf, x, 0, keep)
    assert type(got.value) is type(want.value)
    assert (type(got.value) is DimensionMismatchError) == (bad == "short")
    assert calls == []


# ----------------------------------------------------------------------
# the coalitions handed to a predicate or a value function


class RecordingGame(TableGame):
    """A table game that records every coalition and observation it is called with."""

    def __init__(self, table):
        super().__init__(table)
        self.calls = []

    def __call__(self, s, x=None):
        self.calls.append((s, x))
        return super().__call__(s, x)


def _check_arguments(seen, masks, n):
    assert [s.bits for s in seen] == masks
    for s in seen:
        want = Coalition(s.bits, n)
        assert type(s) is Coalition and s == want and hash(s) == hash(want) and s.n == n


@pytest.fixture(params=["kept", "streamed"])
def universe(request, monkeypatch):
    """Coalitions from the kept universe, or streamed as every universe above its limit is."""
    import shaploc.shapley as shapley

    if request.param == "streamed":
        monkeypatch.setattr(shapley, "_KEPT_COALITIONS", 0)
    return request.param


def test_each_coalition_is_handed_over_once_in_mask_order(universe):
    import shaploc.shapley as shapley

    n, i = 14, 5
    assert (1 << n <= shapley._KEPT_COALITIONS) == (universe == "kept")
    game = RecordingGame(np.random.default_rng(30).normal(size=1 << n))
    x = object()
    seen = []

    def keep(s):
        seen.append(s)  # stored past the call, so must stay intact
        return len(s) <= 2

    truncated_shapley(game, x, i, keep)
    _check_arguments(seen, [m for m in range(1 << n) if not m >> i & 1], n)
    _check_arguments([s for s, _ in game.calls], list(range(1 << n)), n)
    assert all(y is x for _, y in game.calls)
    game.calls.clear()
    all_shapley(game, x)
    _check_arguments([s for s, _ in game.calls], list(range(1 << n)), n)
    _check_arguments(seen, [m for m in range(1 << n) if not m >> i & 1], n)


def test_a_kept_universe_holds_every_coalition_by_mask():
    import shaploc.shapley as shapley

    for n in range(1, 15):
        kept = shapley._universe(n)
        assert len(kept) == 1 << n
        _check_arguments(kept, list(range(1 << n)), n)
        assert shapley._universe(n) is kept


def test_every_skip_yields_its_masks_in_order(universe):
    import shaploc.shapley as shapley

    for n in range(1, 15):
        assert [s.bits for s in shapley._coalitions(n)] == list(range(1 << n))
        for skip in range(n):
            want = [m for m in range(1 << n) if not m >> skip & 1]
            assert [s.bits for s in shapley._coalitions(n, skip)] == want


def test_a_second_call_hands_out_the_same_objects():
    n, i = 14, 9
    game = RecordingGame(np.random.default_rng(34).normal(size=1 << n))
    seen = [[], []]
    for calls in seen:
        truncated_shapley(game, None, i, lambda s: calls.append(s) or len(s) <= 3)
    assert len(seen[0]) == 1 << (n - 1)
    assert all(a is b for a, b in zip(*seen))
    first = [s for s, _ in game.calls]
    game.calls.clear()
    all_shapley(game, None)
    assert all(a is b for a, (b, _) in zip(first, game.calls))


def test_a_memo_call_builds_no_universe():
    import shaploc.shapley as shapley

    n = 13  # a kept size: the few coalitions a memo call reaches are built alone
    before = shapley._universe.cache_info()
    game = random_table_game(n, np.random.default_rng(37))
    assert np.isfinite(sampled_shapley(game, None, np.int64(4), 3, np.random.default_rng(4)))
    assert shapley._universe.cache_info() == before


def test_a_universe_above_the_limit_keeps_nothing():
    import shaploc.shapley as shapley

    n = 15
    assert 1 << n > shapley._KEPT_COALITIONS
    before = shapley._universe.cache_info()
    game = random_table_game(n, np.random.default_rng(35))
    seen = [[], []]
    for calls in seen:
        truncated_shapley(game, None, 4, lambda s: calls.append(s) or len(s) <= 1)
        sampled_shapley(game, None, 4, 3, np.random.default_rng(2))
    assert shapley._universe.cache_info() == before
    assert [s.bits for s in seen[0]] == [s.bits for s in seen[1]]
    assert not any(a is b for a, b in zip(*seen))  # each call built its own


@pytest.mark.parametrize("i", [0, 17])
def test_a_streamed_universe_holds_one_coalition_at_a_time(i):
    import tracemalloc

    n = 18
    game = AdditiveValueFunction(np.ones(n))  # never called: keep rejects every coalition
    calls, most = [0], [0]  # each update frees the int it replaces

    def keep(s):
        calls[0] += 1
        most[0] = max(most[0], tracemalloc.get_traced_memory()[0])
        return False

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(EmptyKeptSetError):
            truncated_shapley(game, None, i, keep)
    finally:
        tracemalloc.stop()
    assert calls[0] == 1 << (n - 1)
    # the answers' array, one byte per coalition, and a few small objects
    assert most[0] - base <= (1 << (n - 1)) + (8 << 10)


def test_the_kept_universe_of_14_sensors_takes_at_most_2_mib():
    import tracemalloc

    import shaploc.shapley as shapley

    shapley._universe(14)  # the kept one, so the count below is the build alone
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fresh = shapley._universe.__wrapped__(14)
        size = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(fresh) == 1 << 14
    assert size <= 2 << 20


def test_a_numpy_integer_sensor_index_works_on_a_generic_game(universe):
    game = AdditiveValueFunction([1.0, 2.0, 3.0])
    for i in (np.int64(1), np.int32(1), np.intp(1)):
        assert sampled_shapley(game, None, i, 5, np.random.default_rng(3)) == 2.0
        assert exact_shapley(game, None, i) == exact_shapley(game, None, 1)
        assert truncated_shapley(game, None, i, lambda s: len(s) <= 1) == truncated_shapley(
            game, None, 1, lambda s: len(s) <= 1
        )
        assert shapley_from_values(np.arange(8.0), i) == shapley_from_values(np.arange(8.0), 1)
    assert sampled_shapley(game, None, 1, np.int64(5), np.random.default_rng(3)) == 2.0
    for bad in (1.0, np.float64(1.0), "1", None):
        with pytest.raises(TypeError):
            sampled_shapley(game, None, bad, 5, np.random.default_rng(3))
        with pytest.raises(TypeError):
            exact_shapley(game, None, bad)
    with pytest.raises(TypeError):
        sampled_shapley(game, None, 1, 5.0, np.random.default_rng(3))


def test_additive_game_adds_left_to_right_as_numpy_scalars_did():
    rng = np.random.default_rng(36)
    n = 10
    coeffs = np.concatenate((
        rng.normal(size=4) * 10.0 ** rng.integers(-300, 300, size=4),
        [0.1, 0.2, 0.3, -0.0, 1e16, -1e16],
    ))
    game = AdditiveValueFunction(coeffs)
    for mask in range(1 << n):
        s = Coalition(mask, n)
        want = float(sum(game.a[j] for j in s))  # the former per-member numpy sum
        got = game(s)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    with pytest.raises(ValueError):
        game.a[0] = 1.0  # the coefficients are fixed once the game is built
    coeffs[0] = 1.0  # and the caller's array is not theirs
    assert game.a[0] != 1.0 and game(Coalition(1, n)) == game.a[0]


def test_predicate_answers_weigh_as_their_truth_values():
    n, i = 14, 2
    game = random_table_game(n, np.random.default_rng(31))
    answers = [np.bool_(True), np.bool_(False), 1, 0, None, 2, np.int64(0), np.int64(3),
               "", "no", 0.0, float("nan"), [], [0], np.array(0.0), np.array([1])]

    def answer(s):
        return answers[s.bits % len(answers)]

    assert truncated_shapley(game, None, i, answer) == truncated_shapley(
        game, None, i, lambda s: bool(answer(s))
    )


@pytest.mark.parametrize("fail_at", [0, 700, (1 << 13) - 1])
def test_an_exception_from_user_code_propagates_unchanged(fail_at):
    n = 14
    game = random_table_game(n, np.random.default_rng(32))
    err = KeyError("stop here")
    calls = []

    def keep(s):
        calls.append(s)
        if len(calls) > fail_at:
            raise err
        return True

    with pytest.raises(KeyError) as info:
        truncated_shapley(game, None, 0, keep)
    assert info.value is err and len(calls) == fail_at + 1

    def value(s, x):
        calls.append(s)
        if len(calls) > fail_at:
            raise err
        return game(s, x)

    value.n = n
    calls.clear()
    with pytest.raises(KeyError) as info:
        all_shapley(value, None)
    assert info.value is err and len(calls) == fail_at + 1


def test_truncation_scratch_stays_within_one_block():
    import tracemalloc

    n = 18
    a = np.random.default_rng(33).normal(size=(n, n))
    vf = GaussianValueFunction(GaussianModel(np.zeros(n), a @ a.T / n + np.eye(n)))
    x = np.ones(n)
    all_shapley(vf, x)  # the model's factors and the weights are cached outside the count
    live = []

    def keep(s):
        if not s.bits & 0x3FF:
            live.append(tracemalloc.get_traced_memory()[0])
        return len(s) <= 2

    tracemalloc.start()
    try:
        truncated_shapley(vf, x, 3, keep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2^17 coalitions take about 10 MiB if built at once; the table,
    # weights and transform about 5.3 MiB
    assert max(live) <= 1 << 20
    assert peak <= 6 << 20


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


def _crossover_model():
    """An n = 15 model, above the kept range, and the permutation counts around the crossover."""
    import shaploc.shapley as shapley

    n = 15
    rng = np.random.default_rng(25)
    a = rng.normal(size=(n, n))
    model = GaussianModel(rng.normal(size=n), a @ a.T / n + np.eye(n))
    table = -(-(1 << n) // shapley._TABLE_PER_PERMUTATION)  # least count on the table
    assert table >= 2
    return model, model.sample(rng), table - 1, table


def test_sampled_reads_the_table_only_below_the_crossover(monkeypatch):
    model, x, memo, table = _crossover_model()
    vf = GaussianValueFunction(model)

    def refuse(*args):
        raise AssertionError("wrong path")

    monkeypatch.setattr(GaussianModel, "coalition_values", refuse)
    assert math.isfinite(sampled_shapley(vf, x, 4, memo, np.random.default_rng(1)))
    monkeypatch.undo()
    monkeypatch.setattr(GaussianModel, "value", refuse)
    assert math.isfinite(sampled_shapley(vf, x, 4, table, np.random.default_rng(1)))
    # in a kept universe one permutation already reads the observation's table
    rng = np.random.default_rng(26)
    kept = random_model(14, rng)
    y = kept.sample(rng)
    want = all_shapley(GaussianValueFunction(kept), y)
    monkeypatch.setattr(GaussianModel, "coalition_values", refuse)
    assert math.isfinite(sampled_shapley(GaussianValueFunction(kept), y, 4, 1, np.random.default_rng(1)))
    assert np.array_equal(all_shapley(GaussianValueFunction(kept), y).phi, want.phi)


def test_sampled_validates_the_observation_on_both_paths():
    model, x, memo, table = _crossover_model()
    vf = GaussianValueFunction(model)
    bad_length = (x[:-1], np.append(x, 0.0))
    for bad in bad_length + (np.where(np.arange(x.size) == 3, np.nan, x),
                             np.where(np.arange(x.size) == 0, -np.inf, x)):
        raised = set()
        for permutations in (memo, table):
            with pytest.raises(ValueError) as info:
                sampled_shapley(vf, bad, 0, permutations, np.random.default_rng(2))
            raised.add(type(info.value))
        assert len(raised) == 1
        assert (raised.pop() is DimensionMismatchError) == any(bad is b for b in bad_length)


# ----------------------------------------------------------------------
# the transform on a table of values


def test_transform_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(20)
    for n in range(1, 8):
        for _ in range(3):
            table = rng.normal(size=1 << n)
            table[0] = 0.0
            phi = shapley_from_values(table)
            assert phi.shape == (n,)
            game = TableGame(table)
            want = [brute_force_shapley(game, None, i, n) for i in range(n)]
            assert np.allclose(phi, want, atol=1e-12)
            i = int(rng.integers(n))
            assert shapley_from_values(table, i).shape == ()
            assert np.array_equal(shapley_from_values(table, i), phi[i])


def test_transform_of_a_strided_table_is_the_same_bits():
    rng = np.random.default_rng(21)
    for n in (1, 2, 9):
        wide = rng.normal(size=(1 << n, 40))
        for column in (wide[:, 7], wide[::-1, 3]):  # a column, and one read backwards
            contiguous = column.copy()
            assert not column.flags.c_contiguous
            assert np.array_equal(shapley_from_values(column), shapley_from_values(contiguous))
            for i in sorted({0, n // 2, n - 1}):
                assert np.array_equal(shapley_from_values(column, i), shapley_from_values(contiguous, i))


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
    # one observation's 1-D table only: a 2-D table of several is refused
    for bad in (np.zeros(1), np.zeros(6), np.zeros((2, 2, 2)), np.zeros(()),
                np.zeros((8, 1)), np.zeros((8, 3)), np.zeros((1, 8))):
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
    for i in (1.0, np.float64(1.0), "1", None):
        with pytest.raises(TypeError):
            gaussian_shapley_form(model, i)
    c, a = gaussian_shapley_form(model, np.int64(1))
    want_c, want_a = gaussian_shapley_form(model, 1)
    assert c == want_c and np.array_equal(a, want_a)


# ----------------------------------------------------------------------
# permutations drawn in blocks


def loop_sampled(val, n, i, permutations, rng):
    """The sampler as one loop: a rng.permutation(n) call and Python mask arithmetic each."""
    bit = 1 << i
    total = 0.0
    for _ in range(permutations):
        pred = 0
        for j in rng.permutation(n).tolist():
            if j == i:
                break
            pred |= 1 << j
        total += val(pred | bit) - val(pred)
    return total / permutations


def memo(v, x, n):
    """Coalition values scored through v once each, as the memo path scores them."""
    cache = {0: 0.0}

    def val(mask):
        if mask not in cache:
            cache[mask] = v(Coalition(mask, n), x)
        return cache[mask]

    return val


class MaskRecorder:
    """A value function that records the mask of every coalition it scores."""

    def __init__(self, v):
        self.v = v
        self.n = v.n
        self.masks = []

    def __call__(self, s, x):
        self.masks.append(s.bits)
        return self.v(s, x)


def random_model(n, rng):
    a = rng.normal(size=(n, n))
    return GaussianModel(rng.normal(size=n), a @ a.T / n + np.eye(n))


def _same_draws(make_game, x, n, i, permutations, seed):
    """Compare sampled_shapley with the loop on one game: bits, v calls and generator state."""
    new_game, old_game = make_game(), make_game()
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sampled_shapley(new_game, x, i, permutations, new_rng)
    if isinstance(old_game, GaussianValueFunction):
        val = old_game.model.coalition_values(x).item
    else:
        val = memo(old_game, x, n)
    want = loop_sampled(val, n, i, permutations, old_rng)
    assert type(got) is float and got.hex() == want.hex()
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    if isinstance(new_game, MaskRecorder):
        assert new_game.masks == old_game.masks


@pytest.mark.parametrize("block", [None, 3], ids=["default", "3"])
@pytest.mark.parametrize("game", ["table", "memo", "additive"])
def test_sampled_draws_as_one_permutation_call_each(monkeypatch, block, game):
    import shaploc.shapley as shapley

    if block is not None:
        monkeypatch.setattr(shapley, "_PERMUTATION_BLOCK", block)
    rng = np.random.default_rng(40)
    for n in range(1, 17):
        model = random_model(n, rng)
        x = model.sample(rng) + 1.0
        if game == "table":
            def make_game():
                return GaussianValueFunction(model)
        elif game == "memo":
            def make_game():
                return MaskRecorder(PlainValueFunction(GaussianValueFunction(model)))
        else:
            coeffs = rng.normal(size=n)

            def make_game():
                return MaskRecorder(AdditiveValueFunction(coeffs))
        for i in sorted({0, n // 2, n - 1}):
            for permutations in (1, 4, 17):  # 17: on the table up to n = 16
                if game == "table" and permutations == 17:
                    assert 1 << n <= shapley._TABLE_PER_PERMUTATION * permutations
                _same_draws(make_game, x, n, i, permutations, [n, i, permutations])


def test_sampled_refuses_more_than_62_sensors_before_drawing():
    coeffs = np.random.default_rng(41).normal(size=63)
    # at 62 sensors the masks still fit int64, and draw as the loop draws them
    for i in (0, 40, 61):
        _same_draws(lambda: MaskRecorder(AdditiveValueFunction(coeffs[:62])), None, 62, i, 50, [62, i])
    game = MaskRecorder(AdditiveValueFunction(coeffs))
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="n=63"):
        sampled_shapley(game, None, 0, 10, rng)
    assert game.masks == []
    assert rng.bit_generator.state == state


def test_sampled_refuses_anything_but_a_generator_before_drawing():
    game = RecordingGame(np.random.default_rng(42).normal(size=8))
    legacy = np.random.RandomState(5)
    state = legacy.get_state()
    for rng in (legacy, None, np.random.default_rng(5).bit_generator, 5):
        with pytest.raises(TypeError):
            sampled_shapley(game, None, 1, 10, rng)
    assert game.calls == []
    got, want = legacy.get_state(), state
    assert got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2:] == want[2:]


def test_sampling_scratch_stays_within_one_block():
    import tracemalloc

    n = 5
    vf = GaussianValueFunction(random_model(n, np.random.default_rng(43)))
    x = np.ones(n)
    sampled_shapley(vf, x, 2, 1, np.random.default_rng(1))  # factors and table, outside the count
    rng = np.random.default_rng(2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = sampled_shapley(vf, x, 2, 10**6, rng)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # all 10^6 permutations at once would take about 40 MB per int64 array
    assert math.isfinite(got)
    assert peak <= 2 << 20


# ----------------------------------------------------------------------
# one coalition table per observation


def _count_tables(monkeypatch):
    calls = []
    score = GaussianModel.coalition_values

    def counted(self, x):
        calls.append(self)
        return score(self, x)

    monkeypatch.setattr(GaussianModel, "coalition_values", counted)
    return calls


EXPLAINERS = {
    "all": lambda vf, x: all_shapley(vf, x).phi,
    "exact": lambda vf, x: exact_shapley(vf, x, 3),
    "truncated": lambda vf, x: truncated_shapley(vf, x, 3, lambda s: len(s) <= 2),
    "sampled": lambda vf, x: sampled_shapley(vf, x, 3, 200, np.random.default_rng(7)),
}


@pytest.mark.parametrize("name", sorted(EXPLAINERS))
def test_truncated_and_sampled_values_reuse_the_last_table(monkeypatch, name):
    """Whichever explainer scores an observation first, every later one reads its table."""
    calls = _count_tables(monkeypatch)
    rng = np.random.default_rng(44)
    model = random_model(14, rng)
    vf, x = GaussianValueFunction(model), model.sample(rng)
    first = EXPLAINERS[name](vf, x)
    assert len(calls) == 1
    for other in sorted(EXPLAINERS):
        EXPLAINERS[other](GaussianValueFunction(model), list(x))  # any wrapper, any equal x
    assert np.array_equal(EXPLAINERS[name](vf, x.copy()), first)
    assert len(calls) == 1
    with pytest.raises(DimensionMismatchError):  # a kept table skips no check
        EXPLAINERS[name](vf, x[:-1])
    with pytest.raises(ValueError):
        EXPLAINERS[name](vf, np.where(np.arange(14) == 2, np.nan, x))


def test_a_new_observation_model_or_large_universe_scores_again(monkeypatch):
    import shaploc.shapley as shapley

    calls = _count_tables(monkeypatch)
    rng = np.random.default_rng(45)
    model = random_model(14, rng)
    x = model.sample(rng)
    all_shapley(GaussianValueFunction(model), x)
    EXPLAINERS["truncated"](GaussianValueFunction(model), x + 1.0)
    twin = GaussianModel(model.mean, model.cov)
    EXPLAINERS["sampled"](GaussianValueFunction(twin), x + 1.0)
    assert calls == [model, model, twin]

    big = random_model(15, rng)
    assert 1 << big.n > shapley._KEPT_COALITIONS
    y = big.sample(rng)
    all_shapley(GaussianValueFunction(big), y)
    for reuse in ("truncated", "sampled"):
        EXPLAINERS[reuse](GaussianValueFunction(big), y)
    assert calls[3:] == [big, big, big]


def test_the_kept_table_is_read_only_and_follows_the_callers_edits():
    import shaploc.shapley as shapley

    rng = np.random.default_rng(46)
    model = random_model(6, rng)
    vf, x = GaussianValueFunction(model), model.sample(rng)
    table = shapley._values(vf, x)
    assert shapley._values(vf, x.copy()) is table
    with pytest.raises(ValueError):
        table[1] = 0.0
    before = EXPLAINERS["truncated"](vf, x)
    x[2] += 1.0  # the caller edits its observation in place
    after = EXPLAINERS["truncated"](vf, x)
    twin = GaussianValueFunction(GaussianModel(model.mean, model.cov))  # scores afresh
    assert after == EXPLAINERS["truncated"](twin, x)
    assert after != before


def test_explanations_are_the_same_bits_without_the_kept_table(monkeypatch):
    import shaploc.shapley as shapley

    rng = np.random.default_rng(47)
    cases = []
    for n in range(1, 15):
        model = random_model(n, rng)
        cases.append((GaussianValueFunction(model), model.sample(rng) + 1.0))

    def explain():
        out = []
        for vf, x in cases:
            out.append(all_shapley(vf, x).phi)
            for i in sorted({0, vf.n - 1}):
                out.append(exact_shapley(vf, x, i))
                out.append(truncated_shapley(vf, x, i, lambda s: len(s) <= 2))
                out.append(sampled_shapley(vf, x, i, 50, np.random.default_rng(i)))
        return np.hstack(out)

    calls = _count_tables(monkeypatch)
    kept = explain()
    assert len(calls) == len(cases)  # one table per observation
    monkeypatch.setattr(shapley, "_KEPT_COALITIONS", 0)
    calls.clear()
    assert np.array_equal(explain(), kept)
    # every call scored its own table
    assert len(calls) == sum(1 + 3 * len({0, vf.n - 1}) for vf, _ in cases)


def test_every_explainer_of_one_observation_scores_one_table(monkeypatch):
    calls = _count_tables(monkeypatch)
    rng = np.random.default_rng(48)
    model = random_model(14, rng)
    vf, x = GaussianValueFunction(model), model.sample(rng)
    phi = all_shapley(vf, x).phi
    exact = [exact_shapley(vf, x, i) for i in range(14)]
    truncated_shapley(vf, x, 3, lambda s: len(s) <= 2)
    sampled_shapley(vf, x, 3, 1, np.random.default_rng(7))
    assert calls == [model]
    assert [e.hex() for e in exact] == [p.hex() for p in phi.tolist()]
