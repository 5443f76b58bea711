import math

import numpy as np
import pytest
from scipy.special import ndtr

from shaploc import (
    AttackSpec,
    Coalition,
    DegenerateLabelsError,
    ExperimentConfig,
    GaussianModel,
    GridSpec,
    analytic_pe_gaussian,
    binomial_ci,
    run_experiment,
    shapley_from_values,
    simulate_scores,
)
from shaploc.harness import (
    _optimize_exact,
    _optimize_grid,
    _simulate_chunk,
    _trial_observations,
)


def arrays_from(clean, attacked):
    """(scores, labels) with the clean scores first."""
    scores = np.array(list(clean) + list(attacked), dtype=float)
    labels = np.arange(scores.size) >= len(clean)
    return scores, labels


def brute_force_best(scores, labels):
    """Oracle: scan every candidate threshold with direct comparisons."""
    uniq = np.unique(scores)
    candidates = (
        [-math.inf]
        + [0.5 * (a + b) for a, b in zip(uniq[:-1], uniq[1:])]
        + [math.inf]
    )
    best_tau, best_pe = None, math.inf
    for tau in candidates:
        pe = np.mean((scores > tau) != labels)
        if pe < best_pe:
            best_tau, best_pe = tau, pe
    return best_tau, best_pe


def two_sensor_config(**kw):
    sigma = kw.pop("sigma", 2.0)
    rho = kw.pop("rho", 0.0)
    am = kw.pop("am", 10.0)
    c = rho * sigma * sigma
    model = GaussianModel([0, 0], [[sigma**2, c], [c, sigma**2]])
    attack = AttackSpec(kind="A", am=am, targets=Coalition.of([0], 2))
    return ExperimentConfig(model=model, attack=attack, **kw)


# ----------------------------------------------------------------------
# threshold optimization


def test_separable_classes():
    tau, pe = _optimize_exact(*arrays_from([1, 2, 3], [4, 5, 6]))
    assert pe == 0.0
    assert tau == pytest.approx(3.5)


def test_interleaved_classes():
    _, pe = _optimize_exact(*arrays_from([1, 3], [2, 4]))
    assert pe == pytest.approx(0.25)


def test_tie_break_toward_smallest_threshold():
    tau, pe = _optimize_exact(*arrays_from([2.0], [1.0]))
    assert pe == pytest.approx(0.5)
    assert tau == -math.inf


def test_exact_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(20)
    for _ in range(50):
        m = int(rng.integers(2, 40))
        scores = np.round(rng.normal(size=m), 1)  # rounding forces ties
        labels = rng.random(m) < 0.5
        if labels.all() or not labels.any():
            continue
        got_tau, got_pe = _optimize_exact(scores, labels)
        tau, pe = brute_force_best(scores, labels)
        assert got_pe == pytest.approx(pe)
        assert got_tau == pytest.approx(tau)


def test_exact_never_beaten_by_any_grid():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = int(rng.integers(4, 60))
        scores = rng.normal(size=m)
        labels = rng.random(m) < 0.4
        if labels.all() or not labels.any():
            continue
        _, exact_pe = _optimize_exact(scores, labels)
        lo, hi = float(rng.normal(-3)), float(rng.normal(3))
        if lo >= hi:
            lo, hi = hi - 1, lo + 1
        _, grid_pe = _optimize_grid(scores, labels, lo, hi, int(rng.integers(2, 50)))
        assert exact_pe <= grid_pe + 1e-15


def test_grid_straddling_gap_is_perfect():
    _, pe = _optimize_grid(*arrays_from([1, 2, 3], [4, 5, 6]), 0.0, 10.0, 101)
    assert pe == 0.0


def grid_brute_force(scores, labels, taus):
    """Oracle: direct error count at every grid threshold, first minimum wins."""
    pes = [np.mean((scores > tau) != labels) for tau in taus]
    best = int(np.argmin(pes))
    return taus[best], pes[best]


def test_tie_heavy_scores_match_brute_force_in_both_modes():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(50, 3000))
        # a handful of distinct values, so almost every score is tied
        scores = rng.integers(0, int(rng.integers(2, 6)), size=m) * 0.5 - 1.0
        labels = rng.random(m) < 0.5
        if labels.all() or not labels.any():
            continue
        got_tau, got_pe = _optimize_exact(scores, labels)
        tau, pe = brute_force_best(scores, labels)
        assert got_pe == pytest.approx(pe, abs=1e-15)
        assert got_tau == tau
        taus = np.linspace(-2.0, 2.0, 41)
        got_tau, got_pe = _optimize_grid(scores, labels, -2.0, 2.0, 41)
        tau, pe = grid_brute_force(scores, labels, taus)
        assert got_pe == pytest.approx(pe, abs=1e-15)
        assert got_tau == tau


def test_grid_converges_to_exact():
    rng = np.random.default_rng(22)
    scores = rng.normal(size=10**4)
    labels = rng.random(10**4) < 0.5
    _, exact_pe = _optimize_exact(scores, labels)
    _, grid_pe = _optimize_grid(scores, labels, -6.0, 6.0, 10**6)
    assert grid_pe == pytest.approx(exact_pe, abs=1e-12)


def test_grid_entirely_below_scores_declares_everything():
    _, pe = _optimize_grid(*arrays_from([1, 2, 3], [4, 5, 6]), -100.0, -50.0, 10)
    assert pe == pytest.approx(0.5)  # all clean trials become false alarms


def test_degenerate_labels_rejected():
    with pytest.raises(DegenerateLabelsError):
        _optimize_exact(*arrays_from([1, 2], []))
    with pytest.raises(DegenerateLabelsError):
        _optimize_exact(*arrays_from([], [1, 2]))


# ----------------------------------------------------------------------
# confidence intervals


def test_binomial_ci_values():
    assert binomial_ci(0.5, 10**6) == pytest.approx(0.00098, abs=1e-6)
    assert binomial_ci(0.0, 123) == 0.0
    assert binomial_ci(0.0176, 10**7) == pytest.approx(8.15e-5, rel=1e-2)
    with pytest.raises(ValueError):
        binomial_ci(1.5, 10)


# ----------------------------------------------------------------------
# analytic oracle


def test_analytic_matches_dense_grid_minimization():
    for sigma, am, p in [(2.0, 1.0, 0.5), (1.0, 10.0, 0.5), (1.5, 2.0, 0.3)]:
        t = np.linspace(0, am + 8 * sigma, 10**6)
        pe_curve = (1 - p) * 2 * (1 - ndtr(t / sigma)) + p * (
            ndtr((t - am) / sigma) - ndtr((-t - am) / sigma)
        )
        assert analytic_pe_gaussian(sigma, am, p) == pytest.approx(
            float(pe_curve.min()), abs=1e-9
        )


def test_analytic_published_operating_point():
    assert analytic_pe_gaussian(2.0, 1.0, 0.5) == pytest.approx(0.4709, abs=2e-4)


def test_analytic_null_attack_is_chance():
    assert analytic_pe_gaussian(1.0, 0.0, 0.5) == pytest.approx(0.5, abs=1e-9)


def test_analytic_vanishing_noise_is_perfect():
    assert analytic_pe_gaussian(1e-9, 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_analytic_validation():
    with pytest.raises(ValueError):
        analytic_pe_gaussian(0.0, 1.0)
    with pytest.raises(ValueError):
        analytic_pe_gaussian(1.0, 1.0, attack_prior=1.0)
    for sigma, am in ((1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            analytic_pe_gaussian(sigma, am)


# ----------------------------------------------------------------------
# trial simulation


def test_config_validation():
    with pytest.raises(ValueError):
        two_sensor_config(trials=0)
    with pytest.raises(ValueError):
        two_sensor_config(attack_prior=1.0)
    with pytest.raises(ValueError):
        two_sensor_config(sensor_under_test=2)
    # seeds are Philox keys, which must lie in [0, 2^128)
    for seed in (-1, 1 << 128):
        with pytest.raises(ValueError, match="seed"):
            two_sensor_config(seed=seed)
    # a float seed of 1.5 ran seed 1's stream; the other fields failed late
    for key, value in (("seed", 1.5), ("seed", 1.9), ("trials", 2000.0), ("sensor_under_test", 0.5)):
        with pytest.raises(TypeError):
            two_sensor_config(**{key: value})
    config = two_sensor_config(trials=np.int64(8), seed=np.uint64(3), sensor_under_test=np.int8(1))
    assert (config.trials, config.seed, config.sensor_under_test) == (8, 3, 1)


def test_largest_philox_key_is_accepted():
    config = two_sensor_config(trials=8, seed=(1 << 128) - 1)
    assert simulate_scores(config)[0].size == 8


def test_grid_bounds_must_be_finite():
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            GridSpec(lo, hi, 10)
    with pytest.raises(TypeError):
        GridSpec(0, 5, 50.5)
    assert GridSpec(0, 5, np.int64(50)).steps == 50


def test_high_prior_labels_every_trial_attacked():
    config = two_sensor_config(trials=200, attack_prior=1 - 1e-12, seed=1)
    _, _, labels = simulate_scores(config)
    assert labels.all()


def test_trial_determinism():
    config = two_sensor_config(trials=100, seed=42)
    a = _simulate_chunk(config, 57, 1)
    b = _simulate_chunk(config, 57, 1)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_trial_matches_chunked_simulation():
    rng = np.random.default_rng(12)
    n = 10
    a = rng.normal(size=(n, n))
    model = GaussianModel(rng.normal(size=n), a @ a.T / n + np.eye(n))
    attack = AttackSpec(kind="B", am=1.5, sigma_a=0.5, targets=Coalition.of([0, 3], n))
    configs = (
        two_sensor_config(trials=3000, seed=9, rho=0.5, am=1.0),
        ExperimentConfig(model=model, attack=attack, sensor_under_test=3, trials=300, seed=13),
    )
    for config in configs:
        # one-trial chunks score the same bits as the default chunk
        for x, y in zip(simulate_scores(config, chunk=1), simulate_scores(config)):
            assert np.array_equal(x, y)


def test_independent_model_scores_coincide_per_trial():
    config = two_sensor_config(trials=5000, seed=3, rho=0.0)
    phi, v, _ = simulate_scores(config)
    assert np.max(np.abs(phi - v)) < 1e-9


# ----------------------------------------------------------------------
# full experiments


def test_independent_experiment_reports_identical_pe():
    config = two_sensor_config(trials=50_000, seed=5)
    shap, single = run_experiment(config)
    assert shap.trials == single.trials == 50_000
    assert shap.pe == single.pe
    assert shap.statistic == "shapley"
    assert single.statistic == "single-term"


def test_null_attack_is_chance_level():
    config = two_sensor_config(trials=50_000, seed=6, am=0.0)
    shap, single = run_experiment(config)
    # thresholds are tuned on the evaluation set, so allow slightly below 1/2
    assert 0.47 < single.pe <= 0.5
    assert 0.47 < shap.pe <= 0.5


def test_experiment_threshold_is_empirically_optimal():
    config = two_sensor_config(trials=10_000, seed=7, rho=0.3, am=1.0)
    phi, v, labels = simulate_scores(config)
    shap, single = run_experiment(config)
    for scores, rep in ((phi, shap), (v, single)):
        _, best_pe = brute_force_best(scores, labels)
        assert rep.pe == pytest.approx(best_pe)


def test_experiment_agrees_with_analytic_oracle():
    sigma, am, m = 2.0, 1.0, 10**5
    config = two_sensor_config(trials=m, seed=8, sigma=sigma, am=am)
    _, single = run_experiment(config)
    oracle = analytic_pe_gaussian(sigma, am, 0.5)
    assert abs(single.pe - oracle) <= 3 * single.ci_halfwidth


def test_grid_mode_experiment():
    config = two_sensor_config(
        trials=20_000, seed=9, threshold_mode=GridSpec(0.0, 20.0, 5001)
    )
    shap, single = run_experiment(config)
    exact = run_experiment(two_sensor_config(trials=20_000, seed=9))
    assert single.pe >= exact[1].pe
    assert single.pe == pytest.approx(exact[1].pe, abs=1e-3)


def test_experiment_deterministic_across_chunkings():
    config = two_sensor_config(trials=4096, seed=10, rho=-0.4, am=1.0)
    a = simulate_scores(config, chunk=1024)
    b = simulate_scores(config, chunk=4096)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_chunk_single_term_scores_own_their_data():
    config = two_sensor_config(trials=64, seed=11, rho=0.3)
    phi, v, _ = _simulate_chunk(config, 0, 64)
    # a view would keep the chunk's scratch arrays alive
    assert v.base is None or v.base.ndim < 2
    assert phi.size == v.size == 64


def random_config(n, seed, sensor, trials):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    model = GaussianModel(rng.normal(size=n), a @ a.T / n + 0.5 * np.eye(n))
    attack = AttackSpec(kind="B", am=1.5, sigma_a=0.5, targets=Coalition.of([0, n - 1], n))
    return ExperimentConfig(
        model=model, attack=attack, sensor_under_test=sensor, trials=trials, seed=seed
    )


def test_experiment_never_scores_the_coalition_table(monkeypatch):
    def refuse(self, xs):
        raise AssertionError("the harness built a coalition table")

    monkeypatch.setattr(GaussianModel, "coalition_values", refuse)
    shap, single = run_experiment(random_config(10, 14, 4, 2000))
    assert shap.trials == single.trials == 2000


def test_chunk_scores_match_the_coalition_table():
    for n, sensor in ((1, 0), (2, 1), (5, 2), (10, 0), (10, 9)):
        config = random_config(n, 15 + n, sensor, 300)
        for start, count in ((0, 300), (17, 1), (40, 64)):
            xs, _ = _trial_observations(config, start, count)
            table = config.model.coalition_values(xs)
            phi, v, _ = _simulate_chunk(config, start, count)
            # the single term runs the kernel's own arithmetic
            assert np.array_equal(v, table[1 << sensor])
            # the quadratic form sums the same terms in another order
            scale = np.max(np.abs(table), axis=0)
            assert np.all(np.abs(phi - shapley_from_values(table, sensor)) <= 1e-12 * scale)


def test_chunk_size_must_be_positive():
    config = two_sensor_config(trials=10)
    with pytest.raises(ValueError):
        simulate_scores(config, chunk=0)
