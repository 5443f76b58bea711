import math
import os
import pickle
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

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
    preset_table2,
    binomial_ci,
    run_experiment,
    shapley_from_values,
)
from shaploc import harness
from shaploc.shapley import gaussian_shapley_form
from shaploc.suite import experiment_seed

from harness_helpers import (
    chunk,
    optimize_exact,
    optimize_grid,
    trial_deviations,
    trial_scores,
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
    tau, pe = optimize_exact(*arrays_from([1, 2, 3], [4, 5, 6]))
    assert pe == 0.0
    assert tau == pytest.approx(3.5)


def test_interleaved_classes():
    _, pe = optimize_exact(*arrays_from([1, 3], [2, 4]))
    assert pe == pytest.approx(0.25)


def test_tie_break_toward_smallest_threshold():
    tau, pe = optimize_exact(*arrays_from([2.0], [1.0]))
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
        got_tau, got_pe = optimize_exact(scores, labels)
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
        _, exact_pe = optimize_exact(scores, labels)
        lo, hi = float(rng.normal(-3)), float(rng.normal(3))
        if lo >= hi:
            lo, hi = hi - 1, lo + 1
        _, grid_pe = optimize_grid(scores, labels, lo, hi, int(rng.integers(2, 50)))
        assert exact_pe <= grid_pe + 1e-15


def test_grid_straddling_gap_is_perfect():
    _, pe = optimize_grid(*arrays_from([1, 2, 3], [4, 5, 6]), 0.0, 10.0, 101)
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
        got_tau, got_pe = optimize_exact(scores, labels)
        tau, pe = brute_force_best(scores, labels)
        assert got_pe == pytest.approx(pe, abs=1e-15)
        assert got_tau == tau
        taus = np.linspace(-2.0, 2.0, 41)
        got_tau, got_pe = optimize_grid(scores, labels, -2.0, 2.0, 41)
        tau, pe = grid_brute_force(scores, labels, taus)
        assert got_pe == pytest.approx(pe, abs=1e-15)
        assert got_tau == tau


def test_grid_converges_to_exact():
    rng = np.random.default_rng(22)
    scores = rng.normal(size=10**4)
    labels = rng.random(10**4) < 0.5
    _, exact_pe = optimize_exact(scores, labels)
    _, grid_pe = optimize_grid(scores, labels, -6.0, 6.0, 10**6)
    assert grid_pe == pytest.approx(exact_pe, abs=1e-12)


def test_grid_entirely_below_scores_declares_everything():
    _, pe = optimize_grid(*arrays_from([1, 2, 3], [4, 5, 6]), -100.0, -50.0, 10)
    assert pe == pytest.approx(0.5)  # all clean trials become false alarms


def test_degenerate_labels_rejected():
    # one trial is of one class, whatever the mode
    for mode in ("exact", GridSpec(0.0, 20.0, 11)):
        with pytest.raises(DegenerateLabelsError):
            run_experiment(two_sensor_config(trials=1, seed=2, threshold_mode=mode))


def recounted_pe(scores, labels, tau):
    """The error rate of the rule "score > tau is attacked", counted directly."""
    return np.count_nonzero((scores > tau) != labels) / scores.size


def test_every_returned_rule_recounts_to_its_pe():
    rng = np.random.default_rng(24)
    cases = [
        (np.round(rng.normal(size=m), 1), rng.random(m) < 0.5)
        for m in rng.integers(2, 200, size=30)
    ]
    one = 1.0 + 2.0**-52
    cases += [
        # the nearest score above the best cut is +inf
        arrays_from([1.0, 2.0], [math.inf, math.inf]),
        arrays_from([-math.inf, 1.0, 2.0], [3.0, math.inf, math.inf]),
        # the midpoint's sum overflows
        arrays_from([1e308], [np.finfo(float).max]),
        # the midpoint of two adjacent floats rounds up to the attacked score
        arrays_from([one], [np.nextafter(one, 2.0)]),
    ]
    for scores, labels in cases:
        if labels.all() or not labels.any():
            continue
        tau, pe = optimize_exact(scores, labels)
        assert pe == recounted_pe(scores, labels, tau), (scores, labels, tau)
        # every distinct rule is "score > w" for some score w, or declares all
        best = min(recounted_pe(scores, labels, w) for w in [-math.inf, *scores])
        assert pe == pytest.approx(best)
    for scores, labels in cases[-4:]:
        tau, pe = optimize_exact(scores, labels)
        assert math.isfinite(tau) and pe == 0.0


# attacked single terms overflow to +inf at am = 1e300, without a warning
@pytest.mark.parametrize("am", [1.0, 1e300])
def test_experiment_rules_recount_to_their_pe(am):
    config = two_sensor_config(trials=3000, seed=25, rho=0.5, am=am)
    phi, v, labels = trial_scores(config)
    for scores, report in zip((phi, v), run_experiment(config)):
        assert math.isfinite(report.threshold)
        assert report.pe == recounted_pe(scores, labels, report.threshold)
        if am > 1.0:
            assert report.pe == 0.0


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
    for sigma, am, p in [
        (2.0, 1.0, 0.5), (1.0, 10.0, 0.5), (1.5, 2.0, 0.3), (1.0, 1.0, 0.05),
        (1.0, 3.0, 0.95), (1.0, -3.0, 0.5), (2.0, 1.0, 0.7),  # the last at t = 0
    ]:
        t = np.linspace(0, abs(am) + 8 * sigma, 10**6)
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
    # seeds must lie in [0, 2^128)
    for seed in (-1, 1 << 128):
        with pytest.raises(ValueError, match="seed"):
            two_sensor_config(seed=seed)
    # a float seed of 1.5 ran seed 1's stream; the other fields failed late
    for key, value in (("seed", 1.5), ("seed", 1.9), ("trials", 2000.0), ("sensor_under_test", 0.5)):
        with pytest.raises(TypeError):
            two_sensor_config(**{key: value})
    config = two_sensor_config(trials=np.int64(8), seed=np.uint64(3), sensor_under_test=np.int8(1))
    assert (config.trials, config.seed, config.sensor_under_test) == (8, 3, 1)


def test_threshold_mode_must_be_exact_or_a_grid():
    # any mode that was not a string used to run the exact search
    for mode in (None, 5, ("exact",), "grid", "exact-sort", GridSpec):
        with pytest.raises(ValueError, match="threshold mode"):
            two_sensor_config(threshold_mode=mode)
    two_sensor_config(threshold_mode=GridSpec(0.0, 1.0, 2))


def test_the_largest_seed_keys_the_block_streams():
    # 2^128 - 1, the top of the accepted seed range, seeds the SFC64 block streams
    config = two_sensor_config(trials=8, seed=(1 << 128) - 1)
    assert trial_scores(config)[0].size == 8


def test_grid_bounds_must_be_finite():
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            GridSpec(lo, hi, 10)
    with pytest.raises(TypeError):
        GridSpec(0, 5, 50.5)
    assert GridSpec(0, 5, np.int64(50)).steps == 50


def test_high_prior_labels_every_trial_attacked():
    config = two_sensor_config(trials=200, attack_prior=1 - 1e-12, seed=1)
    _, _, labels = trial_scores(config)
    assert labels.all()


@pytest.mark.parametrize("mode", ["exact", GridSpec(0.0, 20.0, 11)])
@pytest.mark.parametrize("prior", [1e-12, 1 - 1e-12])
def test_an_experiment_of_one_class_is_rejected(prior, mode):
    config = two_sensor_config(trials=200, attack_prior=prior, seed=1, threshold_mode=mode)
    with pytest.raises(DegenerateLabelsError):
        run_experiment(config)


def test_trial_determinism():
    # a block scores the same bits again, on a fresh thread, and as the
    # first trials of a longer run
    config = two_sensor_config(trials=100, seed=42)
    a = chunk(config, 0)
    b = on_a_fresh_thread(chunk, config, 0)
    c = chunk(replace(config, trials=3000), 0)
    for x, y, z in zip(a, b, c):
        assert np.array_equal(x, y) and np.array_equal(x, z[:100])


# run lengths on both sides of a width step and of a block edge
PREFIXES = (1, 1023, 1024, 1025, 16383, 16384, 16385)


def test_a_shorter_run_is_a_prefix_of_a_longer_one():
    # a short last block multiplies only the columns it uses, yet its
    # trials score the bits they score in a whole block
    rng = np.random.default_rng(12)
    n = 10
    a = rng.normal(size=(n, n))
    model = GaussianModel(rng.normal(size=n), a @ a.T / n + np.eye(n))
    attack = AttackSpec(kind="B", am=1.5, sigma_a=0.5, targets=Coalition.of([0, 3], n))
    configs = (
        two_sensor_config(trials=40_000, seed=9, rho=0.5, am=1.0),
        ExperimentConfig(model=model, attack=attack, sensor_under_test=3, trials=40_000, seed=13),
    )
    for config in configs:
        want = trial_scores(config)
        for k in PREFIXES:
            got = trial_scores(replace(config, trials=k))
            for x, y in zip(got, want):
                assert np.array_equal(x, y[:k]), k


def test_independent_model_scores_coincide_per_trial():
    config = two_sensor_config(trials=5000, seed=3, rho=0.0)
    phi, v, _ = trial_scores(config)
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
    phi, v, labels = trial_scores(config)
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


def random_config(n, seed, sensor, trials):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    model = GaussianModel(rng.normal(size=n), a @ a.T / n + 0.5 * np.eye(n))
    attack = AttackSpec(kind="B", am=1.5, sigma_a=0.5, targets=Coalition.of([0, n - 1], n))
    return ExperimentConfig(
        model=model, attack=attack, sensor_under_test=sensor, trials=trials, seed=seed
    )


def test_experiment_never_scores_the_coalition_table(monkeypatch):
    def refuse(self, x):
        raise AssertionError("the harness built a coalition table")

    monkeypatch.setattr(GaussianModel, "coalition_values", refuse)
    shap, single = run_experiment(random_config(10, 14, 4, 2000))
    assert shap.trials == single.trials == 2000


def test_chunk_scores_match_the_coalition_table():
    for n, sensor in ((1, 0), (2, 1), (5, 2), (10, 0), (10, 9)):
        config = random_config(n, 15 + n, sensor, 300)
        # the kernel reads x - mean, so a zero-mean model scores the deviations
        centred = GaussianModel(np.zeros(n), config.model.cov)
        ds, _ = trial_deviations(config, 0, 300)
        phi, v, _ = trial_scores(config)
        for d, phi_x, v_x in zip(ds, phi, v):
            table = centred.coalition_values(d)
            # the single term runs the kernel's own arithmetic
            assert v_x == table[1 << sensor]
            # the quadratic form sums the same terms in another order
            scale = np.max(np.abs(table))
            assert abs(phi_x - shapley_from_values(table, sensor)) <= 1e-12 * scale


def kind_config(n, kind, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    model = GaussianModel(rng.normal(size=n), a @ a.T / n + 0.5 * np.eye(n))
    attack = AttackSpec(
        kind=kind, am=1.5, targets=Coalition.of(sorted({0, n - 1}), n),
        sigma_a=0.5 if kind == "B" else None, um=2.0 if kind == "C" else None,
    )
    return ExperimentConfig(
        model=model, attack=attack, sensor_under_test=n // 2, trials=400, seed=seed
    )


def moved(config, shift):
    """The config with its model's mean moved by ``shift``."""
    return replace(config, model=GaussianModel(config.model.mean + shift, config.model.cov))


@pytest.mark.parametrize("mode", ["exact", GridSpec(0.0, 8.0, 301)], ids=["exact", "grid"])
@pytest.mark.parametrize("kind", ["A", "B", "C"])
def test_reports_do_not_depend_on_the_mean(kind, mode):
    # both statistics read x - mean, so a model and the same model with its
    # mean moved run the same experiment, bit for bit; a trial drawn as x
    # and read back as x - mean would lose d's low bits to a mean of 1e15
    shifts = {2: np.array([1e15, -1e15]), 6: 1e8 * np.random.default_rng(93).random(6)}
    for n, shift in shifts.items():
        config = replace(kind_config(n, kind, 90 + n), trials=20_000, threshold_mode=mode)
        assert run_experiment(moved(config, shift)) == run_experiment(config), n


def on_a_fresh_thread(fn, *args):
    result = []
    worker = threading.Thread(target=lambda: result.append(fn(*args)))
    worker.start()
    worker.join()
    return result[0]


def test_chunk_results_never_share_the_threads_kept_scratch():
    # one thread simulates chunks of wide and narrow models back to back:
    # every result equals a fresh thread's longer one, and later chunks
    # leave the results alone
    results = []
    for n in (10, 2, 14, 1):
        for kind in ("A", "B", "C"):
            config = kind_config(n, kind, 60 + n)
            for count in (300, 1, 64):
                cases = (
                    (chunk, (replace(config, trials=count), 0),
                     (replace(config, trials=count + 3), 0), slice(count)),
                    (trial_deviations, (config, 3, count), (config, 0, count + 3), slice(3, None)),
                )
                for fn, args, longer, part in cases:
                    got = fn(*args)
                    want = on_a_fresh_thread(fn, *longer)
                    assert all(
                        np.array_equal(a, b[part]) for a, b in zip(got, want)
                    ), (n, kind, count, fn.__name__)
                    results.append((got, tuple(a.copy() for a in got)))
    for got, copies in results:
        assert all(np.array_equal(a, b) for a, b in zip(got, copies))


def test_a_thread_scores_alike_after_overflowing_scores():
    # a whole block of a 1e300 attack leaves infinite scores in the thread's
    # scratch; the next, shorter block warns of nothing and scores as a
    # fresh thread does
    huge = two_sensor_config(trials=harness._STREAM_BLOCK, seed=25, rho=0.5, am=1e300)
    plain = two_sensor_config(trials=300, seed=25, rho=0.5, am=1.0)

    def overflow_then_plain():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, v, attacked = chunk(huge, 0)
            assert np.isinf(v[attacked]).all()
            return chunk(plain, 0)

    got = on_a_fresh_thread(overflow_then_plain)
    want = on_a_fresh_thread(chunk, plain, 0)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# sensor counts on both sides of the shapes where OpenBLAS changes kernels
KERNEL_EDGE_SENSORS = (1, 2, 3, 10, 12, 14, 17, 20, 24)
# runs of up to 2^15 trials whose last block is short: one trial, either
# side of a width step, and in the first block or the second
SHORT_RUNS = (1, 17, 300, 1023, 1025, 16383, 16385, 17408, 18384, 32767)


def chunk_scores(configs):
    """Per config: (phi, v) of two whole blocks, then of each short run's last block."""
    size = harness._STREAM_BLOCK
    out = []
    for config in configs:
        whole = [chunk(replace(config, trials=2 * size), block)[:2] for block in (0, 1)]
        parts = [chunk(replace(config, trials=m), (m - 1) // size)[:2] for m in SHORT_RUNS]
        out.append(([np.concatenate(s) for s in zip(*whole)], parts))
    return out


def check_chunk_scores(scores):
    size = harness._STREAM_BLOCK
    for (phi, v), parts in scores:
        for m, (part_phi, part_v) in zip(SHORT_RUNS, parts):
            start = (m - 1) // size * size
            assert np.array_equal(part_phi, phi[start:m]), m
            assert np.array_equal(part_v, v[start:m]), m


def in_one_blas_thread(script, payload):
    """What ``script`` pickles to stdout, run on ``payload`` in a fresh
    process with one BLAS thread."""
    paths = [str(Path(harness.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (*paths, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], env=env,
        input=pickle.dumps(payload), capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return pickle.loads(done.stdout)


BUILD_FORMS = """
import pickle, sys
from shaploc.shapley import gaussian_shapley_form
pickle.dump([gaussian_shapley_form(*case) for case in pickle.load(sys.stdin.buffer)], sys.stdout.buffer)
"""


def test_forms_do_not_depend_on_the_blas_thread_count():
    # C sums 2^(n-1) terms and A as many outer products; a BLAS dot for C
    # rounded by the thread count at these n
    cases = [
        (kind_config(n, "B", 70 + n).model, i) for n in (16, 17, 20) for i in (0, n // 2, n - 1)
    ]
    here = [gaussian_shapley_form(*case) for case in cases]
    there = in_one_blas_thread(BUILD_FORMS, cases)
    for (c, a), (c_there, a_there) in zip(here, there, strict=True):
        assert np.float64(c).tobytes() == np.float64(c_there).tobytes()
        assert a.tobytes() == a_there.tobytes()


SCORE_CHUNKS = """
import pickle, sys
from test_harness import chunk_scores
pickle.dump(chunk_scores(pickle.load(sys.stdin.buffer)), sys.stdout.buffer)
"""


def test_split_chunks_score_the_whole_blocks_bits_at_every_kernel_edge():
    # a fresh process with one BLAS thread builds its own forms and scores
    # the same bits
    configs = [kind_config(n, "B", 70 + n) for n in KERNEL_EDGE_SENSORS]
    here = chunk_scores(configs)
    check_chunk_scores(here)
    there = in_one_blas_thread(SCORE_CHUNKS, configs)
    check_chunk_scores(there)
    for ((phi, v), _), ((phi_there, v_there), _) in zip(here, there, strict=True):
        assert np.array_equal(phi, phi_there) and np.array_equal(v, v_there)


def narrow_product_mismatches(ns):
    """(n, width, product) of every product of a multiple-of-2^10 width whose
    columns differ from those of the full-width product.

    Both products are made as the harness makes them: ``chol @ z.T`` from a
    trial-major ``z`` in a wide scratch buffer, then ``A @ d`` from the
    sensor-major result, each written into a view of a full-width buffer.
    """
    full = harness._STREAM_BLOCK
    found = []
    for n in ns:
        rng = np.random.default_rng([81, n])
        b = rng.normal(size=(n, n))
        chol = np.linalg.cholesky(b @ b.T / n + np.eye(n))
        a = b + b.T
        wide, narrow, spare = (np.empty((n, full)) for _ in range(3))
        z = wide.reshape(full, n)
        z[:] = rng.normal(size=z.shape)
        d_full = np.matmul(chol, z.T, out=narrow).copy()
        g_full = np.matmul(a, d_full, out=spare).copy()
        for width in range(1 << 10, full + 1, 1 << 10):
            d = np.matmul(chol, z[:width].T, out=narrow[:, :width])
            if not np.array_equal(d, d_full[:, :width]):
                found.append((n, width, "chol @ z.T"))
            g = np.matmul(a, d, out=spare[:, :width])
            if not np.array_equal(g, g_full[:, :width]):
                found.append((n, width, "A @ d"))
    return found


NARROW_PRODUCTS = """
import pickle, sys
from test_harness import narrow_product_mismatches
pickle.dump(narrow_product_mismatches(pickle.load(sys.stdin.buffer)), sys.stdout.buffer)
"""


def test_products_of_every_multiple_of_2_10_columns_keep_the_full_width_bits():
    # a short chunk's products span its trials rounded up to 2^10 columns
    ns = list(range(1, 25))
    assert narrow_product_mismatches(ns) == []
    assert in_one_blas_thread(NARROW_PRODUCTS, ns) == []


# the stream's definition: trial j draws from block j // 2^14
STREAM_BLOCK = 1 << 14


def block_streams(seed, block):
    """The generators of one block of trials: labels, normals, offsets."""
    return [
        np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block, role)))
        )
        for role in range(3)
    ]


def reference_draws(config, start, count):
    """[label uniforms, normals, offsets] of trials start..start+count-1.

    Each block is drawn whole and trial-major, straight from its
    ``SeedSequence``, and the offsets follow the attack's law.
    """
    n, attack = config.model.n, config.attack
    t = len(attack.targets)
    parts = []
    for block in range(start // STREAM_BLOCK, (start + count - 1) // STREAM_BLOCK + 1):
        labels, normals, offsets = block_streams(config.seed, block)
        u = labels.random(STREAM_BLOCK)
        z = normals.standard_normal((STREAM_BLOCK, n))
        if attack.kind == "B":
            shift = attack.am + attack.sigma_a * offsets.standard_normal((STREAM_BLOCK, t))
        elif attack.kind == "C":
            shift = attack.am + attack.um * offsets.random((STREAM_BLOCK, t))
        else:
            shift = np.full((STREAM_BLOCK, t), attack.am)
        parts.append((u, z, shift))
    lo = start % STREAM_BLOCK
    return [np.concatenate(role)[lo : lo + count] for role in zip(*parts)]


def reference_deviations(config, start, count, draws=None):
    """(deviations, attacked, clean deviations) of trials built the plain way:
    trial-major rows, then a masked attack add."""
    u, z, offsets = reference_draws(config, start, count) if draws is None else draws
    attacked = u < config.attack_prior
    if count == 1:  # a matrix-matrix BLAS path, as the harness's full-width product
        z = np.concatenate((z, z))
    clean = (z @ config.model.chol.T)[:count]
    ds = clean.copy()
    for col, j in enumerate(config.attack.targets):
        ds[attacked, j] += offsets[attacked, col]
    return ds, attacked, clean


# chunks inside one block, one-trial chunks, and chunks that cross blocks
CHUNKS = ((0, 300), (17, 1), (16383, 1), (16384, 1), (16380, 10), (32767, 2), (5, 40000))


@pytest.mark.parametrize("kind", ["A", "B", "C"])
@pytest.mark.parametrize("targets", [[0], [1], [0, 1]])
def test_injection_matches_the_trial_major_reference(kind, targets):
    model = GaussianModel([0.5, -2.0], [[2.25, -0.6], [-0.6, 0.5625]])
    attack = AttackSpec(
        kind=kind, am=1.25, targets=Coalition.of(targets, 2),
        sigma_a=0.7 if kind == "B" else None, um=2.0 if kind == "C" else None,
    )
    config = ExperimentConfig(model=model, attack=attack, trials=40_005, seed=31)
    for start, count in CHUNKS:
        ds, attacked = trial_deviations(config, start, count)
        want, want_attacked, clean = reference_deviations(config, start, count)
        assert ds.shape == (count, 2)
        assert np.array_equal(attacked, want_attacked)
        assert count < 10 or 0 < np.count_nonzero(attacked) < count
        assert np.array_equal(ds, want)
        # clean trials carry no offset, and no sensor outside the targets does
        assert np.array_equal(ds[~attacked], clean[~attacked])
        others = [j for j in range(2) if j not in targets]
        assert np.array_equal(ds[:, others], clean[:, others])


@pytest.mark.parametrize("kind", ["B", "C"])
def test_a_wide_model_matches_the_reference_across_blocks(kind):
    config = replace(kind_config(6, kind, 32), trials=40_005)
    for start, count in CHUNKS:
        ds, attacked = trial_deviations(config, start, count)
        want, want_attacked, _ = reference_deviations(config, start, count)
        assert np.array_equal(attacked, want_attacked)
        assert np.array_equal(ds, want)


def reference_scores(config, d):
    """(phi, v) of trial-major deviations, in the harness's order of operations.

    A @ d spans a full-width block of trials, zeros after these, since BLAS
    picks its kernel, and so its rounding, by the shapes.
    """
    i = config.sensor_under_test
    c, a, half_precision, half_log_var = harness._scoring_form(config.model, i)
    full = np.zeros((config.model.n, harness._STREAM_BLOCK))
    full[:, : len(d)] = d.T
    g = (a @ full)[:, : len(d)] * d.T
    phi = g[0]
    for row in g[1:]:
        phi = phi + row
    return phi + c, d[:, i] * d[:, i] * half_precision + half_log_var


@pytest.mark.parametrize("kind", ["A", "B", "C"])
@pytest.mark.parametrize("prior", [0.5, 1e-300])
def test_a_zero_draw_is_attacked_and_offsets_by_am(monkeypatch, kind, prior):
    # SFC64 can draw exactly 0.0.  A label uniform of 0.0 lies below every
    # prior, so the trial is attacked even at a prior of 1e-300, and an
    # offset draw of 0.0, a type-C uniform or a type-B normal, gives am.
    model = GaussianModel([0.5, -2.0], [[2.25, -0.6], [-0.6, 0.5625]])
    attack = AttackSpec(
        kind=kind, am=1.25, targets=Coalition.of([0, 1], 2),
        sigma_a=0.7 if kind == "B" else None, um=2.0 if kind == "C" else None,
    )
    config = ExperimentConfig(
        model=model, attack=attack, sensor_under_test=1, trials=2 * STREAM_BLOCK + 1,
        attack_prior=prior, seed=31,
    )
    block_generator = harness._block_generator

    def zeroed(seed, block, role):
        # every fourth trial's label uniform and offsets are drawn as 0.0
        real = block_generator(seed, block, role)
        if role == harness._NORMALS:
            return real

        def zero(out):
            return (block * STREAM_BLOCK + np.arange(len(out))) % 4 == 0

        class Zeroed:
            def random(self, out):
                real.random(out=out)
                out[zero(out)] = 0.0

            def standard_normal(self, out):
                real.standard_normal(out=out)
                out[zero(out)] = 0.0

        return Zeroed()

    monkeypatch.setattr(harness, "_block_generator", zeroed)
    scores = trial_scores(config)
    for start, count in CHUNKS[:-1]:
        zero = (start + np.arange(count)) % 4 == 0
        u, z, offsets = reference_draws(config, start, count)
        u[zero] = 0.0
        offsets[zero] = attack.am
        want, want_attacked, _ = reference_deviations(config, start, count, (u, z, offsets))
        assert want_attacked[zero].all()
        if prior < 1e-299:
            assert np.array_equal(want_attacked, zero)
        ds, attacked = trial_deviations(config, start, count)
        assert np.array_equal(attacked, want_attacked)
        assert np.array_equal(ds, want)
        phi, v, attacked = (a[start : start + count] for a in scores)
        want_phi, want_v = reference_scores(config, want)
        assert np.array_equal(attacked, want_attacked)
        assert np.array_equal(phi, want_phi)
        assert np.array_equal(v, want_v)


@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.parametrize("kind", ["A", "B", "C"])
def test_the_stream_follows_the_model_and_the_attack_law(n, kind):
    # 2^17 trials over eight blocks; every moment within 5 standard errors
    m, prior, am, sigma_a, um = 1 << 17, 0.3, 1.5, 0.7, 2.0
    rng = np.random.default_rng(40 + n)
    a = rng.normal(size=(n, n))
    model = GaussianModel(rng.normal(size=n), a @ a.T / n + 0.5 * np.eye(n))
    targets = Coalition.of(sorted({0, n - 1}), n)
    attack = AttackSpec(
        kind=kind, am=am, targets=targets,
        sigma_a=sigma_a if kind == "B" else None, um=um if kind == "C" else None,
    )
    config = ExperimentConfig(
        model=model, attack=attack, trials=m, attack_prior=prior, seed=4242
    )
    ds, attacked = trial_deviations(config, 0, m)
    # the labels and normals do not depend on the attack
    plain, attacked_again = trial_deviations(
        replace(config, attack=AttackSpec(kind="A", am=0.0, targets=targets)), 0, m
    )
    assert np.array_equal(attacked, attacked_again)
    k = np.count_nonzero(attacked)
    assert abs(k / m - prior) <= 5 * math.sqrt(prior * (1 - prior) / m)

    d = ds[~attacked]
    var = np.diag(model.cov)
    assert np.all(np.abs(d.mean(axis=0)) <= 5 * np.sqrt(var / len(d)))
    # E[d_a d_b] = S_ab, with variance S_aa S_bb + S_ab^2
    se = np.sqrt((np.outer(var, var) + model.cov**2) / len(d))
    assert np.all(np.abs(d.T @ d / len(d) - model.cov) <= 5 * se)

    assert np.array_equal(ds[~attacked], plain[~attacked])
    others = [j for j in range(n) if j not in targets]
    assert np.array_equal(ds[:, others], plain[:, others])
    shifts = (ds - plain)[attacked][:, list(targets)].ravel()
    if kind == "A":
        assert np.allclose(shifts, am, rtol=0.0, atol=1e-12)
        return
    if kind == "B":
        centre, spread, fourth = am, sigma_a**2, 2 * sigma_a**4
    else:
        assert np.all((shifts >= am - 1e-12) & (shifts <= am + um + 1e-12))
        centre, spread, fourth = am + um / 2, um**2 / 12, um**4 / 180
    # the mean and the second moment about the law's centre
    assert abs(shifts.mean() - centre) <= 5 * math.sqrt(spread / shifts.size)
    second = np.mean((shifts - centre) ** 2)
    assert abs(second - spread) <= 5 * math.sqrt(fourth / shifts.size)


def test_a_constant_offset_builds_no_offsets_generator(monkeypatch):
    # building a block's generator takes about 12 us, 1-2% of a two-sensor
    # chunk, so only attacks that draw their offsets build one
    roles = []
    block_generator = harness._block_generator

    def recording(seed, block, role):
        roles.append(role)
        return block_generator(seed, block, role)

    monkeypatch.setattr(harness, "_block_generator", recording)
    for kind, want in (("A", False), ("B", True), ("C", True)):
        roles.clear()
        trial_scores(replace(kind_config(3, kind, 95), trials=2 * STREAM_BLOCK + 1))
        assert roles.count(harness._LABELS) == roles.count(harness._NORMALS) == 3
        assert roles.count(harness._OFFSETS) == (3 if want else 0), kind


def test_blocks_and_roles_draw_different_values():
    draws = set()
    for block in range(4):
        for role in range(3):
            out = np.empty(8)
            harness._block_generator(7, block, role).random(out=out)
            draws.add(tuple(out))
    assert len(draws) == 12


def test_linear_statistic_reaches_the_bayes_error_on_table2():
    # An oracle for trial generation and threshold optimisation on correlated
    # models that shares nothing with the Shapley engine: under a type-A
    # shift s at prior 1/2 the likelihood-ratio test thresholds d^T inv(S) s,
    # and its error is Phi(-delta / 2) with delta^2 = s^T inv(S) s.
    trials = 200_000
    suite = preset_table2(trials=trials)
    for index, (name, spec) in enumerate(suite.experiments):
        config = spec.to_config(experiment_seed(suite.seed, index))
        model = config.model
        ds, attacked = trial_deviations(config, 0, trials)
        shift = np.zeros(model.n)
        shift[list(config.attack.targets)] = config.attack.am
        w = np.linalg.solve(model.cov, shift)
        _, pe = optimize_exact(ds @ w, attacked)
        exact = float(ndtr(-0.5 * math.sqrt(shift @ w)))
        se = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(pe - exact) <= 5 * se, (name, pe, exact)
