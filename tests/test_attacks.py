import numpy as np
import pytest

from shaploc import AttackSpec, Coalition, ExperimentConfig, GaussianModel
from shaploc.attacks import offsets_from_uniforms
from shaploc.harness import _trial_observations

T1 = Coalition.of([0], 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(kind="D", am=1.0, targets=T1)
    with pytest.raises(ValueError, match="sigma_a"):
        AttackSpec(kind="B", am=1.0, targets=T1)
    with pytest.raises(ValueError, match="um"):
        AttackSpec(kind="C", am=1.0, targets=T1)
    with pytest.raises(ValueError, match="sigma_a"):
        AttackSpec(kind="A", am=1.0, targets=T1, sigma_a=0.5)
    with pytest.raises(ValueError, match="um"):
        AttackSpec(kind="B", am=1.0, targets=T1, sigma_a=0.5, um=1.0)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="sigma_a"):
            AttackSpec(kind="B", am=1.0, targets=T1, sigma_a=bad)
        with pytest.raises(ValueError, match="um"):
            AttackSpec(kind="C", am=1.0, targets=T1, um=bad)
    with pytest.raises(ValueError, match="target"):
        AttackSpec(kind="A", am=1.0, targets=Coalition(0, 2))


def test_offsets_that_could_overflow_are_rejected():
    # the harness adds attacked * offset to every trial, and a clean trial's
    # zero times an infinite offset would be NaN
    with pytest.raises(ValueError, match="overflow"):
        AttackSpec(kind="B", am=0.0, targets=T1, sigma_a=1e307)
    with pytest.raises(ValueError, match="overflow"):
        AttackSpec(kind="C", am=-1e308, targets=T1, um=1e308)
    model = GaussianModel([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
    extremes = np.array([[0.0], [1e-300], [0.5], [1.0 - 2.0**-53]])
    for attack in (
        AttackSpec(kind="B", am=0.0, targets=T1, sigma_a=4e306),
        AttackSpec(kind="C", am=-8e307, targets=T1, um=8e307),
    ):
        assert np.isfinite(offsets_from_uniforms(attack, extremes)).all()
        config = ExperimentConfig(model=model, attack=attack, trials=2000, seed=1)
        xs, attacked = _trial_observations(config, 0, 2000)
        assert 0 < np.count_nonzero(attacked) < 2000
        assert np.isfinite(xs[~attacked]).all()


def test_targets_must_be_a_coalition():
    # refused when the spec is built, not later inside ExperimentConfig
    for bad in ([0], (0,), {0}, 1, None):
        with pytest.raises(TypeError, match="Coalition"):
            AttackSpec(kind="A", am=1.0, targets=bad)


def test_constant_offset():
    spec = AttackSpec(kind="A", am=10.0, targets=T1)
    u = np.random.default_rng(0).random((5, 1))
    assert np.array_equal(offsets_from_uniforms(spec, u), np.full((5, 1), 10.0))


def test_gaussian_with_zero_spread_degenerates_to_constant():
    a = AttackSpec(kind="A", am=3.0, targets=T1)
    b = AttackSpec(kind="B", am=3.0, targets=T1, sigma_a=0.0)
    u = np.random.default_rng(1).random((5, 1))
    assert np.array_equal(offsets_from_uniforms(a, u), offsets_from_uniforms(b, u))


def test_uniform_with_zero_width_is_deterministic_shift():
    spec = AttackSpec(kind="C", am=9.95, targets=T1, um=0.0)
    u = np.random.default_rng(2).random((5, 1))
    assert np.array_equal(offsets_from_uniforms(spec, u), np.full((5, 1), 9.95))


def test_non_targets_bit_identical():
    # two attacks on sensor 1 that draw the same uniforms: the harness's
    # trials differ only there, and only on attacked trials
    model = GaussianModel([0.0, 1.0, -1.0], np.eye(3) + 0.3)
    targets = Coalition.of([1], 3)
    runs = [
        _trial_observations(ExperimentConfig(model=model, attack=attack, trials=200, seed=3), 0, 200)
        for attack in (
            AttackSpec(kind="A", am=0.0, targets=targets),
            AttackSpec(kind="B", am=5.0, targets=targets, sigma_a=2.0),
        )
    ]
    (plain, attacked), (shifted, attacked_again) = runs
    assert np.array_equal(attacked, attacked_again) and attacked.any()
    assert np.array_equal(shifted[:, [0, 2]], plain[:, [0, 2]])
    assert np.array_equal(shifted[~attacked], plain[~attacked])
    assert np.all(shifted[attacked, 1] != plain[attacked, 1])


def test_input_unchanged_and_stream_deterministic():
    spec = AttackSpec(kind="C", am=1.0, targets=T1, um=2.0)
    u = np.random.default_rng(4).random((5, 1))
    before = u.copy()
    y1 = offsets_from_uniforms(spec, u)
    y2 = offsets_from_uniforms(spec, np.random.default_rng(4).random((5, 1)))
    assert np.array_equal(u, before)
    assert np.array_equal(y1, y2)


def test_random_kinds_require_stream():
    # the random kinds map each uniform to its own offset; kind A reads none
    u = np.array([[0.1], [0.5], [0.9]])
    a = AttackSpec(kind="A", am=1.0, targets=T1)
    assert np.array_equal(offsets_from_uniforms(a, u), offsets_from_uniforms(a, 1.0 - u))
    for spec in (
        AttackSpec(kind="B", am=1.0, targets=T1, sigma_a=1.0),
        AttackSpec(kind="C", am=1.0, targets=T1, um=1.0),
    ):
        offsets = offsets_from_uniforms(spec, u)[:, 0]
        assert np.all(np.diff(offsets) > 0)


def test_multi_target_attack():
    spec = AttackSpec(kind="A", am=2.0, targets=Coalition.of([0, 1], 2))
    assert np.array_equal(offsets_from_uniforms(spec, np.zeros((3, 2))), np.full((3, 2), 2.0))


def test_gaussian_offset_mean():
    am, sigma_a = 4.0, 1.5
    spec = AttackSpec(kind="B", am=am, targets=T1, sigma_a=sigma_a)
    u = np.random.default_rng(5).random((10**6, 1))
    offsets = offsets_from_uniforms(spec, u)
    assert abs(offsets.mean() - am) < 4 * sigma_a / 1000


def test_uniform_offset_mean():
    am, um = 9.95, 0.1
    spec = AttackSpec(kind="C", am=am, targets=T1, um=um)
    u = np.random.default_rng(6).random((10**6, 1))
    offsets = offsets_from_uniforms(spec, u)
    assert abs(offsets.mean() - (am + um / 2)) < 4 * (um / np.sqrt(12)) / 1000
