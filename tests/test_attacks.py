import numpy as np
import pytest

from shaploc import AttackSpec, Coalition, ExperimentConfig, GaussianModel
from shaploc.attacks import draw_offsets

from harness_helpers import trial_deviations

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


class Fixed:
    """A stand-in generator that fills every draw from fixed values, in turn."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, out):
        out[...] = np.resize(self.values, out.shape)

    standard_normal = random


class Refuses:
    """A generator that fails the test if anything is drawn from it."""

    def random(self, out):
        raise AssertionError("a constant offset drew from the stream")

    standard_normal = random


def test_offsets_that_could_overflow_are_rejected():
    # the harness adds attacked * offset to every trial, and a clean trial's
    # zero times an infinite offset would be NaN
    with pytest.raises(ValueError, match="overflow"):
        AttackSpec(kind="B", am=0.0, targets=T1, sigma_a=1e307)
    with pytest.raises(ValueError, match="overflow"):
        AttackSpec(kind="C", am=-1e308, targets=T1, um=1e308)
    model = GaussianModel([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
    # numpy's ziggurat normals lie within r + 53 ln(2) / r of zero, and
    # uniforms within [0, 1 - 2^-53]
    r = 3.6541528853610088
    z_max = r + 53 * np.log(2.0) / r
    assert 13.7 < z_max < 13.8
    for attack, extremes in (
        (AttackSpec(kind="B", am=0.0, targets=T1, sigma_a=4e306), [-z_max, 0.0, z_max]),
        (AttackSpec(kind="C", am=-8e307, targets=T1, um=8e307), [0.0, 0.5, 1.0 - 2.0**-53]),
    ):
        assert np.isfinite(draw_offsets(attack, Fixed(extremes), np.empty((3, 1)))).all()
        config = ExperimentConfig(model=model, attack=attack, trials=2000, seed=1)
        xs, attacked = trial_deviations(config, 0, 2000)
        assert 0 < np.count_nonzero(attacked) < 2000
        assert np.isfinite(xs[~attacked]).all()


def test_targets_must_be_a_coalition():
    # refused when the spec is built, not later inside ExperimentConfig
    for bad in ([0], (0,), {0}, 1, None):
        with pytest.raises(TypeError, match="Coalition"):
            AttackSpec(kind="A", am=1.0, targets=bad)


def test_constant_offset():
    spec = AttackSpec(kind="A", am=10.0, targets=T1)
    out = np.zeros((5, 1))
    offsets = draw_offsets(spec, Refuses(), out)
    assert np.array_equal(offsets, np.full((5, 1), 10.0))
    assert not offsets.flags.writeable  # a broadcast, not the caller's buffer
    assert not out.any()
    # so a constant offset needs no generator at all
    assert spec.constant and np.array_equal(draw_offsets(spec, None, out), offsets)


def test_gaussian_with_zero_spread_degenerates_to_constant():
    a = AttackSpec(kind="A", am=3.0, targets=T1)
    b = AttackSpec(kind="B", am=3.0, targets=T1, sigma_a=0.0)
    got = draw_offsets(b, Refuses(), np.empty((5, 1)))
    assert np.array_equal(got, draw_offsets(a, Refuses(), np.empty((5, 1))))
    assert np.array_equal(got, np.full((5, 1), 3.0)) and not got.flags.writeable


def test_uniform_with_zero_width_is_deterministic_shift():
    spec = AttackSpec(kind="C", am=9.95, targets=T1, um=0.0)
    offsets = draw_offsets(spec, np.random.default_rng(2), np.empty((5, 1)))
    assert np.array_equal(offsets, np.full((5, 1), 9.95))


def test_non_targets_bit_identical():
    # two attacks on sensor 1 that draw the same labels and normals: the
    # harness's trials differ only there, and only on attacked trials
    model = GaussianModel([0.0, 1.0, -1.0], np.eye(3) + 0.3)
    targets = Coalition.of([1], 3)
    runs = [
        trial_deviations(ExperimentConfig(model=model, attack=attack, trials=200, seed=3), 0, 200)
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
    # the offsets go into the caller's buffer, trial-major: trial j's come
    # from draws 2j and 2j + 1, and the same generator state gives the same bits
    spec = AttackSpec(kind="C", am=1.0, targets=Coalition.of([0, 1], 2), um=2.0)
    out = np.empty((5, 2))
    y1 = draw_offsets(spec, np.random.default_rng(4), out)
    y2 = draw_offsets(spec, np.random.default_rng(4), np.empty((5, 2)))
    assert y1 is out
    assert np.array_equal(y1, y2)
    assert np.array_equal(y2, 1.0 + 2.0 * np.random.default_rng(4).random(10).reshape(5, 2))


def test_random_kinds_require_stream():
    # the random kinds draw exactly one value per target and trial, each
    # mapped to its own offset in order; kind A draws none
    a = AttackSpec(kind="A", am=1.0, targets=T1)
    assert np.array_equal(draw_offsets(a, Refuses(), np.empty((3, 1))), np.full((3, 1), 1.0))
    for spec, method in (
        (AttackSpec(kind="B", am=1.0, targets=T1, sigma_a=1.0), "standard_normal"),
        (AttackSpec(kind="C", am=1.0, targets=T1, um=1.0), "random"),
    ):
        offsets = draw_offsets(spec, Fixed([0.1, 0.5, 0.9]), np.empty((3, 1)))[:, 0]
        assert np.all(np.diff(offsets) > 0)
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        draw_offsets(spec, rng, np.empty((3, 1)))
        getattr(twin, method)(3)
        assert rng.random() == twin.random()


def test_multi_target_attack():
    spec = AttackSpec(kind="A", am=2.0, targets=Coalition.of([0, 1], 2))
    assert np.array_equal(draw_offsets(spec, Refuses(), np.empty((3, 2))), np.full((3, 2), 2.0))
    spec = AttackSpec(kind="B", am=2.0, targets=Coalition.of([0, 1], 2), sigma_a=0.5)
    want = 2.0 + 0.5 * np.random.default_rng(8).standard_normal((3, 2))
    assert np.array_equal(draw_offsets(spec, np.random.default_rng(8), np.empty((3, 2))), want)


def test_gaussian_offset_mean():
    am, sigma_a = 4.0, 1.5
    spec = AttackSpec(kind="B", am=am, targets=T1, sigma_a=sigma_a)
    offsets = draw_offsets(spec, np.random.default_rng(5), np.empty((10**6, 1)))
    assert np.array_equal(offsets, am + sigma_a * np.random.default_rng(5).standard_normal((10**6, 1)))
    assert abs(offsets.mean() - am) < 4 * sigma_a / 1000
    assert abs(offsets.std() - sigma_a) < 4 * sigma_a / np.sqrt(2e6)


def test_uniform_offset_mean():
    am, um = 9.95, 0.1
    spec = AttackSpec(kind="C", am=am, targets=T1, um=um)
    offsets = draw_offsets(spec, np.random.default_rng(6), np.empty((10**6, 1)))
    assert np.array_equal(offsets, am + um * np.random.default_rng(6).random((10**6, 1)))
    assert abs(offsets.mean() - (am + um / 2)) < 4 * (um / np.sqrt(12)) / 1000
    assert am <= offsets.min() and offsets.max() <= am + um
