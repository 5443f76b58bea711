import numpy as np
import pytest

from shaploc import AttackSpec, Coalition, apply_attack
from shaploc.attacks import offsets_from_uniforms

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


def test_constant_offset():
    spec = AttackSpec(kind="A", am=10.0, targets=T1)
    assert np.array_equal(apply_attack(spec, [1.0, 2.0]), [11.0, 2.0])


def test_gaussian_with_zero_spread_degenerates_to_constant():
    a = AttackSpec(kind="A", am=3.0, targets=T1)
    b = AttackSpec(kind="B", am=3.0, targets=T1, sigma_a=0.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=2)
        assert np.array_equal(
            apply_attack(a, x), apply_attack(b, x, np.random.default_rng(1))
        )


def test_uniform_with_zero_width_is_deterministic_shift():
    spec = AttackSpec(kind="C", am=9.95, targets=T1, um=0.0)
    got = apply_attack(spec, [0.5, -0.5], np.random.default_rng(2))
    assert np.allclose(got, [10.45, -0.5])


def test_non_targets_bit_identical():
    spec = AttackSpec(kind="B", am=5.0, targets=Coalition.of([1], 3), sigma_a=2.0)
    x = np.array([0.123456789, -7.0, 3.14])
    y = apply_attack(spec, x, np.random.default_rng(3))
    assert y[0] == x[0] and y[2] == x[2]
    assert y[1] != x[1]


def test_input_unchanged_and_stream_deterministic():
    spec = AttackSpec(kind="C", am=1.0, targets=T1, um=2.0)
    x = np.array([0.0, 0.0])
    y1 = apply_attack(spec, x, np.random.default_rng(4))
    y2 = apply_attack(spec, x, np.random.default_rng(4))
    assert np.array_equal(x, [0.0, 0.0])
    assert np.array_equal(y1, y2)


def test_random_kinds_require_stream():
    spec = AttackSpec(kind="B", am=1.0, targets=T1, sigma_a=1.0)
    with pytest.raises(ValueError, match="stream"):
        apply_attack(spec, [0.0, 0.0])


def test_rejects_non_finite_observation():
    spec = AttackSpec(kind="A", am=1.0, targets=T1)
    with pytest.raises(ValueError):
        apply_attack(spec, [np.nan, 0.0])


def test_multi_target_attack():
    spec = AttackSpec(kind="A", am=2.0, targets=Coalition.of([0, 1], 2))
    assert np.array_equal(apply_attack(spec, [1.0, 1.0]), [3.0, 3.0])


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


def test_apply_attack_offset_mean_small_sample():
    am, sigma_a = 4.0, 1.5
    spec = AttackSpec(kind="B", am=am, targets=T1, sigma_a=sigma_a)
    rng = np.random.default_rng(7)
    n = 10**4
    offsets = [apply_attack(spec, [0.0, 0.0], rng)[0] for _ in range(n)]
    assert abs(np.mean(offsets) - am) < 4 * sigma_a / np.sqrt(n)
