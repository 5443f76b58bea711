import pytest

from shaploc import Coalition


def test_membership_and_iteration():
    s = Coalition.of([0, 3, 5], 6)
    assert len(s) == 3
    assert 3 in s and 1 not in s
    assert list(s) == [0, 3, 5]


def test_empty_and_full():
    assert len(Coalition(0, 4)) == 0
    assert not Coalition(0, 4)
    assert Coalition.of(range(4), 4) == Coalition(0b1111, 4)
    assert tuple(Coalition(0b1111, 4)) == (0, 1, 2, 3)


def test_rejects_out_of_universe():
    with pytest.raises(ValueError):
        Coalition.of([4], 3)
    with pytest.raises(ValueError):
        Coalition(bits=0b1000, n=3)
    with pytest.raises(ValueError):
        Coalition.of([-1], 3)


def test_membership_outside_universe_is_false():
    assert 7 not in Coalition(0b111, 3)
    assert -1 not in Coalition(0b111, 3)
