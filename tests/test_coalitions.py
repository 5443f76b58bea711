import copy
import dataclasses
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
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


def test_rejects_non_integers_rather_than_truncate():
    with pytest.raises(TypeError):
        Coalition(1.7, 3)
    with pytest.raises(TypeError):
        Coalition(1, 2.5)
    with pytest.raises(TypeError):
        Coalition.of([0.9, 1.2], 2)
    # numpy integers still work, and leave plain ints behind
    s = Coalition(np.int64(5), np.int32(3))
    assert s == Coalition.of([np.intp(0), np.int8(2)], 3) == Coalition(5, 3)
    assert type(s.bits) is int and type(s.n) is int


def test_membership_outside_universe_is_false():
    assert 7 not in Coalition(0b111, 3)
    assert -1 not in Coalition(0b111, 3)


def test_trusted_coalition_equals_a_validated_one():
    for n, bits in ((0, 0), (1, 1), (5, 0b10110), (24, (1 << 24) - 1)):
        trusted, checked = Coalition._trusted(bits, n), Coalition(bits, n)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert list(trusted) == list(checked) and len(trusted) == len(checked)


def test_a_coalition_of_any_origin_carries_its_size():
    s = Coalition(0b10110, 6)
    made = [
        Coalition(0b10110, 6),
        Coalition.of([1, 2, 4], 6),
        Coalition._trusted(0b10110, 6),
        dataclasses.replace(Coalition(0b1, 6), bits=0b10110),
        copy.copy(s),
        copy.deepcopy(s),
        pickle.loads(pickle.dumps(s)),
    ]
    for c in made:
        assert len(c) == c.bits.bit_count() == 3
        assert c == s and hash(c) == hash(s)
        assert repr(c) == "Coalition(bits=22, n=6)"
    assert len(dataclasses.replace(s, bits=0b1)) == 1
    for n, bits in ((0, 0), (1, 1), (24, (1 << 24) - 1), (24, 0b1011 << 20)):
        for c in (Coalition(bits, n), Coalition._trusted(bits, n)):
            assert len(c) == bits.bit_count()
    # the size is not a constructor argument, a match position or a compared field
    assert Coalition.__match_args__ == ("bits", "n")
    with pytest.raises(TypeError):
        Coalition(0b1, 2, 1)


def test_pickle_and_deepcopy_round_trip():
    for s in (Coalition.of([0, 3], 5), Coalition._trusted(0b1001, 5)):
        assert pickle.loads(pickle.dumps(s)) == s
        assert copy.deepcopy(s) == s


def test_frozen_and_slotted():
    s = Coalition(0b11, 3)
    with pytest.raises(FrozenInstanceError):
        s.bits = 1
    assert not hasattr(s, "__dict__")
