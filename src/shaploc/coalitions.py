"""Coalitions of sensor indices, stored as fixed-width bit masks."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True)
class Coalition:
    """A subset of the sensor indices 0..n-1.

    ``bits`` is the membership mask (bit j set iff sensor j is a member) and
    ``n`` is the universe size.  Instances are immutable.  Every public
    constructor validates its arguments.
    """

    bits: int
    n: int

    def __post_init__(self) -> None:
        # accept numpy integers without letting them poison bit arithmetic,
        # and refuse floats rather than truncate them
        object.__setattr__(self, "bits", operator.index(self.bits))
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 0:
            raise ValueError(f"universe size must be non-negative, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(
                f"bit mask {self.bits:#x} does not fit a universe of size {self.n}"
            )

    @classmethod
    def of(cls, indices: Iterable[int], n: int) -> "Coalition":
        bits = 0
        for i in indices:
            i = operator.index(i)
            if not 0 <= i < n:
                raise ValueError(f"sensor index {i} outside universe of size {n}")
            bits |= 1 << i
        return cls(bits, n)

    @classmethod
    def _trusted(cls, bits: int, n: int) -> "Coalition":
        """A coalition of a mask the engine made, so known to fit: no checks.

        Validation would triple the cost of the coalitions the Shapley
        engine hands to a value function one at a time.
        """
        s = object.__new__(cls)
        _set_bits(s, bits)
        _set_n(s, n)
        return s

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool((self.bits >> i) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __bool__(self) -> bool:
        return self.bits != 0


# the slots' own setters skip the frozen class's __setattr__, and take about
# half the time of object.__setattr__
_set_bits = Coalition.bits.__set__
_set_n = Coalition.n.__set__
