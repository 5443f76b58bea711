"""Additive sensor attacks injected on top of clean observations.

Three attack kinds, all additive on the targeted sensors:

* ``A`` - constant offset AM
* ``B`` - Gaussian offset with mean AM and standard deviation sigma_a
* ``C`` - Uniform(0, UM) offset plus the constant AM
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coalitions import Coalition

ATTACK_KINDS = ("A", "B", "C")


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    am: float
    targets: Coalition
    sigma_a: float | None = None
    um: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not np.isfinite(self.am):
            raise ValueError("attack magnitude must be finite")
        if not isinstance(self.targets, Coalition):
            raise TypeError(f"attack targets must be a Coalition, got {type(self.targets).__name__}")
        if not self.targets:
            raise ValueError("attack must target at least one sensor")
        if self.kind == "B":
            if self.sigma_a is None or not 0 <= self.sigma_a < np.inf:
                raise ValueError("type-B attack requires a finite sigma_a >= 0")
        elif self.sigma_a is not None:
            raise ValueError(f"sigma_a only applies to type-B attacks, not {self.kind}")
        if self.kind == "C":
            if self.um is None or not 0 <= self.um < np.inf:
                raise ValueError("type-C attack requires a finite um >= 0")
        elif self.um is not None:
            raise ValueError(f"um only applies to type-C attacks, not {self.kind}")
        # the harness adds attacked * offset to every trial, so an offset that
        # overflows to inf would turn the clean trials' zeros into NaN.  numpy's
        # ziggurat draws its tail as r - ln(1 - U) / r with r = 3.654 and
        # 1 - U >= 2^-53, so |z| <= r + 53 ln(2) / r = 13.7 < 38
        if not np.isfinite(abs(self.am) + 38.0 * (self.sigma_a or 0.0) + (self.um or 0.0)):
            raise ValueError("attack offsets would overflow float64")

    @property
    def constant(self) -> bool:
        """Whether every offset is am: type A, or type B with sigma_a == 0."""
        return self.kind == "A" or (self.kind == "B" and self.sigma_a == 0.0)


def draw_offsets(spec: AttackSpec, rng, out: np.ndarray) -> np.ndarray:
    """Attack offsets of ``out.shape[0]`` trials, one column per target sensor.

    Type B draws ``am + sigma_a * z`` from ``rng.standard_normal`` and type
    C ``am + um * u`` from ``rng.random``, #targets values per trial in
    trial order, into ``out`` of shape (trials, #targets), and returns it.
    A constant offset (``spec.constant``) draws nothing, so ``rng`` may be
    None; it leaves ``out`` alone and comes back as a read-only broadcast
    of ``am``.
    """
    if spec.constant:
        return np.broadcast_to(np.float64(spec.am), out.shape)
    if spec.kind == "B":
        rng.standard_normal(out=out)
        out *= spec.sigma_a
    else:
        rng.random(out=out)
        out *= spec.um
    out += spec.am
    return out
