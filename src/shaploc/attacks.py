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
        # overflows to inf would turn the clean trials' zeros into NaN; the
        # largest |ndtri| of a clipped uniform is 37.05, at 1e-300
        if not np.isfinite(abs(self.am) + 38.0 * (self.sigma_a or 0.0) + (self.um or 0.0)):
            raise ValueError("attack offsets would overflow float64")


def offsets_from_uniforms(spec: AttackSpec, u: np.ndarray) -> np.ndarray:
    """Attack offsets from pre-drawn uniforms, one column per target sensor.

    Inverse-CDF mapping so the Monte Carlo harness can budget exactly one
    uniform per target per trial.  Shape of ``u`` is (trials, #targets).
    A constant offset comes back as a read-only broadcast of ``am``; no
    result shares memory with ``u``.
    """
    if spec.kind == "A" or (spec.kind == "B" and spec.sigma_a == 0.0):
        return np.broadcast_to(np.asarray(spec.am, u.dtype), u.shape)
    if spec.kind == "B":
        from scipy.special import ndtri  # on first use, as in harness._chunk_observations

        z = ndtri(np.clip(u, 1e-300, 1.0))
        return spec.am + spec.sigma_a * z
    return spec.am + spec.um * u
