"""Affine maps of the integers, z -> sign*z + shift with sign = +1 or -1.

These represent the automorphisms arising from quandles on Z whose point
symmetries are reflections (sign -1); products of an even number of
reflections are translations (sign +1).  Products follow the package-wide
convention: ``f * g`` applies f first.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SignedAffine:
    sign: int
    shift: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @staticmethod
    def identity() -> "SignedAffine":
        return SignedAffine(1, 0)

    def act(self, z: int) -> int:
        return self.sign * z + self.shift

    def __mul__(self, other: "SignedAffine") -> "SignedAffine":
        # z -> other(self(z))
        return SignedAffine(self.sign * other.sign, other.sign * self.shift + other.shift)

    def inverse(self) -> "SignedAffine":
        return SignedAffine(self.sign, -self.sign * self.shift)

    def is_identity(self) -> bool:
        return self.sign == 1 and self.shift == 0

    def is_translation(self) -> bool:
        return self.sign == 1

    def key(self) -> str:
        s = "z" if self.sign == 1 else "-z"
        return f"{s}{self.shift:+d}"

    def __repr__(self):
        return f"SignedAffine({self.key()})"
