"""Free quandles over a finite alphabet.

Elements are conjugates a^w of the letters a inside the free group F on
the alphabet, with a^w = a^v exactly when w and v differ by a leading
power of a.  We store the pair (base letter, reduced tail word) with the
tail normalized to not begin with base^+-1, which makes the pair unique.

The quandle operation is conjugation:  a^w ◁ b^v = a^(w v^-1 b v), so
every inner automorphism acts by right-multiplying the tail by a reduced
word.  That gives a faithful, exactly comparable representation of the
inner group (FreeWordAut below).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Letter = tuple[str, int]  # (symbol, +1 or -1)


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent x x^-1 pairs; returns the reduced word as a tuple."""
    stack: list[Letter] = []
    for sym, e in letters:
        if e not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {e!r}")
        if stack and stack[-1][0] == sym and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((sym, e))
    return tuple(stack)


def word_inverse(word: Iterable[Letter]) -> tuple[Letter, ...]:
    return tuple((sym, -e) for sym, e in reversed(list(word)))


def word_mul(a: Iterable[Letter], b: Iterable[Letter]) -> tuple[Letter, ...]:
    """Product of two reduced words.  Only letters at the seam can cancel,
    so the result is reduced too; use free_reduce on unreduced input."""
    a, b = tuple(a), tuple(b)
    k, m = 0, min(len(a), len(b))
    while k < m:
        sym, e = b[k]
        if a[-1 - k] != (sym, -e):
            break
        k += 1
    return a[: len(a) - k] + b[k:]


@dataclass(frozen=True)
class FreeQuandleElement:
    """a^w in normal form: ``tail`` never starts with (base, +-1)."""

    base: str
    tail: tuple[Letter, ...] = ()

    def key(self) -> str:
        if not self.tail:
            return f"{self.base}^1"
        body = "*".join(sym if e > 0 else f"{sym}^-1" for sym, e in self.tail)
        return f"{self.base}^{body}"

    def __repr__(self):
        return f"FreeQuandleElement({self.key()})"


def fq_normalize(base: str, tail: Iterable[Letter]) -> FreeQuandleElement:
    """Normal form of base^tail for any word ``tail``."""
    return fq_from_reduced(base, free_reduce(tail))


def fq_from_reduced(base: str, word: tuple[Letter, ...]) -> FreeQuandleElement:
    """Strip the maximal leading power of ``base`` from a reduced tail."""
    i = 0
    while i < len(word) and word[i][0] == base:
        i += 1
    # a leading run of base letters in a reduced word has constant sign,
    # so dropping the whole run is exactly dividing by base^k
    return FreeQuandleElement(base, word[i:])


def parse_fq_key(s: str) -> FreeQuandleElement:
    """Inverse of FreeQuandleElement.key, e.g. "a^b*c^-1" or "a^1"."""
    if "^" not in s:
        raise ValueError(f"free quandle key needs base^word, got {s!r}")
    base, _, body = s.partition("^")
    if not base:
        raise ValueError(f"missing base letter in {s!r}")
    if body == "1":
        return fq_normalize(base, ())
    tail = []
    for part in body.split("*"):
        if part.endswith("^-1"):
            part, sign = part[:-3], -1
        else:
            sign = 1
        if not part:
            raise ValueError(f"empty factor in {s!r}")
        if "^" in part:
            raise ValueError(f"only exponents 1 and -1 are allowed, got {s!r}")
        tail.append((part, sign))
    return fq_normalize(base, tail)


def fq_op(x: FreeQuandleElement, y: FreeQuandleElement, exponent: int = 1) -> FreeQuandleElement:
    """x ◁ y (exponent +1) or x ◁^-1 y (exponent -1)."""
    if exponent not in (1, -1):
        raise ValueError("exponent must be +1 or -1")
    return fq_from_reduced(x.base, word_mul(x.tail, fq_conjugator(y, exponent)))


def fq_conjugator(y: FreeQuandleElement, exponent: int = 1) -> tuple[Letter, ...]:
    """The word v^-1 b^exponent v by which x ◁^exponent y right-multiplies
    the tail of x, for y = b^v.  The tail v of the normal form does not
    start with b^+-1, so the word is reduced as written."""
    return word_inverse(y.tail) + ((y.base, exponent),) + y.tail


@dataclass(frozen=True)
class FreeWordAut:
    """An inner automorphism of a free quandle: right-multiply the tail.

    The point symmetry at b^v is the word v^-1 b v; a general product of
    symmetries is the product of those words, reduced.  Composition is
    word concatenation, in apply-first order like the rest of the package.
    ``word`` is reduced, as every word built from symmetries is.
    """

    word: tuple[Letter, ...]

    @staticmethod
    def identity() -> "FreeWordAut":
        return FreeWordAut(())

    def act(self, x: FreeQuandleElement) -> FreeQuandleElement:
        return fq_from_reduced(x.base, word_mul(x.tail, self.word))

    def __mul__(self, other: "FreeWordAut") -> "FreeWordAut":
        return FreeWordAut(word_mul(self.word, other.word))

    def inverse(self) -> "FreeWordAut":
        return FreeWordAut(word_inverse(self.word))

    def is_identity(self) -> bool:
        return not self.word

    def key(self) -> str:
        if not self.word:
            return "1"
        return "*".join(sym if e > 0 else f"{sym}^-1" for sym, e in self.word)

    def __repr__(self):
        return f"FreeWordAut({self.key()})"
