"""Permutations and the groups they generate, as actions on points.

This module owns what acts on points: ``Permutation``, the breadth-first
enumeration of a ``PermGroup`` (shortest word first, generator order
breaking ties), orbits, free actions and word lengths.  Group algebra
(normal closures, commutators, quotients, abelian invariants, element
orders) lives in ``quandles.groups`` and runs on indices: an enumerated
``PermGroup`` hands it its Cayley table through ``PermGroup.table()``.
No stabilizer chains; everything is desk scale.

Generators come in one form everywhere in the package: a sequence of
(name, automorphism) pairs, as ``inner_generators()`` returns them.
``PermGroup``, ``group_closure``, ``orbits`` and ``word_length`` take
that and only that; ``_named`` is the one check, and anything else is a
TypeError.

Composition convention, used consistently across the package: the product
``f * g`` means "apply f, then g".  Acting on the right, ``x . (f g) =
g(f(x))``.  Inverses and conjugation follow the same reading, so
``h.inverse() * g * h`` is "conjugate g by h".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import BoundExceededError

DEFAULT_GROUP_BOUND = 200_000


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, .., n-1}, stored as its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.images}")

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @staticmethod
    def from_mapping(mapping: dict, degree: int) -> "Permutation":
        images = list(range(degree))
        for k, v in mapping.items():
            images[k] = v
        return Permutation(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def act(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == img for i, img in enumerate(self.images))

    def order(self) -> int:
        k = 1
        p = self
        while not p.is_identity():
            p = p * self
            k += 1
        return k

    def key(self) -> str:
        return "[" + ",".join(str(i) for i in self.images) + "]"

    def __repr__(self):
        return f"Permutation({self.images})"


def _named(generators) -> list[tuple[str, object]]:
    """The generators as a list of (name, automorphism) pairs, the one
    form every entry point takes; anything else is a TypeError."""
    named = list(generators)
    for g in named:
        if not (isinstance(g, tuple) and len(g) == 2 and isinstance(g[0], str)):
            raise TypeError(f"a generator must be a (name, automorphism) pair, got {g!r}")
    return named


class PermGroup:
    """A permutation group given by (name, permutation) generators,
    enumerated on demand.

    The element list is deterministic: breadth-first over words in the
    generators, shortest word first, with ties broken by generator order.
    The identity is always elements[0].
    """

    def __init__(self, generators):
        self.generators = _named(generators)
        if not self.generators:
            raise ValueError("PermGroup needs at least one generator")
        self.degree = self.generators[0][1].degree
        for name, g in self.generators:
            if g.degree != self.degree:
                raise ValueError(f"generator {name} has mismatched degree")
        self._table = None

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(group_closure(self.generators))

    @cached_property
    def index(self) -> dict[Permutation, int]:
        """Position of each element in ``elements``."""
        return {p: i for i, p in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def table(self):
        """The Cayley table as a ``groups.GroupTable``: index i is
        ``elements[i]``, so the identity is 0."""
        if self._table is None:
            from .groups import group_from_elements

            self._table = group_from_elements(list(self.elements), mul)
        return self._table

    def __contains__(self, p: Permutation) -> bool:
        return p in self.index

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        names = ",".join(name for name, _ in self.generators)
        return f"PermGroup(<{names}>, degree={self.degree})"


def group_closure(
    generators: Sequence[tuple[str, Permutation]], bound: int = DEFAULT_GROUP_BOUND
) -> list[Permutation]:
    """Enumerate the group generated by the (name, permutation) pairs
    ``generators``.

    Breadth-first multiplication on the right; for a finite group this
    closes up (inverses are powers).  Raises BoundExceededError once more
    than ``bound`` elements have been found.
    """
    generators = [g for _, g in _named(generators)]
    if not generators:
        raise ValueError("need at least one generator")
    identity = Permutation.identity(generators[0].degree)
    seen = {identity}
    order = [identity]
    frontier = [identity]
    while frontier:
        new = []
        for el in frontier:
            for g in generators:
                prod = el * g
                if prod not in seen:
                    seen.add(prod)
                    order.append(prod)
                    new.append(prod)
                    if len(seen) > bound:
                        raise BoundExceededError("group closure", bound)
        frontier = new
    return order


def orbits(generators, domain: Iterable[int]) -> list[list[int]]:
    """Partition ``domain`` into orbits under the group generated by the
    (name, permutation) pairs ``generators`` (``PermGroup.generators``).

    Orbits are sorted internally and listed by smallest element, so the
    output is canonical.
    """
    steps = [s for _, g in _named(generators) for s in (g, g.inverse())]
    domain = list(domain)
    remaining = set(domain)
    parts = []
    for start in domain:
        if start not in remaining:
            continue
        orbit = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for s in steps:
                y = s.act(x)
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        parts.append(sorted(orbit))
        remaining -= orbit
    return parts


def first_fixed_point(
    elements: Iterable[Permutation], orbit: Iterable[int]
) -> Optional[tuple[Permutation, int]]:
    """The first (element, point) of ``orbit`` that a non-identity element
    fixes, element-major; None iff the elements act freely on ``orbit``."""
    pts = list(orbit)
    for g in elements:
        if not g.is_identity():
            for p in pts:
                if g.act(p) == p:
                    return g, p
    return None


def quotient_is_cyclic(group: PermGroup, sub: PermGroup) -> tuple[bool, int]:
    """Whether group/sub is cyclic (sub must be normal).  Returns (flag, order)."""
    quotient = group.table().quotient([group.index[p] for p in sub.elements])
    return quotient.is_cyclic(), quotient.size


def word_length(generators, target, max_length: int) -> Optional[int]:
    """Length of the shortest word in the (name, automorphism) pairs
    ``generators`` (and their inverses) equal to ``target``, or None if no
    word of length <= max_length works.

    Works for any automorphism representation with exact equality and
    hashing, not just Permutation; mixing representations is a TypeError.
    """
    named = _named(generators)
    if not named:
        raise ValueError("word_length needs at least one generator")
    family = type(named[0][1])
    for name, g in named:
        if type(g) is not family:
            raise TypeError(f"generator {name} is a {type(g).__name__}, expected {family.__name__}")
    if type(target) is not family:
        raise TypeError(f"target is a {type(target).__name__}, expected {family.__name__}")

    steps = []
    for _, g in named:
        steps.append(g)
        steps.append(g.inverse())
    identity = named[0][1] * named[0][1].inverse()
    if target == identity:
        return 0
    seen = {identity}
    frontier = [identity]
    for depth in range(1, max_length + 1):
        new = []
        for el in frontier:
            for s in steps:
                prod = el * s
                if prod in seen:
                    continue
                if prod == target:
                    return depth
                seen.add(prod)
                new.append(prod)
        if not new:
            return None
        frontier = new
    return None
