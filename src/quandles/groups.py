"""Finite groups as explicit multiplication tables.

This module owns the group algebra of the package, all on element
indices: identity and inverses, element orders, subgroup closures,
normal closures, commutator subgroups, subgroups and quotients re-indexed
as tables of their own, cyclicity, abelian invariants and conjugacy
closure tests.  An enumerated ``perms.PermGroup`` reaches it through its
Cayley table (``PermGroup.table()``), which ``perms`` fills by gathers on
the group's images array, so index i is always the i-th element in
enumeration order.  Also a handful of stock groups for tests and demos;
``group_from_elements``, one product per table entry, builds those and
nothing else.
"""

from __future__ import annotations

from itertools import permutations as iter_permutations
from typing import Optional, Sequence

import numpy as np

from .errors import MalformedTableError
from .perms import Permutation
from .quandle import _automorphism_defect


class GroupTable:
    """A finite group on {0, .., n-1} given by its multiplication table
    mul[a][b] = a*b.  Associativity is assumed, identity and inverses are
    computed and checked."""

    def __init__(self, mul: Sequence[Sequence[int]]):
        n = len(mul)
        self.mul = tuple(tuple(map(int, row)) for row in mul)
        if any(len(row) != n for row in self.mul):
            raise MalformedTableError("multiplication table must be square")
        if n and (min(map(min, self.mul)) < 0 or max(map(max, self.mul)) >= n):
            raise MalformedTableError("table entry out of range")
        self.size = n
        t = np.array(self.mul, dtype=np.int64).reshape(n, n)
        points = np.arange(n)
        # the first e with e*x = x*e = x for all x, then for each a the
        # first b with a*b = b*a = e
        ident = np.flatnonzero((t == points).all(axis=1) & (t.T == points).all(axis=1))
        if not ident.size:
            raise MalformedTableError("table has no identity element")
        self.identity = int(ident[0])
        both = (t == self.identity) & (t.T == self.identity)
        lonely = np.flatnonzero(~both.any(axis=1))
        if lonely.size:
            raise MalformedTableError(f"element {lonely[0]} has no inverse")
        self.inverse = tuple(both.argmax(axis=1).tolist())

    def element_order(self, x: int) -> int:
        k, cur = 1, x
        while cur != self.identity:
            cur = self.mul[cur][x]
            k += 1
        return k

    def conj(self, x: int, by: int) -> int:
        """by^-1 * x * by."""
        return self.mul[self.mul[self.inverse[by]][x]][by]

    def is_automorphism(self, images: Sequence[int]) -> Optional[tuple[int, int]]:
        """None if the map is a bijective homomorphism, else a witness.

        The witness is (a, b) with images[a*b] != images[a]*images[b], or
        (-1, a) when the map is not injective at value a.
        """
        if sorted(images) != list(range(self.size)):
            dup = next(v for v in range(self.size) if list(images).count(v) != 1)
            return (-1, dup)
        # the quandle kernel compares images[a*b] with images[a]*images[b]
        # over the whole table, reporting the first (a, b) in row-major order
        return _automorphism_defect(np.asarray(self.mul, dtype=np.int64), np.asarray(images, dtype=np.int64))

    def conjugation_closed(self, subset: Sequence[int]) -> Optional[tuple[int, int]]:
        """None if subset is closed under conjugation by the whole group,
        else a witness (x, by) with conj(x, by) outside the subset."""
        inside = set(subset)
        for x in subset:
            for by in range(self.size):
                if self.conj(x, by) not in inside:
                    return (x, by)
        return None

    def right_translation(self, x: int) -> Permutation:
        """The permutation y -> y*x of the regular representation."""
        return Permutation(tuple(self.mul[y][x] for y in range(self.size)))

    def subgroup_closure(self, subset: Sequence[int]) -> list[int]:
        """Elements of the subgroup generated by ``subset``, sorted."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(subset) + [self.inverse[x] for x in subset]
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    b = self.mul[a][g]
                    if b not in seen:
                        seen.add(b)
                        new.append(b)
            frontier = new
        return sorted(seen)

    def normal_closure_of(self, x: int) -> list[int]:
        conjugates = {self.conj(x, by) for by in range(self.size)}
        return self.subgroup_closure(sorted(conjugates))

    def commutator_of_subgroup(
        self, subset: Sequence[int], other: Optional[Sequence[int]] = None
    ) -> list[int]:
        """Elements of [H, K] = <a^-1 b^-1 a b : a in H, b in K>, sorted,
        for H = ``subset`` and K = ``other`` (default K = H)."""
        others = subset if other is None else other
        comms = {
            self.mul[self.mul[self.inverse[a]][self.inverse[b]]][self.mul[a][b]]
            for a in subset
            for b in others
        }
        return self.subgroup_closure(sorted(comms))

    def subgroup(self, subset: Sequence[int]) -> "GroupTable":
        """The subgroup on ``subset`` (which must be closed under products)
        as a table of its own: index i is the i-th smallest of ``subset``."""
        els = sorted(subset)
        pos = {x: i for i, x in enumerate(els)}
        return GroupTable([[pos[self.mul[a][b]] for b in els] for a in els])

    def quotient(self, normal: Sequence[int]) -> "GroupTable":
        """The table of G/N for the normal subgroup N = ``normal``.  Each
        coset Nx is keyed by its smallest element min(n*x for n in N), and
        cosets are numbered in increasing key order."""
        key = [min(self.mul[n][x] for n in normal) for x in range(self.size)]
        keys = sorted(set(key))
        pos = {k: i for i, k in enumerate(keys)}
        return GroupTable([[pos[key[self.mul[a][b]]] for b in keys] for a in keys])

    def is_cyclic(self) -> bool:
        return any(self.element_order(x) == self.size for x in range(self.size))

    def abelian_invariants(self) -> list[int]:
        """Invariant factors of this group, which must be abelian, ascending.

        Peels off a cyclic factor of maximal order (always a direct summand
        in the abelian case), then recurses on the quotient, whose factors
        all divide that order.
        """
        if self.size == 1:
            return []
        orders = [self.element_order(x) for x in range(self.size)]
        best = orders.index(max(orders))
        rest = self.quotient(self.subgroup_closure([best])).abelian_invariants()
        return rest + [orders[best]]

    def abelian_invariants_of_subgroup(self, subset: Sequence[int]) -> list[int]:
        """Invariant factors of H/[H, H] for the subgroup H = subset."""
        sub = self.subgroup(subset)
        return sub.quotient(sub.commutator_of_subgroup(range(sub.size))).abelian_invariants()

    def __repr__(self):
        return f"GroupTable(size={self.size})"


def group_from_elements(elements: list, multiply) -> GroupTable:
    """Build a GroupTable from concrete elements and a multiply callable.

    The element order fixes the numbering, so tables are reproducible.
    """
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    mul = [[index[multiply(elements[a], elements[b])] for b in range(n)] for a in range(n)]
    return GroupTable(mul)


def _perm_mul(a: tuple, b: tuple) -> tuple:
    # permutations as image tuples, a then b
    return tuple(b[v] for v in a)


def cyclic_group(n: int) -> GroupTable:
    return GroupTable([[(a + b) % n for b in range(n)] for a in range(n)])


def symmetric_group(n: int) -> GroupTable:
    els = sorted(iter_permutations(range(n)))
    return group_from_elements(els, _perm_mul)


def alternating_group(n: int) -> GroupTable:
    def parity(p):
        inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
        return inv % 2

    els = sorted(p for p in iter_permutations(range(n)) if parity(p) == 0)
    return group_from_elements(els, _perm_mul)


def dihedral_group(n: int) -> GroupTable:
    """Symmetries of the regular n-gon, elements (rotation, flip)."""
    els = [(r, f) for f in (0, 1) for r in range(n)]

    def mult(a, b):
        r1, f1 = a
        r2, f2 = b
        r = (r2 - r1) % n if f2 else (r1 + r2) % n
        return (r, f1 ^ f2)

    return group_from_elements(els, mult)


def quaternion_group() -> GroupTable:
    """The eight quaternions 1, -1, i, -i, j, -j, k, -k."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def split(x):
        return (-1, x[1:]) if x.startswith("-") else (1, x)

    def mult(a, b):
        sa, ua = split(a)
        sb, ub = split(b)
        if ua == "1":
            s, u = sa * sb, ub
        elif ub == "1":
            s, u = sa * sb, ua
        else:
            sc, uc = split(base[(ua, ub)])
            s, u = sa * sb * sc, uc
        return u if s == 1 else ("-" + u if not u.startswith("-") else u[1:])

    return group_from_elements(names, mult)


def find_element(group: GroupTable, order: Optional[int] = None) -> int:
    """Smallest-index element of the given order (or any non-identity)."""
    for x in range(group.size):
        if x == group.identity:
            continue
        if order is None or group.element_order(x) == order:
            return x
    raise ValueError(f"no element of order {order}")
