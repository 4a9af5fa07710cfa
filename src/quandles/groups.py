"""Finite groups as explicit multiplication tables.

This module owns the group algebra of the package, all on element
indices: identity and inverses, element orders, subgroup closures,
normal closures, commutator subgroups, subgroups and quotients re-indexed
as tables of their own, abelian invariants and conjugacy closure tests.
A table has one format, the int64 array ``GroupTable.mul``, checked like
a quandle table by ``quandle._operation_table``, and the algebra is
array expressions on it.  A subgroup is closed by ``perms.walk`` from
the identity under the right translations ``mul[:, g]``.
``perms.cayley_table`` tabulates the stock symmetric and alternating
groups (permutations in lexicographic order); the cyclic, dihedral and
quaternion tables are formulas on the indices.  An enumerated
``PermGroup`` is not tabulated: ``verify`` runs on its rows.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations as iter_permutations
from typing import Optional, Sequence

import numpy as np

from .errors import MalformedTableError
from .perms import _distinct, cayley_table, walk
from .quandle import _automorphism_defect, _operation_table


class GroupTable:
    """A finite group on {0, .., n-1} given by its multiplication table,
    the int64 array mul[a, b] = a*b.  Associativity is assumed, identity
    and inverses are computed and checked."""

    def __init__(self, mul):
        t = _operation_table(mul)
        n = len(t)
        points = np.arange(n)
        # the first e with e*x = x*e = x for all x, then for each a the
        # first b with a*b = b*a = e
        ident = np.flatnonzero((t == points).all(axis=1) & (t.T == points).all(axis=1))
        if not ident.size:
            raise MalformedTableError("table has no identity element")
        self.mul, self.size, self.identity = t, n, int(ident[0])
        both = (t == self.identity) & (t.T == self.identity)
        lonely = np.flatnonzero(~both.any(axis=1))
        if lonely.size:
            raise MalformedTableError(f"element {lonely[0]} has no inverse")
        self.inverse = both.argmax(axis=1)

    @cached_property
    def orders(self) -> np.ndarray:
        """orders[x] = the order of x, from the powers of all x at once.
        Powers that reach the identity do so within |G| steps; on a table
        that is not associative some never do, and their order is 0."""
        points = np.arange(self.size)
        power, orders = points, np.ones(self.size, dtype=np.int64)
        live = power != self.identity
        while live.any() and orders.max() <= self.size:
            power = self.mul[power, points]
            orders += live
            live &= power != self.identity
        orders[live] = 0
        return orders

    def element_order(self, x: int) -> int:
        return int(self.orders[x])

    def conj(self, x, by):
        """by^-1 * x * by; x and by may be index arrays, which broadcast."""
        return self.mul[self.mul[self.inverse[by], x], by]

    def is_automorphism(self, images: Sequence[int]) -> Optional[tuple[int, int]]:
        """None if the map is a bijective homomorphism, else a witness.

        The witness is (a, b) with images[a*b] != images[a]*images[b], or
        (-1, a) when the map is not injective at value a.
        """
        images = np.asarray(images, dtype=np.int64)
        counts = np.bincount(images[(images >= 0) & (images < self.size)], minlength=self.size)
        if len(images) != self.size or (counts != 1).any():
            return (-1, int(np.argmax(counts != 1)))
        return _automorphism_defect(self.mul, images)

    def conjugation_closed(self, subset: Sequence[int]) -> Optional[tuple[int, int]]:
        """None if subset is closed under conjugation by the whole group,
        else the first witness (x, by), x-major in subset order, with
        conj(x, by) outside the subset."""
        subset = np.asarray(subset, dtype=np.int64)
        inside = _positions(subset, self.size) >= 0
        outside = np.argwhere(~inside[self.conj(subset[:, None], np.arange(self.size))])
        return None if not len(outside) else (int(subset[outside[0, 0]]), int(outside[0, 1]))

    def subgroup_closure(self, subset: Sequence[int]) -> list[int]:
        """Elements of the subgroup generated by ``subset``, sorted: the
        ``walk`` from the identity under the right translations ``mul[:, g]``,
        read from ``mul`` in place."""
        gens = _distinct(np.asarray(subset, dtype=np.int64))
        return np.sort(walk(self.mul, self.identity, self.size, self.size, gens)[0]).tolist()

    def normal_closure_of(self, x: int) -> list[int]:
        return self.subgroup_closure(self.conj(x, np.arange(self.size)))

    def commutator_of_subgroup(
        self, subset: Sequence[int], other: Optional[Sequence[int]] = None
    ) -> list[int]:
        """Elements of [H, K] = <a^-1 b^-1 a b : a in H, b in K>, sorted,
        for H = ``subset`` and K = ``other`` (default K = H)."""
        a = np.asarray(subset, dtype=np.int64)[:, None]
        b = a.T if other is None else np.asarray(other, dtype=np.int64)[None, :]
        mul, inv = self.mul, self.inverse
        return self.subgroup_closure(mul[mul[inv[a], inv[b]], mul[a, b]].ravel())

    def subgroup(self, subset: Sequence[int]) -> "GroupTable":
        """The subgroup on ``subset`` (which must be closed under products)
        as a table of its own: index i is the i-th smallest of ``subset``."""
        els = _distinct(np.asarray(subset, dtype=np.int64))
        return GroupTable(_positions(els, self.size)[self.mul[np.ix_(els, els)]])

    def quotient(self, normal: Sequence[int]) -> "GroupTable":
        """The table of G/N for the normal subgroup N = ``normal``.  Each
        coset Nx is keyed by its smallest element min(n*x for n in N), and
        cosets are numbered in increasing key order."""
        key = self.mul[np.asarray(normal, dtype=np.int64)].min(axis=0)
        keys = _distinct(key)
        return GroupTable(_positions(keys, self.size)[key[self.mul[np.ix_(keys, keys)]]])

    def abelian_invariants(self) -> list[int]:
        """Invariant factors of this group, which must be abelian, ascending.

        Peels off a cyclic factor of maximal order (always a direct summand
        in the abelian case), then recurses on the quotient, whose factors
        all divide that order.
        """
        if self.size == 1:
            return []
        best = int(np.argmax(self.orders))
        rest = self.quotient(self.subgroup_closure([best])).abelian_invariants()
        return rest + [int(self.orders[best])]

    def abelian_invariants_of_subgroup(self, subset: Sequence[int]) -> list[int]:
        """Invariant factors of H/[H, H] for the subgroup H = subset."""
        sub = self.subgroup(subset)
        return sub.quotient(sub.commutator_of_subgroup(range(sub.size))).abelian_invariants()

    def __repr__(self):
        return f"GroupTable(size={self.size})"


def _positions(elements: np.ndarray, size: int) -> np.ndarray:
    """pos[elements[i]] = i, and -1 off ``elements``."""
    pos = np.full(size, -1, dtype=np.int64)
    pos[elements] = np.arange(len(elements))
    return pos


def cyclic_group(n: int) -> GroupTable:
    x = np.arange(n)
    return GroupTable((x[:, None] + x[None, :]) % n)


def _permutations(n: int) -> np.ndarray:
    """The permutations of 0..n-1 as rows, in lexicographic order."""
    return np.array(list(iter_permutations(range(n))), dtype=np.int64)


def symmetric_group(n: int) -> GroupTable:
    return GroupTable(cayley_table(_permutations(n)))


def alternating_group(n: int) -> GroupTable:
    els = _permutations(n)
    i, j = np.triu_indices(els.shape[1], 1)
    even = (els[:, i] > els[:, j]).sum(axis=1) % 2 == 0
    return GroupTable(cayley_table(els[even]))


def dihedral_group(n: int) -> GroupTable:
    """Symmetries of the regular n-gon as (rotation, flip) pairs (r, f) at
    index f*n + r, with (r1, f1)(r2, f2) = (r2 - r1 if f2 else r1 + r2
    mod n, f1 ^ f2)."""
    x = np.arange(2 * n)
    f, r = x // n, x % n
    f2, r1, r2 = f[None, :], r[:, None], r[None, :]
    return GroupTable((f[:, None] ^ f2) * n + np.where(f2, r2 - r1, r1 + r2) % n)


def quaternion_group() -> GroupTable:
    """The eight quaternions 1, -1, i, -i, j, -j, k, -k: index 2u + s for
    the unit u in (1, i, j, k) and the sign bit s.  Units multiply by XOR
    of their indices, and ij = k, jk = i, ki = j fix the sign."""
    x = np.arange(8)
    u, s = x // 2, x % 2
    u1, u2 = u[:, None], u[None, :]
    neg = (u1 > 0) & (u2 > 0) & ((u1 == u2) | ((u2 - u1) % 3 == 2))
    return GroupTable(2 * (u1 ^ u2) + (s[:, None] ^ s[None, :] ^ neg))


def find_element(group: GroupTable, order: Optional[int] = None) -> int:
    """Smallest-index element of the given order (or any non-identity)."""
    fits = np.arange(group.size) != group.identity
    if order is not None:
        fits &= group.orders == order
    if not fits.any():
        raise ValueError(f"no element of order {order}")
    return int(np.argmax(fits))
