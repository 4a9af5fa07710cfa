"""Finite quandles given by operation tables.

A quandle is a set with a binary operation ◁ such that

  (1) x ◁ x = x for every x,
  (2) every right translation s_y: x -> x ◁ y is a bijection,
  (3) (x ◁ y) ◁ z = (x ◁ z) ◁ (y ◁ z).

Axiom (3) says exactly that each s_y is an endomorphism, so together with
(2) the right translations are automorphisms ("point symmetries").  The
group they generate is the inner automorphism group; the subgroup
generated by the differences s_x s_y^-1 is the displacement group.

Tables are stored row-major: table[x][y] = x ◁ y.  Column y is then the
point symmetry s_y, and ``FiniteQuandle.symmetry(y)`` is a
``Permutation`` over a read-only view of that column, so the n symmetries
share the table's memory.  A ``FiniteQuandle`` holds that one n x n
int64 table; the inverse table of ◁^-1 (``inv_table``, read by
``op_inv``) is built on first use, and ``components`` walks the table
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConstructionError, MalformedTableError
from .perms import PermGroup, Permutation, _distinct, _integers, orbits

AXIOM3_CELLS = 1 << 21  # cells per numpy pass of a full distributivity scan


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of check_quandle_axioms.

    ``axiom`` is 1, 2 or 3 and ``witness`` is the offending (x,), (x, y)
    or (x, y, z) when ok is False.  The first violation in axiom order,
    then lexicographic witness order, is reported.
    """

    ok: bool
    axiom: Optional[int] = None
    witness: Optional[tuple[int, ...]] = None

    def as_dict(self) -> dict:
        return {"ok": self.ok, "axiom": self.axiom, "witness": self.witness}


def _operation_table(table) -> np.ndarray:
    """``table`` as a square int64 array with entries in 0..n-1, the one
    check of operation and multiplication tables; MalformedTableError
    if it fails, with the first out-of-range entry as witness."""
    t = _integers(table, 2, "table")
    n = len(t)
    if n == 0 or t.shape[1] != n:
        raise MalformedTableError(f"table must be square, got shape {t.shape}" if t.size else "empty table")
    bad = np.argwhere((t < 0) | (t >= n))
    if len(bad):
        x, y = bad[0].tolist()
        raise MalformedTableError(f"entry out of range at ({x}, {y})", witness=(x, y))
    return t


def check_quandle_axioms(table: Sequence[Sequence[int]]) -> AxiomReport:
    """Check a finite operation table against the three quandle axioms.

    Raises MalformedTableError where ``_operation_table`` does.
    Otherwise returns an AxiomReport; on failure the witness is
    re-checkable directly against the table.  For axiom 2 the witness
    (x, y) means no z satisfies z ◁ y = x.

    Axiom 3 is proved from a generating set instead of all n^3 triples.
    Once axioms 1 and 2 hold, every s_x is a bijection; let A be the set
    of x whose s_x is also an endomorphism.  For z in A and any x, axiom
    3 at z reads s_{x ◁ z} s_z = s_z s_x (maps applied right to left), so

        s_{x ◁ z} = s_z s_x s_z^-1   and   s_{x ◁^-1 z} = s_z^-1 s_x s_z.

    If x is in A too, both right-hand sides are automorphisms, so A is
    closed under x -> x ◁^{+-1} z for every z in A (Joyce's lemma).  Hence
    if a set S whose closure under ◁^{+-1} s (s in S) is everything lies
    in A, then A is everything.  ``_generating_set`` picks such an S, and
    each s_z for z in S is checked with one n x n comparison: n^2 |S|
    work, with |S| = 2 for a connected dihedral quandle R_n.  Only when
    some z in S fails does the full n^3 scan run, and it alone picks the
    reported witness, so reports equal those of the full scan.
    """
    t = _operation_table(table)
    n = t.shape[0]
    cols = np.arange(n)

    bad = np.nonzero(t[cols, cols] != cols)[0]
    if bad.size:
        return AxiomReport(False, 1, (int(bad[0]),))

    # a column is a permutation iff it sorts to 0..n-1
    bad = np.nonzero((np.sort(t, axis=0) != cols[:, None]).any(axis=0))[0]
    if bad.size:
        y = int(bad[0])
        return AxiomReport(False, 2, (int(np.flatnonzero(np.bincount(t[:, y], minlength=n) == 0)[0]), y))

    if all(_automorphism_defect(t, t[:, z]) is None for z in _generating_set(t)):
        return AxiomReport(True)
    return _distributivity_scan(t)


def _distributivity_scan(t: np.ndarray) -> AxiomReport:
    """Axiom 3 on all n^3 triples; the first violation in (x, y, z) order.

    Each pass takes as many x rows as fit in AXIOM3_CELLS cells (at
    least one), so its temporaries stay bounded whatever n is.
    """
    n = t.shape[0]
    rows = max(1, AXIOM3_CELLS // (n * n))
    for x0 in range(0, n, rows):
        x1 = min(x0 + rows, n)
        lhs = t[t[x0:x1, :], :]  # [x, y, z] = t[t[x, y], z]
        rhs = t[t[x0:x1, None, :], t[None, :, :]]  # [x, y, z] = t[t[x, z], t[y, z]]
        if not np.array_equal(lhs, rhs):
            w = np.argwhere(lhs != rhs)[0]
            return AxiomReport(False, 3, (int(w[0]) + x0, int(w[1]), int(w[2])))
    return AxiomReport(True)


def _generating_set(t: np.ndarray) -> list[int]:
    """A set S whose closure under x -> x ◁^{+-1} s (s in S) is everything.

    Greedy: S gets the smallest element not yet covered, then the covered
    set is closed again under x -> x ◁ s alone, which is enough: s_z is
    injective, so a finite C with s_z(C) ⊆ C has s_z(C) = C = s_z^-1(C).
    Only new work is done, O(n |S|) lookups in all.
    """
    n = t.shape[0]
    covered = np.zeros(n, dtype=bool)
    gens: list[int] = []
    while not covered.all():
        s = int(np.argmin(covered))
        old = np.nonzero(covered)[0]
        gens.append(s)
        covered[s] = True
        frontier = np.concatenate((t[old, s], t[s, gens]))
        while frontier.size:
            frontier = _distinct(frontier[~covered[frontier]])
            covered[frontier] = True
            frontier = t[np.ix_(frontier, gens)].ravel()
    return gens


def _automorphism_defect(t: np.ndarray, img: np.ndarray) -> Optional[tuple[int, int]]:
    """None if the permutation ``img`` preserves ◁, else the first (x, y)
    in row-major order where img[x ◁ y] != img[x] ◁ img[y].

    With img = column z of the table this is axiom 3 at z.  Nothing here
    is specific to quandles: ``GroupTable.is_automorphism`` runs it on a
    multiplication table.
    """
    lhs = img[t]
    rhs = t[np.ix_(img, img)]
    if np.array_equal(lhs, rhs):
        return None
    w = np.argwhere(lhs != rhs)[0]
    return int(w[0]), int(w[1])


class FiniteQuandle:
    """A finite quandle on {0, .., n-1} with a validated operation table."""

    backend_id = "finite"

    def __init__(self, table: Sequence[Sequence[int]], validate: bool = True):
        self.table = _operation_table(table) if validate else np.asarray(table, dtype=np.int64)
        if validate:
            report = check_quandle_axioms(self.table)
            if not report.ok:
                raise ConstructionError(
                    f"table violates quandle axiom {report.axiom} at {report.witness}",
                    witness=report.as_dict(),
                )
        self.size = int(self.table.shape[0])
        self._components: Optional[list[list[int]]] = None

    @cached_property
    def inv_table(self) -> np.ndarray:
        """The inverse operation, inv_table[x, y] = z with z ◁ y = x:
        a second n x n table, built on first use."""
        n = self.size
        inv = np.empty_like(self.table)
        inv[self.table, np.arange(n)] = np.arange(n)[:, None]
        return inv

    def op(self, x: int, y: int) -> int:
        return int(self.table[x, y])

    def op_inv(self, x: int, y: int) -> int:
        return int(self.inv_table[x, y])

    def elements(self) -> range:
        return range(self.size)

    def symmetry(self, y: int) -> Permutation:
        """The point symmetry s_y (x -> x ◁ y) as a Permutation whose
        images are a read-only view of column y of the table.  A valid
        table's columns are permutations (axiom 2), so no check is repeated."""
        return Permutation.unchecked(self.table[:, y])

    def inner_generators(self) -> list[tuple[str, Permutation]]:
        return [(f"s{y}", self.symmetry(y)) for y in range(self.size)]

    def displacement_generators(self) -> list[tuple[str, Permutation]]:
        """Products s_y s_0^-1 for y > 0; identity products are dropped."""
        s0_inv = self.symmetry(0).inverse()
        gens = []
        for y in range(1, self.size):
            p = self.symmetry(y) * s0_inv
            if not p.is_identity():
                gens.append((f"s{y}*s0^-1", p))
        return gens

    def inner_group(self) -> PermGroup:
        return PermGroup(self.inner_generators())

    def displacement_group(self) -> PermGroup:
        gens = self.displacement_generators()
        if not gens:
            gens = [("id", Permutation.identity(self.size))]
        return PermGroup(gens)

    def components(self) -> list[list[int]]:
        """Connected components = orbits of the inner group (equivalently,
        of the displacement group), walked under x -> x ◁ y on the
        table itself, whose column y is s_y."""
        if self._components is None:
            self._components = orbits(self.table, range(self.size))
        return self._components

    def component_key(self, x: int) -> int:
        for part in self.components():
            if x in part:
                return part[0]
        raise ValueError(f"element {x} out of range")

    def is_automorphism(self, p: Permutation) -> Optional[tuple[int, int]]:
        """None if p preserves ◁, else the first (x, y) in row-major order
        where p(x ◁ y) != p(x) ◁ p(y)."""
        return _automorphism_defect(self.table, p.images)

    def key(self, x: int) -> str:
        return str(int(x))

    def parse_key(self, s: str) -> int:
        x = int(s)
        if not 0 <= x < self.size:
            raise ValueError(f"element {x} out of range 0..{self.size - 1}")
        return x

    def __repr__(self):
        return f"FiniteQuandle(size={self.size})"


def symmetry_rewrite(base, steps) -> list[tuple[object, int]]:
    """Express the point symmetry at x = (..(base ◁^e1 a1)..) ◁^en an over
    the symmetries at base, a1, .., an.

    Repeatedly applying s_{u ◁ v} = s_v^-1 s_u s_v (and its inverse-twist
    for ◁^-1) gives

        s_x = s_an^-en .. s_a1^-e1 s_base s_a1^e1 .. s_an^en .

    ``steps`` is a sequence of (a_i, e_i) with e_i = +1 or -1.  The result
    is a list of (symbol, exponent) pairs to be applied left to right; it
    has length 2 * len(steps) + 1.
    """
    if base is None:
        raise ConstructionError("empty quandle word: no base element")
    steps = list(steps)
    for sym, e in steps:
        if e not in (1, -1):
            raise ConstructionError(f"exponent must be +1 or -1, got {e!r}", witness=(sym, e))
    word = [(sym, -e) for sym, e in reversed(steps)]
    word.append((base, 1))
    word.extend(steps)
    return word


def quandle_word_value(backend, base, steps):
    """Evaluate (..(base ◁^e1 a1)..) ◁^en an on any backend with op/op_inv."""
    x = base
    for sym, e in steps:
        x = backend.op(x, sym) if e > 0 else backend.op_inv(x, sym)
    return x


def symmetry_word_automorphism(backend, word):
    """Compose point symmetries s_sym^e, applied left to right, into a
    single automorphism of the backend's representation family."""
    word = list(word)
    if not word:
        raise ValueError("empty symmetry word")
    acc = None
    for sym, e in word:
        aut = backend.symmetry(sym)
        if e < 0:
            aut = aut.inverse()
        acc = aut if acc is None else acc * aut
    return acc
