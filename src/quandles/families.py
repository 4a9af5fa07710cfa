"""Quandle families: dihedral, conjugation, Alexander-type, and free.

Each family is a backend object exposing a common surface:

  * ``op(x, y)`` / ``op_inv(x, y)``: the operation and its inverse,
  * ``symmetry(y)``: the point symmetry as an exactly comparable
    automorphism (Permutation, SignedAffine, LatticeAffine, FreeWordAut),
  * ``inner_generators()`` / ``displacement_generators()``: named default
    generating sets for the inner and displacement actions,
  * ``key(x)`` / ``parse_key(s)``: canonical element serialization used by
    graph exports and the command line (integers as decimals, vectors as
    "(a,b)", free elements as "base^word"),
  * ``component_key(x)``: canonical label of the connected component.

Infinite backends also provide ``check_axioms_window(radius)``, which
verifies all three quandle axioms on every triple drawn from a finite
window of elements, ``elements_window(radius)``; a negative radius is a
ValueError.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

import numpy as np

from .affine import SignedAffine
from .errors import ConstructionError
from .freewords import FreeQuandleElement, FreeWordAut, fq_conjugator, fq_op, parse_fq_key
from .groups import GroupTable, _positions
from .lattice import (
    IntegerLattice,
    LatticeAffine,
    UnimodularMatrix,
    dis_lattice,
    mat_vec,
    one_minus,
)
from .perms import _integers
from .quandle import AxiomReport, FiniteQuandle
from .schreier import build_ball, inner_action


def _axiom_window_report(backend, elements) -> AxiomReport:
    """Run the three axiom checks over all triples from ``elements``.

    Works on infinite carriers because op results are computed, not
    looked up; bijectivity of s_y is checked as op_inv(op(x, y), y) == x
    together with op(op_inv(x, y), y) == x.  The products x ◁ y of window
    pairs are computed once, so axiom 3 costs two ops per triple.
    """
    elements = list(elements)
    op, op_inv = backend.op, backend.op_inv
    for x in elements:
        if op(x, x) != x:
            return AxiomReport(False, 1, (x,))
    table = []  # table[i][j] = elements[i] ◁ elements[j]
    for x in elements:
        row = []
        for y in elements:
            xy = op(x, y)
            if op_inv(xy, y) != x or op(op_inv(x, y), y) != x:
                return AxiomReport(False, 2, (x, y))
            row.append(xy)
        table.append(row)
    for x, row_x in zip(elements, table):
        for y, xy, row_y in zip(elements, row_x, table):
            for z, xz, yz in zip(elements, row_x, row_y):
                if op(xy, z) != op(xz, yz):
                    return AxiomReport(False, 3, (x, y, z))
    return AxiomReport(True)


def _check_window(radius: int) -> None:
    if radius < 0:  # an empty window, on which every check passes
        raise ValueError(f"window radius must be at least 0, got {radius}")


# ---------------------------------------------------------------------------
# dihedral quandles


class DihedralInfinite:
    """The dihedral quandle on all of Z: x ◁ y = 2y - x.

    Point symmetries are the reflections z -> 2y - z; differences of two
    reflections are the even translations.
    """

    backend_id = "dihedral:inf"

    def op(self, x: int, y: int) -> int:
        return 2 * y - x

    # every reflection is an involution, so ◁ is its own inverse
    op_inv = op

    def elements_window(self, radius: int) -> range:
        _check_window(radius)
        return range(-radius, radius + 1)

    def symmetry(self, y: int) -> SignedAffine:
        return SignedAffine(-1, 2 * y)

    def inner_generators(self) -> list[tuple[str, SignedAffine]]:
        return [("s0", self.symmetry(0)), ("s1", self.symmetry(1))]

    def displacement_generators(self) -> list[tuple[str, SignedAffine]]:
        u = self.symmetry(1) * self.symmetry(0).inverse()
        return [("s1*s0^-1", u)]

    def component_key(self, x: int) -> int:
        return x % 2

    def key(self, x: int) -> str:
        return str(int(x))

    def parse_key(self, s: str) -> int:
        return int(s)

    def check_axioms_window(self, radius: int) -> AxiomReport:
        return _axiom_window_report(self, self.elements_window(radius))

    def __repr__(self):
        return "DihedralInfinite()"


def dihedral_quandle(n) -> "FiniteQuandle | DihedralInfinite":
    """R_n for an integer n >= 2, or the quandle on Z for n in (None, "inf")."""
    if n is None or n == "inf":
        return DihedralInfinite()
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise ConstructionError(f"dihedral quandle needs an integer n >= 2 or \"inf\", got {n!r}")
    x = np.arange(n)
    table = 2 * x[None, :] - x[:, None]
    return FiniteQuandle(np.remainder(table, n, out=table), validate=False)


# ---------------------------------------------------------------------------
# conjugation quandles


class ConjugationQuandle(FiniteQuandle):
    """A conjugacy-closed subset of a group under x ◁ y = y^-1 x y.

    Quandle elements are indices into ``subset``; ``group_element(i)``
    returns the underlying group index.
    """

    backend_id = "conjugation"

    def __init__(self, group: GroupTable, subset: Sequence[int]):
        elements = _integers(subset, 1, "subset", ConstructionError)
        if not elements.size:
            raise ConstructionError("empty subset")
        outside = elements[(elements < 0) | (elements >= group.size)].tolist()
        if outside:
            raise ConstructionError(f"subset element {outside[0]} outside group", witness=(outside[0],))
        subset = list(dict.fromkeys(elements.tolist()))
        bad = group.conjugation_closed(subset)
        if bad is not None:
            raise ConstructionError(
                f"subset is not closed under conjugation: {bad[0]} conjugated by {bad[1]}",
                witness=bad,
            )
        members = np.array(subset)
        pos = _positions(members, group.size)
        super().__init__(pos[group.conj(members[:, None], members[None, :])], validate=False)
        self.group = group
        self.subset = subset

    def group_element(self, i: int) -> int:
        return self.subset[i]


def conjugation_quandle(group: GroupTable, subset: Optional[Sequence[int]] = None) -> ConjugationQuandle:
    """Conjugation quandle on ``subset`` (default: the whole group)."""
    if subset is None:
        subset = range(group.size)
    return ConjugationQuandle(group, subset)


# ---------------------------------------------------------------------------
# Alexander-type quandles on finite groups


class GAlexFiniteQuandle(FiniteQuandle):
    """x ◁ y = sigma(x y^-1) y on a finite group, sigma an automorphism."""

    backend_id = "galex:finite"

    def __init__(self, group: GroupTable, sigma: Sequence[int]):
        sigma = _integers(sigma, 1, "sigma", ConstructionError)
        if len(sigma) != group.size:
            raise ConstructionError(f"sigma has {len(sigma)} entries for a group of size {group.size}")
        bad = group.is_automorphism(sigma)
        if bad is not None:
            raise ConstructionError(f"sigma is not a group automorphism, witness {bad}", witness=bad)
        mul = group.mul
        super().__init__(mul[sigma[mul[:, group.inverse]], np.arange(group.size)], validate=False)
        self.group = group
        self.sigma = tuple(sigma.tolist())

    def identity_component(self) -> list[int]:
        """The connected component of the group identity, as a sorted list.

        It is always a subgroup; see verify.verify_p_equals_dis for the
        checked statement that right translation by it realizes the
        displacement group.
        """
        for part in self.components():
            if self.group.identity in part:
                return part
        raise AssertionError("identity not found in any component")

    def sigma_is_conjugation_by(self) -> Optional[int]:
        """The first g with sigma = (x -> g^-1 x g), if one exists."""
        points = np.arange(self.group.size)
        hits = (self.group.conj(points[None, :], points[:, None]) == self.sigma).all(axis=1)
        return int(hits.argmax()) if hits.any() else None


def galex_finite(group: GroupTable, sigma: Sequence[int]) -> GAlexFiniteQuandle:
    return GAlexFiniteQuandle(group, sigma)


def conjugation_automorphism(group: GroupTable, g: int) -> list[int]:
    """sigma(x) = g^-1 x g as an image list; ConstructionError unless g is
    an integer in 0..|G|-1."""
    if isinstance(g, bool) or not isinstance(g, (int, np.integer)) or not 0 <= g < group.size:
        raise ConstructionError(f"conjugating element must be an integer in 0..{group.size - 1}, got {g!r}")
    return group.conj(np.arange(group.size), g).tolist()


# ---------------------------------------------------------------------------
# Alexander-type quandles on Z^n


class GAlexLattice:
    """x ◁ y = t(x - y) + y on Z^n for a unimodular integer matrix t.

    Point symmetries are the affine maps z -> t z + (1 - t) y; differences
    of two symmetries are translations by vectors of (1 - t^-1) Z^n, so
    the displacement group is the integer lattice spanned by the columns
    of 1 - t^-1 and components are its cosets.
    """

    backend_id = "galex:lattice"

    def __init__(self, t: UnimodularMatrix):
        self.t = t
        self.n = t.n
        self._lattice: Optional[IntegerLattice] = None

    def op(self, x: Sequence[int], y: Sequence[int], exponent: int = 1) -> tuple[int, ...]:
        diff = tuple(a - b for a, b in zip(x, y))
        moved = self.t.apply(diff, exponent)
        return tuple(a + b for a, b in zip(moved, y))

    def op_inv(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        return self.op(x, y, exponent=-1)

    def symmetry(self, y: Sequence[int]) -> LatticeAffine:
        return LatticeAffine.of(self.t, 1, mat_vec(one_minus(self.t.entries), tuple(y)))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.n

    def basis_vector(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(self.n))

    def inner_generators(self) -> list[tuple[str, LatticeAffine]]:
        gens = [("s0", self.symmetry(self.zero()))]
        for i in range(self.n):
            gens.append((f"se{i + 1}", self.symmetry(self.basis_vector(i))))
        return gens

    def displacement_generators(self) -> list[tuple[str, LatticeAffine]]:
        s0_inv = self.symmetry(self.zero()).inverse()
        gens = []
        for i in range(self.n):
            u = self.symmetry(self.basis_vector(i)) * s0_inv
            if not u.is_identity():
                gens.append((f"se{i + 1}*s0^-1", u))
        return gens

    def displacement_lattice(self) -> IntegerLattice:
        if self._lattice is None:
            self._lattice = dis_lattice(self.t)
        return self._lattice

    def component_key(self, x: Sequence[int]) -> tuple[int, ...]:
        return self.displacement_lattice().reduce(x)

    def key(self, x: Sequence[int]) -> str:
        return "(" + ",".join(map(str, x)) + ")"

    def parse_key(self, s: str) -> tuple[int, ...]:
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"vector key must look like (a,b), got {s!r}")
        parts = s[1:-1].split(",")
        v = tuple(int(p) for p in parts)
        if len(v) != self.n:
            raise ValueError(f"vector has {len(v)} entries, expected {self.n}")
        return v

    def elements_window(self, radius: int) -> list[tuple[int, ...]]:
        _check_window(radius)
        return list(product(range(-radius, radius + 1), repeat=self.n))

    def check_axioms_window(self, radius: int) -> AxiomReport:
        """The window axiom check, proved in exact int64 numpy when that is
        safe; any failure is re-found by ``_axiom_window_report``, which
        picks the reported witness."""
        elements = self.elements_window(radius)
        if self._window_axioms_hold(elements, radius):
            return AxiomReport(True)
        return _axiom_window_report(self, elements)

    def _window_axioms_hold(self, elements: list[tuple[int, ...]], radius: int) -> bool:
        """True when ``op`` and ``op_inv`` equal t^{+-1}(x - y) + y on every
        window pair and the two formulas undo each other there.

        That proves all three axioms on the window.  Axiom 1 reads
        t(x - x) + x = x, and axiom 3 holds identically by linearity:

            (x ◁ y) ◁ z       = t^2(x - y) + t(y - z) + z
            (x ◁ z) ◁ (y ◁ z) = t(t(x - z) - t(y - z)) + t(y - z) + z,

        which is the same vector.  Axiom 2 is the two round trips.

        With M = max(||t||, ||t^-1||, 1) in the max-row-sum norm and window
        entries at most W = radius, every vector formed below, and every
        partial sum of its matrix products, has entries at most
        (2M + 2)^2 W in absolute value.  Above 2^63 the check declines.
        """
        inv = self.t.power(-1)
        norm = max(1, *(sum(abs(v) for v in row) for m in (self.t.entries, inv) for row in m))
        if (2 * norm + 2) ** 2 * max(radius, 1) >= 2**63:
            return False
        e = np.array(elements, dtype=np.int64).reshape(len(elements), self.n)
        t, t_inv = np.array(self.t.entries, dtype=np.int64), np.array(inv, dtype=np.int64)

        def act(m, x, y):  # m(x - y) + y, broadcast over leading axes
            return (x - y) @ m.T + y

        prod = act(t, e[:, None], e[None, :])  # prod[i, j] = e_i ◁ e_j
        quot = act(t_inv, e[:, None], e[None, :])  # quot[i, j] = e_i ◁^-1 e_j
        for table, method in ((prod, self.op), (quot, self.op_inv)):
            if [[tuple(v) for v in row] for row in table.tolist()] != [
                [method(x, y) for y in elements] for x in elements
            ]:
                return False
        return bool(
            (act(t_inv, prod, e[None, :]) == e[:, None]).all()
            and (act(t, quot, e[None, :]) == e[:, None]).all()
        )

    def __repr__(self):
        return f"GAlexLattice(t={[list(r) for r in self.t.entries]})"


def galex_lattice(t) -> GAlexLattice:
    if not isinstance(t, UnimodularMatrix):
        t = UnimodularMatrix(t)
    return GAlexLattice(t)


# ---------------------------------------------------------------------------
# free quandles


class FreeQuandle:
    """The free quandle on a finite alphabet of at least two letters.

    Elements are conjugates a^w of letters; components are indexed by the
    base letter.  The inner group is generated by the letter symmetries;
    the displacement group is not finitely generated, so no default
    displacement generating set is offered.
    """

    backend_id = "free"

    def __init__(self, alphabet: Sequence[str]):
        letters = list(alphabet)
        for a in letters:
            if not isinstance(a, str) or not a or any(ch in a for ch in "^*,()! \t"):
                raise ConstructionError(f"bad letter {a!r}")
        if len(letters) != len(set(letters)):
            raise ConstructionError(f"duplicate letters in alphabet {letters}")
        if len(letters) < 2:
            raise ConstructionError("free quandle needs at least two letters")
        self.alphabet = tuple(letters)

    def generator(self, letter: str) -> FreeQuandleElement:
        if letter not in self.alphabet:
            raise ValueError(f"letter {letter!r} not in alphabet {self.alphabet}")
        return FreeQuandleElement(letter, ())

    def op(self, x: FreeQuandleElement, y: FreeQuandleElement) -> FreeQuandleElement:
        return fq_op(x, y, 1)

    def op_inv(self, x: FreeQuandleElement, y: FreeQuandleElement) -> FreeQuandleElement:
        return fq_op(x, y, -1)

    def symmetry(self, y: FreeQuandleElement) -> FreeWordAut:
        return FreeWordAut(fq_conjugator(y))

    def inner_generators(self) -> list[tuple[str, FreeWordAut]]:
        return [(f"s{a}", self.symmetry(self.generator(a))) for a in self.alphabet]

    def component_key(self, x: FreeQuandleElement) -> str:
        return x.base

    def key(self, x: FreeQuandleElement) -> str:
        return x.key()

    def parse_key(self, s: str) -> FreeQuandleElement:
        el = parse_fq_key(s)
        if el.base not in self.alphabet:
            raise ValueError(f"base {el.base!r} not in alphabet {self.alphabet}")
        for sym, _ in el.tail:
            if sym not in self.alphabet:
                raise ValueError(f"letter {sym!r} not in alphabet {self.alphabet}")
        return el

    def elements_window(self, radius: int) -> list[FreeQuandleElement]:
        """All elements a^w with reduced normalized tail of length <= radius.

        s_b moves a^w to a^(w b), and d(a^1, a^w) = |w|, so the window at a
        is the inner Schreier ball of that radius at a^1.  Letters come in
        alphabet order, and each ball in BFS order over the sorted generator
        names; a window past ``build_ball``'s vertex cap raises
        BoundExceededError."""
        _check_window(radius)
        action = inner_action(self)
        return [x for a in self.alphabet for x in build_ball(action, self.generator(a), radius).elements]

    def check_axioms_window(self, radius: int) -> AxiomReport:
        return _axiom_window_report(self, self.elements_window(radius))

    def __repr__(self):
        return f"FreeQuandle(alphabet={self.alphabet})"


def free_quandle(alphabet: Sequence[str]) -> FreeQuandle:
    return FreeQuandle(alphabet)
