"""Exact integer linear algebra for lattice quandles on Z^n.

Everything here uses Python integers only; powers of a unimodular matrix
grow without bound and must stay exact.  The one exact elimination is
Bareiss's fraction-free one in ``mat_det`` (E. H. Bareiss, Math. Comp.
22, 1968); the inverse is the adjugate of its cofactors, with no
``Fraction``.  The one exception is the walk of Schreier balls,
``offset_walk``, which runs in int64 numpy only while the offsets it
reaches prove that no value can overflow.  An affine map of Z^n,
``LatticeAffine``, is its matrix and its shift alone, whatever t it was
built from, so maps built on different t compose and compare as maps.
The Hermite normal form is column-style: basis vectors are columns,
pivots descend strictly (so a full-rank basis is lower triangular),
pivot entries are positive, and entries to the left of a pivot are
reduced into [0, pivot).  That form is unique per lattice, which makes
bases comparable in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Optional, Sequence

import numpy as np

from . import perms
from .errors import BoundExceededError
from .perms import _integers

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]  # row-major

# every int64 value of a ball walk stays below this (see offset_walk)
_INT64_ROOM = 1 << 62


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


@cache
def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0])
    if len(a[0]) != m:
        raise ValueError(f"cannot multiply a matrix with {len(a[0])} columns by one with {m} rows")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)) for i in range(n)
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def mat_det(a: Matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination; exact, 1 if empty."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def mat_inverse_exact(a: Matrix) -> Matrix:
    """Inverse of an integer matrix with determinant +-1: the adjugate over
    the determinant d, each cofactor a minor by ``mat_det``.  Its entries
    are integers exactly when d divides every cofactor, which happens
    exactly when d = +-1, since det(a^-1) = 1/d."""
    n, d = len(a), mat_det(a)
    if d == 0:
        raise ValueError("matrix is singular")
    # entry (i, j) is (-1)^(i+j) times the minor of a without row j and column i
    adjugate = [
        [(-1) ** (i + j) * mat_det([r[:i] + r[i + 1 :] for k, r in enumerate(a) if k != j]) for j in range(n)]
        for i in range(n)
    ]
    if any(v % d for row in adjugate for v in row):
        raise ValueError("inverse is not integral; matrix is not unimodular")
    return tuple(tuple(v // d for v in row) for row in adjugate)


class UnimodularMatrix:
    """An n x n matrix of int64 entries with determinant +-1, with cached
    exact powers; ValueError on any other input."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        array = _integers(rows, 2, "matrix", ValueError)
        n = len(array)
        if not array.size or array.shape[1] != n:
            raise ValueError(f"matrix must be square and non-empty, got shape {array.shape}")
        entries = tuple(map(tuple, array.tolist()))
        d = mat_det(entries)
        if d not in (1, -1):
            raise ValueError(f"matrix must have determinant +-1, got {d}")
        self.entries: Matrix = entries
        self.n = n
        self.det = d
        self._powers: dict[int, Matrix] = {0: mat_identity(n), 1: entries}
        self._powers[-1] = mat_inverse_exact(entries)

    def power(self, k: int) -> Matrix:
        if k not in self._powers:
            base = self.entries if k > 0 else self._powers[-1]
            acc = self._powers[0]
            for _ in range(abs(k)):
                acc = mat_mul(acc, base)
            self._powers[k] = acc
        return self._powers[k]

    def apply(self, v: Vector, k: int = 1) -> Vector:
        return mat_vec(self.power(k), v)

    def is_identity(self) -> bool:
        return self.entries == mat_identity(self.n)

    def __eq__(self, other):
        return isinstance(other, UnimodularMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"UnimodularMatrix({[list(r) for r in self.entries]})"


@dataclass(frozen=True)
class LatticeAffine:
    """z -> M z + c on Z^n: the map is its matrix M and its shift c, and
    two maps are equal, and hash alike, exactly when both agree."""

    matrix: Matrix
    shift: Vector

    @staticmethod
    def of(t: UnimodularMatrix, power: int, shift: Sequence[int]) -> "LatticeAffine":
        return LatticeAffine(t.power(power), tuple(int(v) for v in shift))

    @staticmethod
    def translation(t: UnimodularMatrix, shift: Sequence[int]) -> "LatticeAffine":
        return LatticeAffine.of(t, 0, shift)

    def act(self, v: Vector) -> Vector:
        mv = mat_vec(self.matrix, v)
        return tuple(a + b for a, b in zip(mv, self.shift))

    def __mul__(self, other: "LatticeAffine") -> "LatticeAffine":
        # z -> other(self(z)) = B (A z + c) + d; a translation factor
        # leaves the other's matrix as it is, with no product
        n, (a, b) = len(self.shift), (self.matrix, other.matrix)
        if len(other.shift) != n:
            raise ValueError(f"dimensions differ: {n} and {len(other.shift)}")
        shift = tuple(x + y for x, y in zip(mat_vec(b, self.shift), other.shift))
        one = mat_identity(n)
        return LatticeAffine(b if a == one else a if b == one else mat_mul(b, a), shift)

    def inverse(self) -> "LatticeAffine":
        minv = mat_inverse_exact(self.matrix)
        return LatticeAffine(minv, tuple(-v for v in mat_vec(minv, self.shift)))

    def is_identity(self) -> bool:
        return self.is_translation() and not any(self.shift)

    def is_translation(self) -> bool:
        return self.matrix == mat_identity(len(self.shift))

    def key(self) -> str:
        flat = ";".join(",".join(str(v) for v in row) for row in self.matrix)
        sh = ",".join(str(v) for v in self.shift)
        return f"[{flat}]+({sh})"


def column_hnf(columns: Iterable[Vector], n: int) -> list[Vector]:
    """Hermite normal form (column style) of the integer span of ``columns``.

    Returns the unique basis described in the module docstring; the empty
    list for the zero lattice.
    """
    work = [list(c) for c in columns if any(c)]
    for c in work:
        if len(c) != n:
            raise ValueError(f"column has length {len(c)}, expected {n}")
    basis: list[list[int]] = []
    pivot_rows: list[int] = []
    for row in range(n):
        live = [c for c in work if c[row] != 0]
        if not live:
            continue
        # combine until a single column is nonzero at this row
        col = live[0]
        for other in live[1:]:
            a, b = col[row], other[row]
            g, x, y = xgcd(a, b)
            merged = [x * u + y * v for u, v in zip(col, other)]
            rest = [(a // g) * v - (b // g) * u for u, v in zip(col, other)]
            col[:] = merged
            other[:] = rest
        if col[row] < 0:
            col[:] = [-v for v in col]
        basis.append(col)
        pivot_rows.append(row)
        work = [c for c in work if c is not col and any(c)]
    # reduce entries to the left of each pivot into [0, pivot)
    for j in range(len(basis)):
        p = pivot_rows[j]
        d = basis[j][p]
        for i in range(j):
            q = basis[i][p] // d
            if q:
                basis[i] = [u - q * v for u, v in zip(basis[i], basis[j])]
    return [tuple(c) for c in basis]


class IntegerLattice:
    """A sublattice of Z^n with a Hermite-form basis.

    Supports exact membership tests and canonical coset representatives;
    the representative of v has its pivot-row coordinates reduced into
    [0, pivot), so two vectors get the same representative exactly when
    they differ by a lattice vector.
    """

    def __init__(self, ambient_dim: int, generators: Iterable[Vector]):
        self.ambient_dim = ambient_dim
        self.basis = column_hnf(generators, ambient_dim)
        self.rank = len(self.basis)
        self.pivot_rows = [next(i for i, v in enumerate(col) if v) for col in self.basis]

    def reduce(self, v: Sequence[int]) -> Vector:
        w = list(int(x) for x in v)
        if len(w) != self.ambient_dim:
            raise ValueError(f"vector has length {len(w)}, expected {self.ambient_dim}")
        for col, p in zip(self.basis, self.pivot_rows):
            q = w[p] // col[p]
            if q:
                w = [u - q * c for u, c in zip(w, col)]
        return tuple(w)

    def __contains__(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def index_in_ambient(self) -> Optional[int]:
        """Number of cosets in Z^n, or None when the rank is deficient."""
        if self.rank < self.ambient_dim:
            return None
        out = 1
        for col, p in zip(self.basis, self.pivot_rows):
            out *= col[p]
        return out

    def __repr__(self):
        return f"IntegerLattice(dim={self.ambient_dim}, rank={self.rank}, basis={self.basis})"


def one_minus(m: Matrix) -> Matrix:
    """The integer matrix I - m."""
    return tuple(tuple((1 if i == j else 0) - v for j, v in enumerate(row)) for i, row in enumerate(m))


def one_minus_inverse(t: UnimodularMatrix) -> Matrix:
    """The integer matrix I - t^-1."""
    return one_minus(t.power(-1))


def dis_lattice(t: UnimodularMatrix) -> IntegerLattice:
    """The lattice of displacement translations of the quandle Z^n with
    x ◁ y = t(x - y) + y: the column span of I - t^-1."""
    m = one_minus_inverse(t)
    cols = [tuple(m[i][j] for i in range(t.n)) for j in range(t.n)]
    return IntegerLattice(t.n, cols)


def offset_walk(moves: Sequence[LatticeAffine], basepoint: Vector, radius: int, max_vertices: int):
    """``perms.walk`` for the affine ``moves`` of Z^n at ``basepoint``, over
    int64 offsets from it, with its numbering and cap: returns (offsets,
    sphere sizes, table), where ``table`` makes the (vertex x move) table
    of vertex numbers, V off the ball; or None if an offset it reaches
    fails the check below.

    Offsets u = x - b turn the move x -> A x + c into u -> A u + k, with
    k = A b + c - b, so a frontier's targets are ``frontier @ step`` plus
    the k, frontier-major and move-minor.  A target's code is
    sum_i (u_i + h) W^i, where W = 2h + 1 is the largest odd radix with
    W^n < 2^62.  Every inverse is a move, so a neighbour of a vertex at
    depth d lies at depth d - 1, d or d + 1: targets are looked up in the
    last two spheres, each kept as sorted codes and their vertex numbers.
    A sphere is moved a chunk of about ``perms.WALK_CELLS`` cells at a
    time, each chunk keeping only its rows and the codes it did not find;
    those, numbered in first-occurrence order, are the next sphere,
    decoded from them.  ``table`` copies the rows inside ``radius`` into
    one array, dropping each once copied, and moves the last sphere in
    chunks too.

    The check.  Let N be the largest absolute row sum of an A, D the
    largest |k_i| and T the largest |u_i| of a sphere.  Before a sphere is
    moved (the last one too, as ``table`` moves it), N T + D <= h and
    |b_i| + N T + D < 2^62 are checked exactly, in Python ints.  Then every
    product a_ij u_j, partial sum of A u and target entry is at most
    N T + D <= h in absolute value, so digits lie in [0, W), codes and
    their partial sums in [0, W^n), codes tell targets apart, and every
    point u + b fits in int64.  The check admits every ball that the a
    priori bound B_d = D (1 + N + .. + N^(d-1)) on depth d admits: by
    induction T <= B_d on sphere d, whose targets reach N B_d + D =
    B_(d+1), and (2 B_(R+1) + 1)^n < 2^62 gives 2 B_(R+1) + 1 <= W.
    """
    n, m = len(basepoint), len(moves)
    width = next(w for w in range(int(_INT64_ROOM ** (1 / n)) + 1, 0, -1) if w % 2 and w**n < _INT64_ROOM)
    half = width // 2
    shifts = [[a + c - b for a, c, b in zip(mat_vec(mv.matrix, basepoint), mv.shift, basepoint)] for mv in moves]
    norm = max(sum(map(abs, row)) for mv in moves for row in mv.matrix)
    reach = max(abs(v) for k in shifts for v in k)
    room = min(half, _INT64_ROOM - 1 - max(map(abs, basepoint)))
    if reach > room or norm >= _INT64_ROOM:  # the basepoint's check; int64 ``step``
        return None
    step = np.concatenate([np.array(mv.matrix, dtype=np.int64).T for mv in moves], axis=1)
    shift = np.array(shifts, dtype=np.int64)
    radix = width ** np.arange(n, dtype=np.int64)
    rows = max(1, perms.WALK_CELLS // m)

    def codes(frontier):  # of its targets, frontier-major and move-minor
        return (((frontier @ step).reshape(-1, m, n) + shift + half) @ radix).ravel()

    def find(code, spheres):
        row = np.full(code.size, -1, dtype=np.int64)
        for sorted_codes, vertex in spheres:
            at = np.minimum(np.searchsorted(sorted_codes, code), sorted_codes.size - 1)
            hit = sorted_codes[at] == code
            row[hit] = vertex[at[hit]]
        return row

    frontier = np.zeros((1, n), dtype=np.int64)
    last = [(half * radix.sum(keepdims=True), np.zeros(1, dtype=np.int64))]  # the last two spheres
    spheres, blocks, count = [frontier], [], 1
    for d in range(1, radius + 1):
        if not len(frontier):
            break
        block, unseen = np.empty((len(frontier), m), dtype=np.int64), []
        for c0 in range(0, len(frontier), rows):
            code = codes(frontier[c0 : c0 + rows])
            row = find(code, last)
            block[c0 : c0 + rows] = row.reshape(-1, m)
            unseen.append(code[row < 0])
        unseen = np.concatenate(unseen)
        fresh, first, inverse = np.unique(unseen, return_index=True, return_inverse=True)
        if count + fresh.size > max_vertices:
            raise BoundExceededError("schreier ball", max_vertices, radius=d - 1, vertices=count)
        order = np.argsort(first)  # first-occurrence order
        vertex = np.empty(fresh.size, dtype=np.int64)
        vertex[order] = np.arange(count, count + fresh.size)
        block[block < 0] = vertex[inverse]
        count += fresh.size
        frontier = fresh[order, None] // radix % width - half
        if norm * int(np.abs(frontier).max(initial=0)) + reach > room:
            return None
        blocks.append(block)
        spheres.append(frontier)
        last = [last[-1], (fresh, vertex)]

    def table() -> np.ndarray:
        out, done = np.empty((count, m), dtype=np.int64), 0
        while blocks:
            out[done : done + len(blocks[0])] = blocks[0]
            done += len(blocks.pop(0))
        for c0 in range(0, len(frontier), rows):
            row = find(codes(frontier[c0 : c0 + rows]), last)
            row[row < 0] = count  # moves that leave the ball
            out[done + c0 : done + c0 + rows] = row.reshape(-1, m)
        return out

    return np.concatenate(spheres), [len(s) for s in spheres], table
