"""Exact integer linear algebra for lattice quandles on Z^n.

Everything here uses Python integers only; powers of a unimodular matrix
grow without bound and must stay exact.  The Hermite normal form is
column-style: basis vectors are columns, pivots descend strictly (so a
full-rank basis is lower triangular), pivot entries are positive, and
entries to the left of a pivot are reduced into [0, pivot).  That form is
unique per lattice, which makes bases comparable in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .quandle import _integers

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]  # row-major


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


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0])
    assert len(a[0]) == m
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)) for i in range(n)
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def mat_det(a: Matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination; exact."""
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
    return sign * m[n - 1][n - 1]


def mat_inverse_exact(a: Matrix) -> Matrix:
    """Inverse of an integer matrix with determinant +-1."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    inv = tuple(tuple(aug[i][n + j] for j in range(n)) for i in range(n))
    if any(v.denominator != 1 for row in inv for v in row):
        raise ValueError("inverse is not integral; matrix is not unimodular")
    return tuple(tuple(int(v) for v in row) for row in inv)


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
    """z -> M z + c on Z^n where M = t^power for a fixed unimodular t.

    Equality and hashing use (M, c), i.e. the map itself: two power/shift
    presentations of the same map compare equal.  When M is the identity
    the stored power normalizes to 0.
    """

    t: UnimodularMatrix
    power: int
    matrix: Matrix
    shift: Vector

    @staticmethod
    def of(t: UnimodularMatrix, power: int, shift: Sequence[int]) -> "LatticeAffine":
        m = t.power(power)
        if m == mat_identity(t.n):
            power = 0
        return LatticeAffine(t, power, m, tuple(int(v) for v in shift))

    @staticmethod
    def translation(t: UnimodularMatrix, shift: Sequence[int]) -> "LatticeAffine":
        return LatticeAffine.of(t, 0, shift)

    def act(self, v: Vector) -> Vector:
        mv = mat_vec(self.matrix, v)
        return tuple(a + b for a, b in zip(mv, self.shift))

    def __mul__(self, other: "LatticeAffine") -> "LatticeAffine":
        # z -> other(self(z))
        shift = tuple(
            a + b for a, b in zip(mat_vec(other.matrix, self.shift), other.shift)
        )
        return LatticeAffine.of(self.t, self.power + other.power, shift)

    def inverse(self) -> "LatticeAffine":
        minv = self.t.power(-self.power)
        shift = tuple(-v for v in mat_vec(minv, self.shift))
        return LatticeAffine.of(self.t, -self.power, shift)

    def is_identity(self) -> bool:
        return self.matrix == mat_identity(self.t.n) and not any(self.shift)

    def is_translation(self) -> bool:
        return self.matrix == mat_identity(self.t.n)

    def key(self) -> str:
        flat = ";".join(",".join(str(v) for v in row) for row in self.matrix)
        sh = ",".join(str(v) for v in self.shift)
        return f"[{flat}]+({sh})"

    def __eq__(self, other):
        if not isinstance(other, LatticeAffine):
            return NotImplemented
        return self.matrix == other.matrix and self.shift == other.shift

    def __hash__(self):
        return hash((self.matrix, self.shift))

    def __repr__(self):
        return f"LatticeAffine(power={self.power}, shift={self.shift})"


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


def one_minus_inverse(t: UnimodularMatrix) -> Matrix:
    """The integer matrix I - t^-1."""
    inv = t.power(-1)
    return tuple(
        tuple((1 if i == j else 0) - inv[i][j] for j in range(t.n)) for i in range(t.n)
    )


def dis_lattice(t: UnimodularMatrix) -> IntegerLattice:
    """The lattice of displacement translations of the quandle Z^n with
    x ◁ y = t(x - y) + y: the column span of I - t^-1."""
    m = one_minus_inverse(t)
    cols = [tuple(m[i][j] for i in range(t.n)) for j in range(t.n)]
    return IntegerLattice(t.n, cols)
