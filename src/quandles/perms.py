"""Permutations and the groups they generate, as actions on points.

This module owns what acts on points: ``Permutation``, the enumeration
of a ``PermGroup``, orbits and free actions, and the one
point walk, closure and product search of the package.  ``walk`` is the
orbit algorithm (Holt, Eick and O'Brien, cited below, section 4.1) that
Schreier balls, ``orbits``, ``group_closure``, ``subgroup_closure``
and the zero-sum check of ``verify_dis_properties`` run on.
Group algebra (normal closures, commutators, quotients, abelian
invariants, element orders) lives in ``quandles.groups`` and runs on the
indices of a table, which an enumerated ``PermGroup`` never builds.  No
stabilizer chains; everything is desk scale.

A permutation has one format, a row of images: a ``Permutation`` holds
one read-only int64 row (for a finite quandle's point symmetry, a view
of a table column), and an enumerated group is one int array,
``PermGroup.images``, with a row per element, which ``group_closure``
fills.  Products are numpy gathers on rows (the row of f * g is
``g[f]``), an element of a group is named by its row number, and
``Permutation.unchecked(row)`` wraps a row (copying it only to make it
int64) for a generator or a witness key.  ``group_closure`` finds the
elements by Dimino's algorithm (G. Butler, Fundamental Algorithms for
Permutation Groups, LNCS 559, 1991) and orders them with ``walk``:
breadth-first over words in the generators, the identity first, then
each frontier in turn, every frontier element times every generator, so
shortest words come first and ties go by frontier position, then
generator order.  That is the order a loop over ``Permutation`` products
would give, and table indices and witnesses depend on it.

Rows are found again by their images on a *base*: the fewest leading
points 0, .., L-1 whose images tell the rows apart (a base in the sense
of Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
section 4.1, restricted to a prefix of the points).  R_n needs two, since
an affine map of Z/n is fixed by its images of 0 and 1.  ``RowIndex``
does the lookup for ``products``, at L gathers a product.

Generators come in one form everywhere in the package: a sequence of
(name, automorphism) pairs, as ``inner_generators()`` returns them.
``PermGroup``, ``group_closure`` and ``orbits`` take
that and only that (``orbits`` also walks a (point x move) array, such
as a finite quandle's table, as it is); ``_named`` is the one check, and
anything else is a TypeError.

Composition convention, used consistently across the package: the product
``f * g`` means "apply f, then g".  Acting on the right, ``x . (f g) =
g(f(x))``.  Inverses and conjugation follow the same reading, so
``h.inverse() * g * h`` is "conjugate g by h".
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BoundExceededError, MalformedTableError

DEFAULT_GROUP_BOUND = 200_000
WALK_CELLS = 1 << 12  # cells per gather chunk of a walk sphere
CAYLEY_CELLS = 1 << 16  # products per block of rows of the product search


class Permutation:
    """A permutation of {0, .., n-1}, stored as one read-only int64 row
    of images, the format of a row of ``PermGroup.images``."""

    __slots__ = ("images",)

    def __init__(self, images):
        row = _integers(images, 1, "permutation images", ValueError).copy()
        n = row.size
        if not np.array_equal(np.sort(row), np.arange(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {tuple(row.tolist())}")
        self.images = row
        self.images.flags.writeable = False

    @classmethod
    def unchecked(cls, images: np.ndarray) -> "Permutation":
        """The permutation with these images, without the check: only for
        a row already known to be a permutation, such as a row of an
        enumerated group or a column of a validated quandle table.  The
        row is shared, not copied, unless it must become int64."""
        p = object.__new__(cls)
        p.images = np.asarray(images, dtype=np.int64).view()
        p.images.flags.writeable = False
        return p

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation.unchecked(np.arange(degree))

    @staticmethod
    def from_mapping(mapping: dict, degree: int) -> "Permutation":
        images = list(range(degree))
        for k, v in mapping.items():
            images[k] = v
        return Permutation(images)

    @property
    def degree(self) -> int:
        return self.images.size

    def act(self, point: int) -> int:
        return int(self.images[point])

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        if self.degree != other.degree:
            raise ValueError(f"degrees differ: {self.degree} and {other.degree}")
        return Permutation.unchecked(other.images[self.images])

    def inverse(self) -> "Permutation":
        inv = np.empty(self.degree, dtype=np.int64)
        inv[self.images] = np.arange(self.degree)
        return Permutation.unchecked(inv)

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(self.degree)).all())

    def order(self) -> int:
        k = 1
        p = self
        while not p.is_identity():
            p = p * self
            k += 1
        return k

    def key(self) -> str:
        return "[" + ",".join(map(str, self.images.tolist())) + "]"

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images.tobytes() == other.images.tobytes()

    def __hash__(self):
        return hash(self.images.tobytes())

    def __repr__(self):
        return f"Permutation({tuple(self.images.tolist())})"


def _integers(values, ndim: int, what: str, error: type = MalformedTableError) -> np.ndarray:
    """``values`` as an int64 array with ``ndim`` axes, else ``error``:
    the package's one check that input is integers.  Beside ints numpy
    reads a bool as 0 or 1, so lists are searched too."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged
        array = np.empty(())
    if array.ndim != ndim or array.size and not (
        np.issubdtype(array.dtype, np.integer)
        and (isinstance(values, np.ndarray) or bool not in set(map(type, np.asarray(values, dtype=object).flat)))
    ):
        raise error(f"{what} must be a {ndim}-d array of integers")
    return array.astype(np.int64, copy=False)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values; a bare ``np.unique`` would import numpy.ma."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _named(generators) -> list[tuple[str, object]]:
    """The generators as a list of (name, automorphism) pairs, the one
    form every entry point takes; anything else is a TypeError."""
    named = list(generators)
    for g in named:
        if not (isinstance(g, tuple) and len(g) == 2 and isinstance(g[0], str)):
            raise TypeError(f"a generator must be a (name, automorphism) pair, got {g!r}")
    return named


class RowIndex:
    """Finds rows of a fixed array of distinct permutations (one row of
    images each) by their images on a base.

    The base is the shortest prefix 0, .., L-1 of the points on which the
    rows differ pairwise.  A row's code is built one base point at a
    time: at level j the pair (code so far, image of j) is ranked among
    the pairs the rows themselves take, so codes stay below the row
    count whatever the degree and L are.
    """

    def __init__(self, images: np.ndarray):
        m, n = images.shape
        self.images = images
        self._degree = n
        self._levels: list[np.ndarray] = []
        codes = np.zeros(m, dtype=np.int64)
        distinct = min(m, 1)
        while distinct < m:
            keys = codes * n + images[:, len(self._levels)]
            level, codes = np.unique(keys, return_inverse=True)
            self._levels.append(level)
            distinct = len(level)
        self._row_of_code = np.empty(m, dtype=np.intp)
        self._row_of_code[codes] = np.arange(m)

    @property
    def base_length(self) -> int:
        return len(self._levels)

    def find(self, images: np.ndarray) -> np.ndarray:
        """The row of each permutation in ``images`` (shape (..., L) or
        wider, base images first) judged by its base images alone, or -1
        where no row has them.  Exact for permutations known to be among
        the rows, such as products of elements of an enumerated group."""
        if not len(self.images):
            return np.full(images.shape[:-1], -1, dtype=np.intp)
        codes = np.zeros(images.shape[:-1], dtype=np.int64)
        hit = np.ones(images.shape[:-1], dtype=bool)
        for j, level in enumerate(self._levels):
            keys = codes * self._degree + images[..., j]
            codes = np.minimum(np.searchsorted(level, keys), len(level) - 1)
            hit &= level[codes] == keys
        return np.where(hit, self._row_of_code[codes], -1)

    def locate(self, images: np.ndarray) -> np.ndarray:
        """The row equal to each permutation in ``images`` (shape (k, n)),
        or -1 where there is none: ``find``, then a full-row comparison.
        ValueError if the rows are not as wide as the indexed ones."""
        if images.shape[-1] != self._degree:
            raise ValueError(f"rows of width {images.shape[-1]} cannot match rows of width {self._degree}")
        rows = self.find(images)
        return np.where((rows >= 0) & (self.images[rows] == images).all(axis=-1), rows, -1)


class PermGroup:
    """A permutation group given by (name, permutation) generators,
    enumerated on demand.

    The element order is deterministic: breadth-first over words in the
    generators, shortest word first, with ties broken by generator order.
    The identity is always row 0 of ``images``.
    """

    def __init__(self, generators):
        self.generators = _named(generators)
        if not self.generators:
            raise ValueError("PermGroup needs at least one generator")
        self.degree = self.generators[0][1].degree
        for name, g in self.generators:
            if g.degree != self.degree:
                raise ValueError(f"generator {name} has mismatched degree")

    @cached_property
    def images(self) -> np.ndarray:
        """One row of images per element, in enumeration order."""
        return group_closure(self.generators)

    @cached_property
    def rows(self) -> RowIndex:
        """Lookup of elements by their images on a base."""
        return RowIndex(self.images)

    @property
    def order(self) -> int:
        return len(self.images)

    def positions(self, images: np.ndarray) -> list[int]:
        """The row in ``self.images`` of each row of ``images``; KeyError
        if one of them is not in the group."""
        found = self.rows.locate(images)
        if len(found) and found.min() < 0:
            raise KeyError(f"{Permutation.unchecked(images[found.argmin()]).key()} is not in the group")
        return found.tolist()

    def __repr__(self):
        names = ",".join(name for name, _ in self.generators)
        return f"PermGroup(<{names}>, degree={self.degree})"


def products(rows: RowIndex, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The product search: [a, j] is the row of left[a] * right[j], which
    its base images right[j, left[a, :L]] pick out through ``rows`` (so
    every product must be a row), a block of about ``CAYLEY_CELLS``
    products at a time: it holds the result and one block's codes."""
    base = rows.base_length
    found = np.empty((len(left), len(right)), dtype=np.intp)
    step = max(1, CAYLEY_CELLS // max(1, len(right) * base))
    for a0 in range(0, len(left), step):
        on_base = right[:, left[a0 : a0 + step, :base]]  # [j, a, i]
        found[a0 : a0 + step] = rows.find(on_base.transpose(1, 0, 2))
    return found


def cayley_table(images: np.ndarray) -> np.ndarray:
    """The Cayley table of the distinct rows ``images``, closed under
    products: [a, b] is the row of images[a] * images[b]."""
    return products(RowIndex(images), images, images)


def group_closure(
    generators: Sequence[tuple[str, Permutation]], bound: int = DEFAULT_GROUP_BOUND
) -> np.ndarray:
    """Enumerate the group generated by the (name, permutation) pairs
    ``generators`` as an int32 array with one row of images per element,
    in the order of the module docstring: ``_dimino`` finds the elements,
    then ``walk`` numbers them from the identity over the moves a -> a * g_j
    that ``products`` finds.  Raises BoundExceededError once a coset would
    pass ``bound`` elements."""
    named = _named(generators)
    if not named:
        raise ValueError("need at least one generator")
    gens = np.array([g.images for _, g in named], dtype=np.int32)
    rows = RowIndex(_dimino(gens, bound)[0])
    moves = products(rows, rows.images, gens)
    del gens  # the walk holds the moves alone
    return rows.images[walk(moves, 0, len(moves), len(moves))[0]]


def _dimino(gens: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The elements of the group the rows ``gens`` generate, identity
    first, and the generators kept, in order, by Dimino's algorithm: one
    the kept ones generate is skipped; else the new group is the union of
    right cosets H r of the old group H closed under every kept generator
    s, as H r s = H (r s).  The byte set ``seen`` dies before ``walk``."""
    group = np.arange(gens.shape[1], dtype=gens.dtype)[None, :]
    seen = {group.tobytes()}
    kept: list[np.ndarray] = []
    for g in gens:
        if g.tobytes() in seen:
            continue
        kept.append(g)
        cosets, reps = [group], [group[0]]
        for r in reps:  # reps grows as cosets are found
            for s in kept:
                rs = s[r]  # the row of r * s
                if rs.tobytes() in seen:
                    continue
                if len(seen) + len(group) > bound:
                    raise BoundExceededError("group closure", bound)
                coset = rs[group]  # the rows of h * rs, h in H
                seen.update(map(bytes, coset))
                cosets.append(coset)
                reps.append(rs)
        group = np.concatenate(cosets)
    return group, np.array(kept, dtype=gens.dtype).reshape(-1, gens.shape[1])


def walk(moves: np.ndarray, start: int, radius: int, bound: int, columns: Optional[np.ndarray] = None):
    """Breadth-first walk from ``start`` under the moves x -> ``moves[x, m]``,
    for m in ``columns`` (every column by default), numbering points by
    first occurrence, frontier-major and move-minor.  Returns (points,
    sphere sizes); raises BoundExceededError, with the last completed
    radius and its count, iff the count passes ``bound``.

    ``vertex`` maps a reached point to its vertex number and an unreached
    point p to -1 - p, so a gathered chunk alone names the points it
    reaches first.  A sphere is gathered in chunks of about ``WALK_CELLS``
    cells, each chunk's fresh points numbered before the next is
    gathered, which is still first occurrence.  No vertex numbers of
    moves are kept: ``walk_table`` gathers them when a ball needs them.
    """
    vertex = -1 - np.arange(moves.shape[0], dtype=np.int64)
    vertex[start] = 0
    frontier = np.array([start])
    spheres, count = [frontier], 1
    for d in range(1, radius + 1):
        if not frontier.size:
            break
        sphere, reached = [], count
        for _, part in _gathered(vertex, moves, frontier, columns):
            unseen = -1 - part[part < 0]
            if not unseen.size:
                continue
            _, first = np.unique(unseen, return_index=True)
            fresh = unseen[np.sort(first)]  # first-occurrence order
            if count + fresh.size > bound:
                raise BoundExceededError("schreier ball", bound, radius=d - 1, vertices=reached)
            vertex[fresh] = np.arange(count, count + fresh.size)
            count += fresh.size
            sphere.append(fresh)
        frontier = np.concatenate(sphere) if sphere else frontier[:0]
        spheres.append(frontier)
    return np.concatenate(spheres), [s.size for s in spheres]


def walk_table(moves: np.ndarray, points: np.ndarray, columns: Optional[np.ndarray] = None) -> np.ndarray:
    """The (point x move) int64 table vertex[moves[points]] of a walk's
    vertex numbers, over ``columns`` as in ``walk``, len(points) off the
    walk; gathered a chunk at a time, so it holds the table and a chunk."""
    vertex = np.full(moves.shape[0], len(points), dtype=np.int64)
    vertex[points] = np.arange(len(points))
    table = np.empty((len(points), moves.shape[1] if columns is None else len(columns)), dtype=np.int64)
    for c0, part in _gathered(vertex, moves, points, columns):
        table[c0 : c0 + len(part)] = part
    return table


def _gathered(vertex: np.ndarray, moves: np.ndarray, points: np.ndarray, columns: Optional[np.ndarray]):
    """Yield (first row, vertex[moves[rows]]) over ``columns`` for chunks
    of ``points`` of about ``WALK_CELLS`` cells, one at a time, so a
    caller may update ``vertex`` before the next one is gathered."""
    step = max(1, WALK_CELLS // max(1, moves.shape[1] if columns is None else len(columns)))
    for c0 in range(0, len(points), step):
        rows = points[c0 : c0 + step]
        yield c0, vertex[moves[rows] if columns is None else moves[rows[:, None], columns]]


def orbits(generators, domain: Iterable[int]) -> list[list[int]]:
    """Partition ``domain`` into orbits under the group generated by
    ``generators``: (name, permutation) pairs (``PermGroup.generators``),
    or a (point x move) int array whose columns are permutations, such as
    a finite quandle's table, which is walked as it is.  Each orbit is a
    ``walk`` under the generators alone (on a finite set an inverse is a
    power) from its first point in ``domain``.  Orbits are sorted
    internally and listed in ``domain`` order of those points."""
    domain = list(domain)
    if isinstance(generators, np.ndarray):
        moves = generators
    else:
        images = [g.images for _, g in _named(generators)]
        size = images[0].size if images else max(domain, default=-1) + 1
        moves = np.array(images, dtype=np.int64).reshape(len(images), size).T
    size = moves.shape[0]
    seen, parts = np.zeros(size, dtype=bool), []
    for start in domain:
        if not seen[start]:
            orbit = walk(moves, start, size, size)[0]
            seen[orbit] = True
            parts.append(np.sort(orbit).tolist())
    return parts


def first_fixed_point(images: np.ndarray, orbit: Iterable[int]) -> Optional[tuple[int, int]]:
    """The first (row, point) of ``orbit`` that a non-identity row of
    ``images`` fixes, row-major; None iff the rows act freely on ``orbit``."""
    points = np.fromiter(orbit, dtype=np.intp)
    moving = (images != np.arange(images.shape[1])).any(axis=1)
    hits = np.argwhere((images[:, points] == points) & moving[:, None])
    if not len(hits):
        return None
    return int(hits[0, 0]), int(points[hits[0, 1]])


def quotient_is_cyclic(group: PermGroup, sub: PermGroup) -> tuple[bool, int]:
    """Whether G/N is cyclic, and |G:N|, for G = ``group`` and a normal
    N = ``sub``: the coset gN has order the least m > 0 with g^m in N, so
    G/N is cyclic iff some g has g^m outside N for 0 < m < |G:N|.  Every
    g's powers are walked at once on base images (g^(m+1) maps the base
    to g[g^m[base]]), and g is dropped once a power falls in N."""
    order = group.order // sub.order
    in_sub = np.zeros(group.order, dtype=bool)
    in_sub[group.positions(sub.images)] = True
    live = np.arange(group.order)
    power = np.broadcast_to(np.arange(group.rows.base_length), (group.order, group.rows.base_length))
    for _ in range(1, order):
        power = group.images[live[:, None], power]
        keep = ~in_sub[group.rows.find(power)]
        live, power = live[keep], power[keep]
    return bool(live.size), order
