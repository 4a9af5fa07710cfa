"""Schreier graphs of group actions, explored as metric balls.

The graph of an action has the acted-on set as vertices and an edge
x -- x.s for every generator s (a generator and its inverse give the same
undirected edge, identified by the generator's name).  Generators are
(name, automorphism) pairs, the one form the package uses (see
``quandles.perms``); an action keeps them sorted by name.  Distances in the
graph restricted to a ball can overestimate true distances when geodesics
leave the ball, so pairwise distances come with a certificate:

    d_ball(x, y) + d(x) + d(y) <= 2R + 1

guarantees d_ball(x, y) is the true distance, because any path leaving
the closed radius-R ball already has length >= 2R + 2 - d(x) - d(y).
Distances to the basepoint are always certified.  Both endpoints must
also lie strictly inside the ball (d < R), which keeps certificates
monotone under radius growth.

A ball numbers its vertices in BFS order, and that numbering is the only
vertex identity inside it: depths, elements and the graph are stored by
vertex number, and string keys appear only in the key -> vertex
``index`` and at output.  The graph is one (vertex x slot) neighbor
table of vertex indices.  A built ball's slots are its moves, a
generator and, unless it is an involution, its inverse, and the vertex
count V stands for a move that leaves the ball.  Every walk numbers
points by value, under one rule: a point is a hashable value, and two
points are equal exactly when their keys are equal.  A built ball keeps
the depths and the points in the walk's own form (``_WalkPoints``) and
keys its basepoint alone; the other keys, the elements and ``index`` are
made on first use, which growth and ends never make.  ``build_ball``
takes the moves from ``_moves`` once, and ``_walk`` makes the one walk
choice.  When the action is the default point action and every move is
a ``Permutation`` of the basepoint's set (every finite quandle), the
walk is ``perms.walk``, a numpy gather over the moves' image rows, read
in place when they are the columns of one table (a finite quandle's
inner symmetries) and stacked once otherwise (``_finite_moves``).  When
every move is a ``LatticeAffine`` on Z^n with n >= 2 (the lattice
quandles) and ``lattice.offset_moves`` proves that the walk fits in
int64, it is ``lattice.offset_walk``, one int64 matrix product per
sphere.  Otherwise ``_generic_bfs`` applies one move at a time and finds
each target in a dict from point to vertex.  Each walk hands the ball
one function that makes the whole table, called once, when edges, pair
queries or ends first need it: for ``perms.walk`` one more gather,
``perms.walk_table``; the other two keep the rows inside radius R as
they go, and the function writes them and the last sphere's rows, the
only ones that can hold V, into one array.  Lattice points are tuples
on both lattice paths.  All three walks share those moves, so they
discover vertices in the same order.  An edge list (JSON input) is
converted once into the same kind of table, padded with V.

Pair queries walk that table directly, with the ``depth`` array of
basepoint distances beside it; self-loops, parallel moves and V need no
special case, since a visited vertex is never entered again.  One block
of source rows at a time advances as a flat frontier of (row, vertex)
cells, so the work is the number of table cells visited.  ``_certify``
applies the certificate, to a block of pairs and to a single
``distance`` query alike; ``distance`` answers a pair at the basepoint,
on the outer sphere or of one vertex as ``_certify`` would, without a
search.  The certificate caps the search depth at 2R+1 - d(x), and in
fact at R: the path through the basepoint gives d(x, y) <= d(x) + d(y),
so a certified pair has 2 d(x, y) <= 2R+1.

Memory is one block per ball, and ``_BLOCK_CELLS`` fixes its rows.  A
block's distances are int32: its search keeps 4 bytes per cell of rows x
(V + 1), the pairs are read from those rows in place when their columns
are one ascending run (as in ``certified_pairs``) and gathered once, 4
more bytes per cell, otherwise, and the certificate rewrites them in
place.  With the frontier and a few bool masks, a pass over two balls
(``first_failing_pair``) peaks near 13 bytes per cell of one block.
Nothing grows with the square of the ball: no pair table is kept, and a
``distance`` query that needs a search is a block of one pair, searched
to depth R, that keeps no row.

Ends are estimated from an annulus: the number of connected components of
{v : n < d(v) <= N} that touch the outer frontier d(v) = N.  For graphs
where the annulus structure has stabilized (paths, lattices, trees) this
equals the number of ends.  Components are found by numpy hook and
compress over the neighbor table (``_component_labels``).
"""

from __future__ import annotations

import array
import json
import operator
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import BoundExceededError
from .lattice import LatticeAffine, offset_moves, offset_walk
from .perms import Permutation, _distinct, _named, walk, walk_table

DEFAULT_VERTEX_BOUND = 1_000_000
# cells (source rows x ball vertices x neighbor slots) one BFS block may
# touch: bounds the memory of every pair pass, which holds int32 rows, 4
# bytes per (row, vertex) cell of a block, and about 13 over two balls
_BLOCK_CELLS = 1 << 20

Edge = tuple[str, str, str]  # (key_u, key_v, generator name) with key_u <= key_v


class SchreierAction:
    """A set acted on by named automorphisms, with key serialization.

    ``generators`` is a sequence of (name, automorphism) pairs; they are
    kept as a tuple sorted by name, so traversal order (and therefore
    every exported artifact) is reproducible no matter how the list was
    built.  Names must be distinct.  ``apply`` defaults to aut.act(x);
    pass a different callable to act on group elements by right
    multiplication (Cayley graphs).
    """

    def __init__(
        self,
        backend_id: str,
        generators,
        key: Callable[[object], str],
        apply: Optional[Callable[[object, object], object]] = None,
    ):
        self.backend_id = backend_id
        named = _named(generators)
        names = [name for name, _ in named]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate generator names: {names}")
        self.generators = tuple(sorted(named, key=lambda g: g[0]))
        self.key = key
        self.apply = apply if apply is not None else _act


def _act(aut, x):
    """The default point action."""
    return aut.act(x)


def inner_action(backend, generators=None) -> SchreierAction:
    """Action of the inner group on the backend's elements."""
    gens = backend.inner_generators() if generators is None else generators
    return SchreierAction(f"{backend.backend_id}:inner", gens, backend.key)


def displacement_action(backend, generators=None) -> SchreierAction:
    gens = backend.displacement_generators() if generators is None else generators
    return SchreierAction(f"{backend.backend_id}:displacement", gens, backend.key)


def cayley_action(backend_id: str, generators) -> SchreierAction:
    """The group acting on itself by right multiplication; vertices are
    automorphism objects, so the ball at the identity realizes the word
    metric of the generating set."""
    return SchreierAction(
        f"{backend_id}:cayley",
        generators,
        key=lambda g: g.key(),
        apply=lambda aut, g: g * aut,
    )


def _identity_like(gens):
    """The identity of the group the (name, automorphism) pairs live in:
    the Cayley-ball basepoint."""
    g = gens[0][1]
    return g * g.inverse()


class LabeledBall:
    """A radius-R ball in a Schreier graph.

    Vertices are numbered 0..V-1 in BFS discovery order, and every
    per-vertex fact is stored once, in that order: ``depth`` (basepoint
    distances), ``keys`` and ``elements`` (the acted-on objects, none for
    a ball read back from JSON).  A built ball is given a ``_WalkPoints``
    for its keys, and makes ``keys``, ``elements`` and ``index`` (key ->
    vertex) from it on first use; ``basepoint`` (its key), ``vertex_count``
    and ``sphere_sizes`` never do.  The one graph is a ``_NeighborTable``
    over the vertex numbers, recorded by ``build_ball`` or converted from
    an edge list by ``ball_from_json_lines``; ``edges`` renders it, on
    first use, as the sorted, distinct ``(key_u, key_v, name)`` with
    key_u <= key_v, self-loops included, and pair queries, ends and the
    forest check walk the table itself.
    """

    def __init__(self, backend_id: str, radius: int, generator_names: list[str], keys: "list[str] | _WalkPoints",
                 depth: np.ndarray, neighbors: "_NeighborTable"):
        self.backend_id = backend_id
        self.radius = radius
        self.generator_names = generator_names
        self.depth = depth
        self._neighbors = neighbors
        self._walked = keys if isinstance(keys, _WalkPoints) else None
        if self._walked is None:
            self.keys = keys  # fills the cached property
        self.basepoint: str = self._walked.basepoint if self._walked else keys[0]

    @cached_property
    def keys(self) -> list[str]:
        return self._walked.keys()

    @cached_property
    def elements(self) -> list:
        return self._walked.elements() if self._walked else []

    @cached_property
    def index(self) -> dict[str, int]:
        return {k: i for i, k in enumerate(self.keys)}

    @cached_property
    def edges(self) -> list[Edge]:
        return self._neighbors.edges(self.keys)

    @property
    def vertex_count(self) -> int:
        return len(self.depth)

    def find(self, point) -> Optional[int]:
        """The vertex number of the acted-on ``point``, found by value among
        the walk's points, or None; a ball read from JSON finds nothing."""
        return self._walked.find(point) if self._walked else None

    def sphere_sizes(self) -> list[int]:
        return np.bincount(self.depth, minlength=self.radius + 1).tolist()

    def _block_rows(self) -> int:
        n, width = self._neighbors.array().shape
        return max(1, _BLOCK_CELLS // ((n + 1) * max(1, width)))

    def _certified(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Certified int32 distances from each vertex of ``rows`` to each
        of ``cols``, -1 where the ball cannot certify the pair."""
        R = self.radius
        dx = self.depth[rows]
        # certified pairs lie at most R apart (see the module docstring)
        found = _bfs(self._neighbors.array(), rows, R, (dx > 0) & (dx < R))
        # the columns are read in place when they are one ascending run, as
        # in ``certified_pairs``, and gathered once otherwise
        if cols.size and cols[-1] - cols[0] == cols.size - 1 and (np.diff(cols) == 1).all():
            found = found[:, cols[0] : cols[-1] + 1]
        else:
            found = found[:, cols]
        return _certify(found, dx, self.depth[cols], R)

    def distances_from(self, key: str) -> dict[str, int]:
        """BFS distances inside the ball subgraph from one vertex."""
        if key not in self.index:
            raise KeyError(f"vertex {key!r} not in ball")
        row = _bfs(self._neighbors.array(), np.array([self.index[key]]), self.vertex_count)[0].tolist()
        return {k: d for k, d in zip(self.keys, row) if d >= 0}

    def distance(self, x: str, y: str) -> Optional[int]:
        """Distance between two vertices, or None when the ball cannot
        certify it (vertex undiscovered, no path inside the ball, or the
        certificate inequality fails)."""
        i, j = self.index.get(x), self.index.get(y)
        if i is None or j is None:
            return None
        if i == j:
            return 0
        # the answers ``_certify`` gives without a search
        dx, dy = int(self.depth[i]), int(self.depth[j])
        if dx == 0 or dy == 0:
            return dx + dy
        if max(dx, dy) >= self.radius:
            return None
        d = int(self._certified(np.array([i]), np.array([j]))[0, 0])
        return d if d >= 0 else None

    def certified_pairs(self):
        """Yield (x, y, d) over certified unordered pairs, x < y."""
        keys = self.keys
        order = np.arange(len(keys))
        for i0, i1, upper in _upper_blocks(len(keys), self._block_rows()):
            d = self._certified(order[i0:i1], order[i0 + 1 :])
            r, c = np.nonzero(upper & (d >= 0))
            found = d[r, c].tolist()
            del d  # the block's rows go before its pairs are handed out
            for x, y, dxy in zip((r + i0).tolist(), (c + i0 + 1).tolist(), found):
                yield keys[x], keys[y], dxy


class _WalkPoints:
    """A built ball's points as its walk made them: the int array of
    ``perms.walk``, the int64 (vertex x coordinate) offsets from the
    basepoint of ``lattice.offset_walk``, or the element list of
    ``_generic_bfs``.  Only the basepoint is keyed up front."""

    def __init__(self, points, base, key: Callable[[object], str]):
        self.points, self.base, self.key = points, base, key
        self.basepoint = key(base)

    def _rest(self) -> Iterable:  # the elements after the basepoint
        points = self.points
        if isinstance(points, list):
            return points[1:]
        if points.ndim == 1:
            return points[1:].tolist()
        # zipping the columns makes the tuples of Python ints without a
        # list per row, which keeps the peak memory down
        return zip(*(points[1:] + np.array(self.base, dtype=np.int64)).T.tolist())

    def elements(self) -> list:
        return self.points if isinstance(self.points, list) else [self.base, *self._rest()]

    def keys(self) -> list[str]:
        return [self.basepoint, *map(self.key, self._rest())]

    def find(self, point) -> Optional[int]:
        points, hits = self.points, []
        if isinstance(points, list):
            with suppress(ValueError):  # one scan; absent points fall through
                return points.index(point)
        elif points.ndim == 1 and isinstance(point, (int, np.integer)):
            hits = np.flatnonzero(points == point)
        elif points.ndim == 2 and isinstance(point, tuple) and len(point) == points.shape[1]:
            offset = [v - b for v, b in zip(point, self.base) if type(v) is int]
            # every offset of the walk lies below 2^62 (``lattice.offset_moves``)
            if len(offset) == len(point) and max(map(abs, offset)) < 1 << 62:
                hits = np.flatnonzero((points == offset).all(axis=1))
        return int(hits[0]) if len(hits) else None


def _certify(d: np.ndarray, dx: np.ndarray, dy: np.ndarray, radius: int) -> np.ndarray:
    """The certificate, applied in place to the int32 ball-subgraph
    distances ``d`` (-1 where not searched or unreachable) from vertices
    at basepoint depths ``dx`` (rows) to vertices at depths ``dy``
    (columns); returns ``d``, with -1 where a pair is not certified.  A
    pair through the basepoint is exact, since the ball was grown by BFS
    over the full graph; any other needs both ends strictly inside the
    ball and d + dx + dy <= 2R + 1.  Rows with dx >= R come unsearched,
    all -1."""
    d[:, dy >= radius] = -1
    # the sum test as d + dy against each row's limit 2R + 1 - dx, with
    # -1 cells back at -1 either way; d, dx and dy are below V, and
    # V < 2^29 for any table that fits in memory, so no sum leaves int32
    d += dy
    over = d > min(2 * radius + 1, 2**31 - 1) - dx[:, None]
    d -= dy
    d[over] = -1
    d[:, dy == 0] = dx[:, None]
    d[dx == 0] = dy
    return d


def _bfs(table: np.ndarray, sources: np.ndarray, depth: int, searched: Optional[np.ndarray] = None) -> np.ndarray:
    """Ball-subgraph distances from each source to every vertex, int32,
    -1 past ``depth`` or when unreachable; one row per source, all -1 for
    a source that the bool mask ``searched`` leaves out.

    ``table`` is a ball's (vertex x slot) neighbor table with the vertex
    count V as its off-ball sentinel.  Self-loops and parallel slots need
    no care: a visited cell is never entered again.
    """
    n = table.shape[0]
    width = n + 1
    dist = np.full((sources.size, width), -1, dtype=np.int32)
    dist[:, n] = 0  # the sentinel counts as visited, so it is never expanded
    flat = dist.reshape(-1)
    rows = np.arange(sources.size) if searched is None else np.flatnonzero(searched)
    cells = rows * width + sources[rows]
    flat[cells] = 0
    for d in range(1, depth + 1):
        if not cells.size:
            break
        vertex = cells % width
        nxt = table[vertex]
        nxt += (cells - vertex)[:, None]
        nxt = nxt[flat[nxt] < 0]
        # a cell reached twice keeps only the copy whose tag the last
        # write left in place, so each cell enters the frontier once
        tag = np.arange(-2, -2 - nxt.size, -1, dtype=np.int32)
        flat[nxt] = tag
        cells = nxt[flat[nxt] == tag]
        flat[cells] = d
    return dist[:, :n]


def _upper_blocks(m: int, step: int):
    """Blocks of rows of the pairs i < j < m: yields (i0, i1, upper) for
    rows i0..i1-1 against columns i0+1..m-1, with ``upper`` marking i < j."""
    for i0 in range(0, m - 1, step):
        i1 = min(i0 + step, m - 1)
        yield i0, i1, np.arange(i0, i1)[:, None] < np.arange(i0 + 1, m)


def first_failing_pair(ball_a: LabeledBall, rows_a, ball_b: LabeledBall, rows_b, fails):
    """Walk pairs i < j of two matched arrays of vertex numbers in row
    order, over the pairs certified in both balls.

    ``fails(d_a, d_b)`` takes arrays of certified distances and marks the
    failing pairs.  Returns ``(checked, failure)``: the number of pairs
    certified in both balls up to and including the first failing one,
    and that pair as ``(i, j, d_a, d_b)``, or None when no pair fails.
    """
    checked = 0
    step = min(ball_a._block_rows(), ball_b._block_rows())
    for i0, i1, upper in _upper_blocks(len(rows_a), step):
        da = ball_a._certified(rows_a[i0:i1], rows_a[i0 + 1 :])
        db = ball_b._certified(rows_b[i0:i1], rows_b[i0 + 1 :])
        both = da >= 0
        both &= db >= 0
        both &= upper
        bad = both & fails(da, db)
        if bad.any():
            k = int(np.argmax(bad))  # first failure in (i, j) order
            checked += int(np.count_nonzero(both.ravel()[: k + 1]))
            r, c = divmod(k, bad.shape[1])
            return checked, (i0 + r, i0 + 1 + c, int(da[r, c]), int(db[r, c]))
        checked += int(np.count_nonzero(both))
        del da, db, both, bad  # the next block starts with nothing held
    return checked, None


class _NeighborTable:
    """A ball's graph: a (vertex x slot) table of neighbor indices, with
    the vertex count V where a move leaves the ball, and a label per cell
    that indexes ``names``, which is sorted.

    ``table`` is the int64 array, or the one function that makes it,
    which ``array()`` calls once, on first use: a built ball's walk hands
    over such a function, and its labels are its moves' generator
    indices, broadcast over the rows.  An edge list is converted once,
    by ``from_edges``, into a full table padded with V.
    """

    def __init__(self, table: "np.ndarray | Callable[[], np.ndarray]", labels: np.ndarray, names: list[str]):
        self._table, self._labels, self.names = table, labels, names

    @classmethod
    def from_edges(cls, index: dict[str, int], edges: Iterable[Edge]) -> "_NeighborTable":
        """Edge (u, v, name) fills one slot of row u and, unless it is a
        self-loop, one of row v."""
        edges = list(edges)
        names = sorted({name for _u, _v, name in edges})
        label = {name: i for i, name in enumerate(names)}
        cells = [(index[u], index[v], label[name]) for u, v, name in edges]
        u, v, lab = np.array(cells, dtype=np.int64).reshape(-1, 3).T
        back = u != v
        src, dst = np.concatenate([u, v[back]]), np.concatenate([v, u[back]])
        lab = np.concatenate([lab, lab[back]])
        order = np.argsort(src, kind="stable")
        src, dst, lab = src[order], dst[order], lab[order]
        n = len(index)
        degree = np.bincount(src, minlength=n)
        slot = np.arange(src.size) - (np.cumsum(degree) - degree)[src]
        table = np.full((n, int(degree.max(initial=0))), n, dtype=np.int64)
        table[src, slot] = dst
        labels = np.zeros_like(table)
        labels[src, slot] = lab
        return cls(table, labels, names)

    def array(self) -> np.ndarray:
        if callable(self._table):
            self._table = self._table()
        return self._table

    def codes(self, rank: Optional[np.ndarray] = None) -> np.ndarray:
        """One sorted code per distinct edge, (lo * V + hi) * g + label
        for g names, where lo <= hi are its ends renumbered by ``rank``."""
        table = self.array()
        n = table.shape[0]
        u, slot = np.nonzero(table < n)
        v = table[u, slot]
        label = np.broadcast_to(self._labels, table.shape)[u, slot]
        if rank is not None:
            u, v = rank[u], rank[v]
        # n*n*g stays inside int64 for any ball that fits in memory
        codes = np.minimum(u, v)
        np.maximum(u, v, out=v)
        codes *= n
        codes += v
        codes *= len(self.names)
        codes += label
        return _distinct(codes)

    def edges(self, keys: list[str]) -> list[Edge]:
        """Sorted, distinct ``(key_u, key_v, name)`` with key_u <= key_v."""
        n = len(keys)
        order = sorted(range(n), key=keys.__getitem__)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        # codes sort as (key_u, key_v, name): ranks follow key order and
        # labels follow name order
        pair, label = np.divmod(self.codes(rank), len(self.names))
        lo, hi = np.divmod(pair, n)
        # object arrays hand out the existing strings, not new ints
        by_rank = np.array([keys[i] for i in order], dtype=object)
        names = np.array(self.names, dtype=object)
        return list(zip(by_rank[lo].tolist(), by_rank[hi].tolist(), names[label].tolist()))


def _finite_moves(moves: list) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The ``Permutation`` moves for ``perms.walk`` as ``(table, columns)``:
    move m is column ``columns[m]`` (m if None) of ``table``, the table
    that all the image rows are columns of (``_table_columns``), else the
    rows stacked once."""
    images = [m.images for m in moves]
    return _table_columns(images) or (np.stack(images, axis=1), None)


def _table_columns(images: list[np.ndarray]) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``(table, columns)`` with images[m] exactly column columns[m] of
    ``table``, an (n x w) view of the C-contiguous array that all the rows
    view with a stride of w entries; None for any other layout."""
    owner, (n,), (stride,) = images[0].base, images[0].shape, images[0].strides
    same = isinstance(owner, np.ndarray) and all(
        r.base is owner and r.dtype == owner.dtype and r.strides == (stride,) and r.shape == (n,) for r in images
    )
    if not (same and owner.flags.c_contiguous and stride % owner.itemsize == 0 and owner.nbytes == n * stride):
        return None
    table = owner.reshape(n, -1)
    start = table.__array_interface__["data"][0]
    columns, rest = np.divmod([r.__array_interface__["data"][0] - start for r in images], owner.itemsize)
    return (table, columns) if not rest.any() and 0 <= columns.min() <= columns.max() < table.shape[1] else None


def _moves(action: SchreierAction) -> tuple[list, np.ndarray]:
    """The moves of an action, each generator and then its inverse unless
    it is an involution, with each move's generator index."""
    moves, move_gen = [], []
    for i, (_, aut) in enumerate(action.generators):
        inverse = aut.inverse()
        moves.append(aut)
        move_gen.append(i)
        if aut != inverse:
            moves.append(inverse)
            move_gen.append(i)
    return moves, np.array(move_gen, dtype=np.int64)


def _walk(action: SchreierAction, moves: list, basepoint, radius: int, max_vertices: int):
    """The one walk choice of ``build_ball``, as (points, sphere sizes,
    table maker): the first of ``perms.walk``, ``lattice.offset_walk`` and
    ``_generic_bfs`` whose preconditions, stated here, hold."""
    auts = [aut for _, aut in action.generators]
    kind = type(auts[0]) if action.apply is _act and auts and all(type(a) is type(auts[0]) for a in auts) else None
    if kind is Permutation:
        base = -1
        with suppress(TypeError):
            base = operator.index(basepoint)
        if all(a.degree == auts[0].degree for a in auts) and 0 <= base < auts[0].degree:
            table, columns = _finite_moves(moves)
            points, sizes = walk(table, base, radius, max_vertices, columns)
            return points, sizes, partial(walk_table, table, points, columns)
    elif kind is LatticeAffine:
        n = len(auts[0].shift)
        same = n >= 2 and all(len(a.matrix) == n and len(a.shift) == n for a in auts)
        if same and isinstance(basepoint, tuple) and len(basepoint) == n and all(type(v) is int for v in basepoint):
            offsets = offset_moves(moves, basepoint, radius)
            if offsets is not None:
                return offset_walk(*offsets, radius, max_vertices)
    return _generic_bfs(action.apply, moves, basepoint, radius, max_vertices)


def build_ball(action: SchreierAction, basepoint, radius: int, max_vertices: int = DEFAULT_VERTEX_BOUND) -> LabeledBall:
    """Breadth-first ball of the action at ``basepoint``.

    Vertices appear in BFS order with generator name breaking ties; the
    ball's edges cover every generator move between its vertices,
    including those between two radius-R vertices.  The walk tells
    points apart by value; the ball keys its basepoint and makes the
    other keys, each once, on first use (see the module docstring).
    Raises BoundExceededError, carrying the last completed radius and its
    vertex count, iff a vertex beyond the basepoint takes the count past
    ``max_vertices``.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    moves, move_gen = _moves(action)
    points, sizes, table = _walk(action, moves, basepoint, radius, max_vertices)
    names = [name for name, _ in action.generators]
    depth = np.repeat(np.arange(len(sizes)), sizes)
    neighbors = _NeighborTable(table, move_gen, names)
    return LabeledBall(action.backend_id, radius, names, _WalkPoints(points, basepoint, action.key), depth, neighbors)


def _generic_bfs(apply, moves: list, basepoint, radius: int, max_vertices: int):
    """BFS applying one move at a time, numbering points by a dict from
    point to vertex; returns (elements, sphere sizes, table), where
    ``table`` makes the neighbor table.  The walk appends the rows inside
    ``radius`` to one int64 buffer, and ``table`` appends the last
    sphere's and reads the buffer as the table, with no copy."""
    elements, vertex = [basepoint], {basepoint: 0}
    sizes, rows = [1], array.array("q")
    done = 0  # vertices whose rows are in the buffer
    for d in range(1, radius + 1):
        end = len(elements)
        if done == end:
            break
        for x in elements[done:end]:
            for aut in moves:
                y = apply(aut, x)
                j = vertex.setdefault(y, len(elements))
                if j == len(elements):
                    if j >= max_vertices:
                        raise BoundExceededError("schreier ball", max_vertices, radius=d - 1, vertices=end)
                    elements.append(y)
                rows.append(j)
        sizes.append(len(elements) - end)
        done = end

    def table() -> np.ndarray:
        rows.extend(vertex.get(apply(aut, x), len(elements)) for x in elements[done:] for aut in moves)
        return np.frombuffer(rows, dtype=np.int64).reshape(len(elements), len(moves))

    return elements, sizes, table


def _component_labels(table: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Each vertex marked ``inside`` labeled by the first vertex of its
    component in the subgraph of a neighbor ``table`` on them; -1 outside.

    Hook and compress (Y. Shiloach and U. Vishkin, J. Algorithms 3, 1982)
    over each undirected edge once, u < v, in int32 while V < 2^31: a
    round hooks the larger root of each edge between two trees onto the
    smallest root across one (``np.minimum.at``), jumps pointers to the
    roots and drops the edges inside a tree.  A component's root is thus
    its first vertex.
    """
    n = inside.size
    parent = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    keep = (table > parent[:, None]) & inside[:, None] & np.append(inside, False)[table]
    u, v = np.broadcast_to(parent[:, None], table.shape)[keep], table[keep].astype(parent.dtype)
    while u.size:
        ru, rv = parent[u], parent[v]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while not np.array_equal(up := parent[parent], parent):
            parent = up
        cross = parent[u] != parent[v]
        u, v = u[cross], v[cross]
    return np.where(inside, parent, -1).astype(np.int64)


def ends_estimate(ball: LabeledBall, inner_radius: int) -> int:
    """Number of components of {v : inner_radius < d(v) <= R} that reach
    the outer frontier d(v) = R.

    With R comfortably larger than inner_radius (the acceptance runs use
    R = 4n) this counts the ends of graphs whose coarse shape has
    stabilized: 1 on a half line, 2 on a line, one per branch on a tree.
    """
    if not 0 <= inner_radius < ball.radius:
        raise ValueError("need 0 <= inner_radius < ball radius")
    label = _component_labels(ball._neighbors.array(), ball.depth > inner_radius)
    return int(np.count_nonzero(np.bincount(label[ball.depth == ball.radius])))


def loopless_forest_check(ball: LabeledBall) -> bool:
    """After dropping self-loops, is the ball graph a forest?

    Edge identity is (vertex pair, generator name), so two generators
    connecting the same pair count as a multi-edge and defeat the check,
    while a generator and its inverse never double-count.
    """
    n = ball.vertex_count
    pair = ball._neighbors.codes() // max(1, len(ball._neighbors.names))
    simple = np.count_nonzero(pair // n != pair % n)
    components = np.count_nonzero(_component_labels(ball._neighbors.array(), np.ones(n, dtype=bool)) == np.arange(n))
    return simple == n - components


@dataclass(frozen=True)
class ComparisonResult:
    status: str  # "pass" | "fail" | "inconclusive"
    constant: Optional[int] = None
    witness: Optional[dict] = None
    pairs_checked: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def bilipschitz_constant(
    gens_a, gens_b, max_length: int, max_vertices: int = DEFAULT_VERTEX_BOUND
) -> Optional[int]:
    """Smallest L with every generator of each set a word of length <= L
    in the other; None if some generator is not expressible within
    max_length.

    Word lengths are depths in the Cayley ball of the other set at the
    identity, grown one radius at a time until it holds every target or
    closes up; its ``max_vertices`` cap is ``build_ball``'s.  Both sets
    must use one automorphism representation, else TypeError.
    """
    a, b = _named(gens_a), _named(gens_b)
    kinds = sorted({type(aut).__name__ for _, aut in a + b})
    if len(kinds) > 1:
        raise TypeError(f"generating sets mix representations: {', '.join(kinds)}")
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    worst = 1
    for one, other in ((a, b), (b, a)):
        if not one:
            continue
        if not other:
            raise ValueError("an empty generating set expresses no generator")
        action, identity = cayley_action("bilipschitz", other), _identity_like(other)
        for r in range(max_length + 1):
            ball = build_ball(action, identity, r, max_vertices=max_vertices)
            found = [ball.find(aut) for _, aut in one]
            if None not in found:
                break
            if ball.depth[-1] < r:  # closed up: the group is finite and enumerated
                return None
        else:
            return None
        worst = max(worst, int(ball.depth[found].max()))
    return worst


def _exceeds(d: np.ndarray, e: np.ndarray, bound: int) -> np.ndarray:
    """d > bound * e, elementwise and exactly, for int32 arrays and a bound
    1 <= L < 2**31, without the product, which could leave int32.

    For integers a, e and L >= 1, a >= L e  <=>  a / L >= e  <=>
    floor(a / L) >= e, the last because e is an integer.  With a = d - 1,
    d > L e  <=>  d - 1 >= L e  <=>  (d - 1) // L >= e.  Every term stays
    within [min(d) - 1, max(d)], so nothing overflows."""
    floor = d - 1
    floor //= bound
    return floor >= e


def bilipschitz_compare(
    ball_a: LabeledBall, ball_b: LabeledBall, constant: int
) -> ComparisonResult:
    """Check (1/L) d_a <= d_b <= L d_a over pairs certified in both balls.

    Both balls must share their basepoint; vertices are matched by key,
    so the two balls must also serialize elements identically.
    """
    if ball_a.basepoint != ball_b.basepoint:
        raise ValueError("balls have different basepoints")
    if constant < 1:
        raise ValueError("constant must be >= 1")
    index_b = ball_b.index
    shared = [(i, index_b[k]) for i, k in enumerate(ball_a.keys) if k in index_b]
    rows_a, rows_b = np.array(shared, dtype=np.int64).reshape(-1, 2).T
    # distances are below 2**31 - 1, so every constant from there on
    # decides alike; the cap keeps the divisor inside int32
    bound = min(constant, 2**31 - 1)
    checked, failure = first_failing_pair(
        ball_a, rows_a, ball_b, rows_b, lambda da, db: _exceeds(da, db, bound) | _exceeds(db, da, bound)
    )
    if failure is not None:
        i, j, da, db = failure
        x, y = ball_a.keys[rows_a[i]], ball_a.keys[rows_a[j]]
        return ComparisonResult("fail", constant, {"x": x, "y": y, "d_a": da, "d_b": db}, checked)
    if checked == 0:
        return ComparisonResult("inconclusive", constant, None, 0)
    return ComparisonResult("pass", constant, None, checked)


# ---------------------------------------------------------------------------
# serialization


def ball_to_json_lines(ball: LabeledBall) -> str:
    """One JSON record per line: header, vertices in BFS order, sorted
    edges.  Byte-deterministic for identical inputs."""
    records = [
        {
            "type": "header",
            "backend": ball.backend_id,
            "basepoint": ball.basepoint,
            "radius": ball.radius,
            "generators": ball.generator_names,
        }
    ]
    records.extend(
        {"type": "vertex", "key": k, "distance": d} for k, d in zip(ball.keys, ball.depth.tolist())
    )
    records.extend(
        {"type": "edge", "u": u, "v": v, "label": name} for u, v, name in ball.edges
    )
    return "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records) + "\n"


def _fields(rec, *names: str) -> list:
    """The values of ``names`` in one JSON record; ValueError if it lacks any."""
    missing = [name for name in names if not isinstance(rec, dict) or name not in rec]
    if missing:
        raise ValueError(f"record {rec!r} lacks {', '.join(missing)}")
    return [rec[name] for name in names]


def ball_from_json_lines(text: str) -> LabeledBall:
    header = None
    keys: list[str] = []
    depth: list[int] = []
    edges: list[Edge] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        (kind,) = _fields(rec, "type")
        if kind == "header":
            header = rec
        elif kind == "vertex":
            key, distance = _fields(rec, "key", "distance")
            # bool is an int subclass; json gives int, float or bool here
            if type(distance) is not int:
                raise ValueError(f"vertex {key!r} has distance {distance!r}, not an integer")
            keys.append(key)
            depth.append(distance)
        elif kind == "edge":
            edges.append(tuple(_fields(rec, "u", "v", "label")))
        else:
            raise ValueError(f"unknown record type {kind!r}")
    if header is None:
        raise ValueError("missing header record")
    backend, basepoint, radius, generators = _fields(header, "backend", "basepoint", "radius", "generators")
    if type(radius) is not int:
        raise ValueError(f"header radius {radius!r} is not an integer")
    index = {k: i for i, k in enumerate(keys)}
    if keys[:1] != [basepoint] or len(index) != len(keys):
        raise ValueError("vertex records must be distinct and start at the basepoint")
    depth = np.array(depth, dtype=np.int64)
    steps = np.diff(depth)
    if depth[0] != 0 or (depth[1:] < 1).any() or (steps < 0).any() or (steps > 1).any() or depth[-1] > radius:
        raise ValueError(
            "vertex distances must rise by steps of 0 or 1 from 0 at the basepoint alone to at most the radius"
        )
    stray = [k for edge in edges for k in edge[:2] if k not in index]
    if stray:
        raise ValueError(f"edge endpoint {stray[0]!r} has no vertex record")
    return LabeledBall(backend, radius, list(generators), keys, depth, _NeighborTable.from_edges(index, edges))


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def ball_to_dot(ball: LabeledBall) -> str:
    """Undirected DOT graph; vertex labels carry the distance, edge labels
    the generator name.  Deterministic output."""
    lines = ["graph schreier_ball {"]
    lines.append(f"  // backend={ball.backend_id} basepoint={ball.basepoint} radius={ball.radius}")
    for k, d in zip(ball.keys, ball.depth.tolist()):
        lines.append(f"  {_dot_quote(k)} [label={_dot_quote(f'{k} d={d}')}];")
    for u, v, name in ball.edges:
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)} [label={_dot_quote(name)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
