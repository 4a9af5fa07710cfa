"""Oracle checks for the certified pair pass of `schreier`.

networkx supplies ball-subgraph distances, and `_pairwise_walk` copies the
per-pair loop that the pair pass replaced, so comparisons, pair counts and
witnesses are checked against the pair-by-pair definition.
"""

from contextlib import contextmanager

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import depths, rewired, traced_peak

from quandles import schreier, verify
from quandles.families import dihedral_quandle, free_quandle, galex_lattice
from quandles.quandle import FiniteQuandle
from quandles.schreier import (
    ComparisonResult,
    SchreierAction,
    bilipschitz_compare,
    _identity_like,
    build_ball,
    cayley_action,
    displacement_action,
    first_failing_pair,
    inner_action,
)

ROT90 = [[0, -1], [1, 0]]
CAT = [[2, 1], [1, 1]]
SETTINGS = settings(max_examples=30, deadline=None)
# block sizes from one source row per block up to the default
BLOCK_CELLS = st.sampled_from([1, 256, schreier._BLOCK_CELLS])
# the small constants that decide, then constants at and past int32: an
# int32 product constant * d would wrap or overflow there, while every
# such constant must decide as the pairwise loop does
CONSTANTS = (1, 2, 3, 2**31 - 1, 2**31, 2**40)


@contextmanager
def _block_cells(cells):
    saved = schreier._BLOCK_CELLS
    schreier._BLOCK_CELLS = cells
    try:
        yield
    finally:
        schreier._BLOCK_CELLS = saved


class _Oracle:
    """Certified distances of one ball, defined pair by pair over
    networkx shortest paths in the ball subgraph."""

    def __init__(self, ball):
        self.ball = ball
        self.depth = depths(ball)
        self.graph = nx.Graph()
        self.graph.add_nodes_from(self.depth)
        self.graph.add_edges_from((u, v) for u, v, _name in ball.edges if u != v)
        self._rows = {}

    def row(self, x):
        if x not in self._rows:
            self._rows[x] = nx.single_source_shortest_path_length(self.graph, x)
        return self._rows[x]

    def distance(self, x, y):
        ball, radius, depth = self.ball, self.ball.radius, self.depth
        if x not in depth or y not in depth:
            return None
        if x == ball.basepoint:
            return depth[y]
        if y == ball.basepoint:
            return depth[x]
        d = self.row(x).get(y)
        if d is None:
            return None
        dx, dy = depth[x], depth[y]
        if x != y and (dx >= radius or dy >= radius):
            return None
        if d + dx + dy > 2 * radius + 1:
            return None
        return d


def _pairwise_walk(ball_a, keys_a, ball_b, keys_b, fails):
    """The per-pair loop that comparisons and the isometry suite ran:
    (pairs certified in both balls, first failing (i, j, d_a, d_b))."""
    oracle_a, oracle_b = _Oracle(ball_a), _Oracle(ball_b)
    checked = 0
    for i in range(len(keys_a)):
        for j in range(i + 1, len(keys_a)):
            da = oracle_a.distance(keys_a[i], keys_a[j])
            db = oracle_b.distance(keys_b[i], keys_b[j])
            if da is None or db is None:
                continue
            checked += 1
            if fails(da, db):
                return checked, (i, j, da, db)
    return checked, None


def _old_compare(ball_a, ball_b, constant):
    shared = [k for k in ball_a.keys if k in ball_b.index]
    checked, failure = _pairwise_walk(
        ball_a, shared, ball_b, shared, lambda da, db: not (da <= constant * db and db <= constant * da)
    )
    if failure is not None:
        i, j, da, db = failure
        return ComparisonResult("fail", constant, {"x": shared[i], "y": shared[j], "d_a": da, "d_b": db}, checked)
    if checked == 0:
        return ComparisonResult("inconclusive", constant, None, 0)
    return ComparisonResult("pass", constant, None, checked)


def _check_rows(ball):
    oracle = _Oracle(ball)
    keys = ball.keys
    expected = [
        (x, y, oracle.distance(x, y))
        for i, x in enumerate(keys)
        for y in keys[i + 1 :]
        if oracle.distance(x, y) is not None
    ]
    assert list(ball.certified_pairs()) == expected
    for x in keys:
        assert ball.distances_from(x) == oracle.row(x)
        for y in keys:
            assert ball.distance(x, y) == oracle.distance(x, y)


@st.composite
def alexander_balls(draw):
    """Balls of the Alexander quandle x <| y = t x + (1 - t) y on Z/n,
    under a random subset of its point symmetries."""
    n = draw(st.integers(2, 12))
    t = draw(st.sampled_from([u for u in range(1, n) if _gcd(u, n) == 1]))
    q = FiniteQuandle([[(t * x + (1 - t) * y) % n for y in range(n)] for x in range(n)])
    points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    action = SchreierAction("alexander", [(f"s{y}", q.symmetry(y)) for y in points], q.key)
    return build_ball(action, draw(st.integers(0, n - 1)), draw(st.integers(0, n)))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@SETTINGS
@given(alexander_balls(), BLOCK_CELLS)
def test_certified_rows_match_networkx_finite(ball, cells):
    with _block_cells(cells):
        _check_rows(ball)


@SETTINGS
@given(
    st.sampled_from([ROT90, CAT]),
    st.sampled_from([inner_action, displacement_action]),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(0, 4),
    BLOCK_CELLS,
)
def test_certified_rows_match_networkx_lattice(t, make_action, base, radius, cells):
    with _block_cells(cells):
        _check_rows(build_ball(make_action(galex_lattice(t)), base, radius))


def _r_n_symmetries(n, points):
    """R_n acted on by the point symmetries at ``points`` only: with three
    or more the Schreier graph has shortcuts around the ball."""
    q = dihedral_quandle(n)
    return SchreierAction(f"R_{n}", [(f"s{y}", q.symmetry(y)) for y in points], q.key)


def _growth_cases():
    """(action, basepoint, radius) on R_n, the dihedral quandle on Z, a
    lattice and free(a, b), with radii that keep each ball small."""
    dq, fq, lattice = dihedral_quandle("inf"), free_quandle(["a", "b"]), galex_lattice(CAT)
    r_n = st.integers(3, 32).flatmap(
        lambda n: st.tuples(
            st.one_of(
                st.sampled_from([inner_action, displacement_action]).map(lambda act: act(dihedral_quandle(n))),
                st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True).map(
                    lambda points: _r_n_symmetries(n, points)
                ),
            ),
            st.integers(0, n - 1),
            st.integers(0, n // 2 + 1),
        )
    )
    return st.one_of(
        r_n,
        st.tuples(st.sampled_from([inner_action(dq), displacement_action(dq)]), st.integers(-20, 20), st.integers(0, 12)),
        st.tuples(
            st.sampled_from([inner_action(lattice), displacement_action(lattice)]),
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            st.integers(0, 4),
        ),
        st.tuples(st.just(inner_action(fq)), st.sampled_from(["a^1", "b^a", "a^b^-1"]).map(fq.parse_key), st.integers(0, 3)),
    )


@settings(max_examples=60, deadline=None)
@given(_growth_cases(), st.integers(1, 3))
@example((_r_n_symmetries(19, [0, 2, 13]), 0, 4), 2)  # shortcuts outside the radius-4 ball
def test_growing_the_ball_keeps_every_certified_distance(case, extra):
    """Every pair certified at radius R is certified at R + extra with the
    same distance, so no emitted distance changes as the ball grows."""
    action, base, radius = case
    small, big = build_ball(action, base, radius), build_ball(action, base, radius + extra)
    pairs = list(small.certified_pairs())
    assert pairs == [(x, y, big.distance(x, y)) for x, y, _d in pairs]
    assert [big.distance(small.basepoint, x) for x in small.keys] == small.depth.tolist()


@SETTINGS
@given(st.integers(-50, 50), st.integers(1, 30), st.integers(1, 3), BLOCK_CELLS)
@example(3, 12, 2, 1)
@example(3, 12, 2, 256)
@example(3, 12, 2, schreier._BLOCK_CELLS)
def test_compare_matches_pairwise_loop_dihedral(base, radius, extra, cells):
    dq = dihedral_quandle("inf")
    gens_a = [(f"s{y}", dq.symmetry(y)) for y in (base, base + 1)]
    gens_b = gens_a + [(f"s{base + 1 + extra}", dq.symmetry(base + 1 + extra))]
    ball_a = build_ball(SchreierAction("a", gens_a, dq.key), base, radius)
    ball_b = build_ball(SchreierAction("b", gens_b, dq.key), base, radius)
    with _block_cells(cells):
        for constant in CONSTANTS:
            assert bilipschitz_compare(ball_a, ball_b, constant) == _old_compare(ball_a, ball_b, constant)
            assert bilipschitz_compare(ball_b, ball_a, constant) == _old_compare(ball_b, ball_a, constant)


@SETTINGS
@given(
    st.sampled_from(["a^1", "b^1", "a^b", "b^a^-1"]),
    st.sampled_from(["a^b", "b^a"]),
    st.integers(1, 4),
    BLOCK_CELLS,
)
@example("a^1", "a^b", 3, 1)
@example("a^1", "a^b", 3, 256)
@example("a^1", "a^b", 3, schreier._BLOCK_CELLS)
def test_compare_matches_pairwise_loop_free(base, extra, radius, cells):
    fq = free_quandle(["a", "b"])
    gens_a = [(f"s{x}", fq.symmetry(fq.generator(x))) for x in ("a", "b")]
    gens_b = gens_a + [(f"s{extra}", fq.symmetry(fq.parse_key(extra)))]
    ball_a = build_ball(SchreierAction("a", gens_a, fq.key), fq.parse_key(base), radius)
    ball_b = build_ball(SchreierAction("b", gens_b, fq.key), fq.parse_key(base), radius)
    with _block_cells(cells):
        for constant in CONSTANTS:
            assert bilipschitz_compare(ball_a, ball_b, constant) == _old_compare(ball_a, ball_b, constant)


@SETTINGS
@given(st.integers(2, 6), BLOCK_CELLS, st.data())
def test_isometry_failure_witness_matches_pairwise_loop(radius, cells, data):
    """A shortcut between two vertices of one sphere keeps the orbit ball's
    basepoint distances but shortens some pair, which the suite reports."""
    q = galex_lattice(ROT90)
    built = {}

    def build_with_shortcut(action, basepoint, r, **kwargs):
        ball = build_ball(action, basepoint, r, **kwargs)
        if action.backend_id.endswith(":displacement"):
            level = data.draw(st.integers(1, r - 1))
            sphere = [k for k, d in depths(ball).items() if d == level]
            u, v = sorted(data.draw(st.lists(st.sampled_from(sphere), min_size=2, max_size=2, unique=True)))
            ball = rewired(ball, ball.edges + [(u, v, "shortcut")])
        built[action.backend_id.rsplit(":", 1)[1]] = ball
        return ball

    original = verify.build_ball
    verify.build_ball = build_with_shortcut
    try:
        with _block_cells(cells):
            report = verify.verify_free_action_isometry(q, (0, 0), radius)
    finally:
        verify.build_ball = original

    word_ball, orbit_ball = built["cayley"], built["displacement"]
    keys = word_ball.keys
    images = [q.key(g.act((0, 0))) for g in word_ball.elements]
    checked, failure = _pairwise_walk(word_ball, keys, orbit_ball, images, lambda dw, do: dw != do)
    if failure is None:
        assert report.passed and report.details["pairs_checked"] == checked
    else:
        i, j, dw, do = failure
        assert report.witness == {"pair": (keys[i], keys[j]), "word_distance": dw, "orbit_distance": do}


@SETTINGS
@given(st.integers(2, 12), st.randoms(use_true_random=False), BLOCK_CELLS)
def test_pair_walk_in_any_vertex_order(radius, rng, cells):
    """The walk follows the callers' order, wherever the basepoint sits."""
    dq = dihedral_quandle("inf")
    ball_a = build_ball(inner_action(dq), 0, radius)
    ball_b = build_ball(displacement_action(dq), 0, radius)
    keys = [k for k in ball_a.keys if k in ball_b.index]
    rng.shuffle(keys)
    rows_a, rows_b = (np.array([ball.index[k] for k in keys], dtype=np.int64) for ball in (ball_a, ball_b))
    with _block_cells(cells):
        for fails in (lambda da, db: da != db, lambda da, db: da > db + 2):
            assert first_failing_pair(ball_a, rows_a, ball_b, rows_b, fails) == _pairwise_walk(
                ball_a, keys, ball_b, keys, fails
            )


def _trivial_pairs(ball):
    """The pairs that ``distance`` answers without a search: one vertex
    twice, the basepoint with any vertex, and any pair with an end on
    the outer sphere."""
    keys, depth, R = ball.keys, ball.depth.tolist(), ball.radius
    pairs = [(x, x) for x in keys]
    pairs += [(ball.basepoint, x) for x in keys] + [(x, ball.basepoint) for x in keys]
    outer = [k for k, d in zip(keys, depth) if d == R]
    pairs += [(x, y) for x in keys[:6] + outer[:6] for y in outer]
    return pairs


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_ball(displacement_action(dihedral_quandle("inf")), 5, 6),
        lambda: build_ball(inner_action(galex_lattice(ROT90)), (1, -2), 3),
        lambda: build_ball(inner_action(free_quandle(["a", "b"])), free_quandle(["a", "b"]).parse_key("a^1"), 3),
    ],
    ids=["dihedral-inf", "rot90-lattice", "free2"],
)
def test_distance_answers_trivial_pairs_without_a_search(make, monkeypatch):
    ball = make()
    oracle = _Oracle(ball)
    searches = []
    bfs = schreier._bfs
    monkeypatch.setattr(schreier, "_bfs", lambda *args: searches.append(args) or bfs(*args))
    for x, y in _trivial_pairs(ball):
        assert ball.distance(x, y) == oracle.distance(x, y)
    assert searches == []
    inner = [k for k, d in depths(ball).items() if 0 < d < ball.radius]
    assert ball.distance(inner[0], inner[-1]) == oracle.distance(inner[0], inner[-1])
    assert len(searches) == 1


def test_isometry_pair_pass_holds_about_one_block_per_ball():
    """The rot90 R = 20 balls of the free-action-isometry suite, with the
    orbit map as displacement-ball vertex numbers and both tables built."""
    q = galex_lattice(ROT90)
    action = displacement_action(q)
    orbit = build_ball(action, (0, 0), 20)
    word = build_ball(cayley_action(q.backend_id, action.generators), _identity_like(action.generators), 20)
    image = np.array([orbit.index[q.key(g.act((0, 0)))] for g in word.elements], dtype=np.int64)
    word.neighbors, orbit.neighbors
    rows = np.arange(word.vertex_count)
    (checked, failure), peak = traced_peak(
        lambda: first_failing_pair(word, rows, orbit, image, lambda dw, do: dw != do)
    )
    assert failure is None and checked > 0
    block = min(word._block_rows(), orbit._block_rows()) * (word.vertex_count + 1)
    # about 13 bytes per cell: each ball's int32 rows, the frontier and
    # the bool masks
    assert peak <= 20 * block


def test_certified_pairs_hold_about_one_block():
    fq = free_quandle(["a", "b"])
    ball = build_ball(inner_action(fq), fq.parse_key("a^1"), 7)
    ball.keys, ball.neighbors
    assert ball._block_rows() < ball.vertex_count  # the pass takes several blocks
    count, peak = traced_peak(lambda: sum(1 for _ in ball.certified_pairs()))
    assert count > 0
    # about 9 bytes per cell: the block's int32 rows, its masks and the
    # block's pairs read out
    assert peak <= 12 * ball._block_rows() * (ball.vertex_count + 1)
