import json
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import depths, rewired

from quandles.errors import BoundExceededError
from quandles.families import conjugation_quandle, dihedral_quandle, free_quandle, galex_lattice
from quandles.groups import symmetric_group
from quandles.perms import Permutation
from quandles.schreier import (
    SchreierAction,
    _finite_moves,
    _moves,
    _table_columns,
    ball_from_json_lines,
    ball_to_dot,
    ball_to_json_lines,
    bilipschitz_compare,
    bilipschitz_constant,
    build_ball,
    cayley_action,
    displacement_action,
    ends_estimate,
    inner_action,
    loopless_forest_check,
)

ROT90 = [[0, -1], [1, 0]]


def _bfs_oracle(edges, source):
    """Plain BFS over an undirected edge list, self-loops dropped."""
    adj = {}
    for u, v, _name in edges:
        adj.setdefault(u, set())
        adj.setdefault(v, set())
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in sorted(adj.get(u, ())):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def test_inner_ball_golden():
    dq = dihedral_quandle("inf")
    ball = build_ball(inner_action(dq), 0, 2)
    assert depths(ball) == {"0": 0, "2": 1, "-2": 2}
    assert ball.edges == [("-2", "2", "s0"), ("0", "0", "s0"), ("0", "2", "s1")]
    assert ball.basepoint == "0"
    assert ball.generator_names == ["s0", "s1"]
    assert ball.vertex_count == 3
    assert ball.sphere_sizes() == [1, 1, 1]


def test_displacement_ball_golden():
    dq = dihedral_quandle("inf")
    ball = build_ball(displacement_action(dq), 0, 3)
    assert sorted(ball.keys, key=int) == ["-6", "-4", "-2", "0", "2", "4", "6"]
    assert ball.sphere_sizes() == [1, 2, 2, 2]
    assert not any(u == v for u, v, _ in ball.edges)


def test_ball_distances_match_bfs_oracle():
    fq = free_quandle(["a", "b"])
    cases = [
        (inner_action(dihedral_quandle(9)), 0, 8),
        (displacement_action(galex_lattice(ROT90)), (0, 0), 4),
        (inner_action(fq), fq.generator("a"), 4),
    ]
    for action, base, radius in cases:
        ball = build_ball(action, base, radius)
        oracle = _bfs_oracle(ball.edges, ball.basepoint)
        assert depths(ball) == oracle


def test_distances_from_interior_matches_oracle():
    q = dihedral_quandle(11)
    ball = build_ball(inner_action(q), 0, 11)
    for src in ball.keys:
        assert ball.distances_from(src) == _bfs_oracle(ball.edges, src)


def test_certified_pairs_sound():
    """Certified in-ball distances agree with a strictly larger ball."""
    rng = random.Random(61)
    dq = dihedral_quandle("inf")
    lat = galex_lattice(ROT90)
    for action, base in [
        (inner_action(dq), 0),
        (displacement_action(dq), 0),
        (inner_action(lat), (0, 0)),
        (displacement_action(lat), (0, 0)),
    ]:
        small = build_ball(action, base, 6)
        big = build_ball(action, base, 12)
        count = 0
        for x, y, d in small.certified_pairs():
            count += 1
            assert big.distances_from(x).get(y) == d
        assert count > 0
        # basepoint rows are always certified out to the boundary
        for v, d in depths(small).items():
            assert small.distance(small.basepoint, v) == d


def test_distance_requires_certificate():
    dq = dihedral_quandle("inf")
    ball = build_ball(inner_action(dq), 0, 4)
    # ball is the path 0-2-(-2)-4-(-4); "-4" sits on the frontier
    assert ball.distance("4", "-4") is None
    assert ball.distances_from("4").get("-4") == 1
    assert ball.distance("0", "-4") == 4  # basepoint rows are exact
    assert ball.distance("0", "nope") is None


def test_ends_estimates():
    dq = dihedral_quandle("inf")
    assert ends_estimate(build_ball(inner_action(dq), 0, 20), 5) == 1
    assert ends_estimate(build_ball(displacement_action(dq), 0, 20), 5) == 2
    fq = free_quandle(["a", "b"])
    tree = build_ball(inner_action(fq), fq.generator("a"), 4)
    assert ends_estimate(tree, 2) == 18
    lat = build_ball(displacement_action(galex_lattice(ROT90)), (0, 0), 12)
    assert ends_estimate(lat, 4) == 1


@st.composite
def _unimodular(draw):
    """A square matrix of size 1 to 3 with determinant +-1, drawn directly
    (no rejection): a signed permutation matrix, then up to three row
    operations row_i += c row_j with i != j and c = +-1.  Entries stay
    within [-3, 3]."""
    size = draw(st.integers(1, 3))
    perm = draw(st.permutations(range(size)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size))
    rows = [[signs[i] if j == perm[i] else 0 for j in range(size)] for i in range(size)]
    for _ in range(draw(st.integers(0, 3)) if size > 1 else 0):
        i = draw(st.integers(0, size - 1))
        j = (i + draw(st.integers(1, size - 1))) % size
        c = draw(st.sampled_from([1, -1]))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=30, deadline=None)
@given(_unimodular(), st.sampled_from([2, 3, 4]))
@example([[1]], 3)  # rank 0: Dis is trivial
@example([[1, 1], [0, 1]], 4)  # rank 1
@example(ROT90, 4)  # rank 2
@example([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 4)  # rank 2 in Z^3
@example([[-1, 0, 0], [0, 0, -1], [0, 1, 0]], 4)  # rank 3
def test_displacement_ends_follow_the_rank_of_dis(t, n):
    """The displacement graph of GAlex(Z^d, t) is quasi-isometric to Dis,
    the lattice ``displacement_lattice()`` of rank r; ends are a
    quasi-isometry invariant, and Z^r has 0, 2 and 1 ends for r = 0,
    r = 1 and r >= 2 (Freudenthal-Hopf).  The estimate at (n, 4n) agrees."""
    q = galex_lattice(t)
    rank = q.displacement_lattice().rank
    ball = build_ball(displacement_action(q), q.zero(), 4 * n)
    assert ends_estimate(ball, n) == {0: 0, 1: 2}.get(rank, 1), (rank, ball.vertex_count)


@pytest.mark.parametrize(
    "t,radius",
    [
        ([[1, 1], [0, 1]], 10),  # rank 1: ratio 1.95
        (ROT90, 10),  # rank 2: 3.81
        ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 6),  # rank 2 in Z^3: 3.69
        ([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], 6),  # rank 3: 6.96
    ],
)
def test_displacement_growth_degree_is_the_rank_of_dis(t, radius):
    """The displacement graph of GAlex(Z^d, t) is quasi-isometric to the
    lattice Dis of rank r, and growth degree is a quasi-isometry
    invariant: Z^r grows like R^r, so |B(2R)| / |B(R)| tends to 2^r.  It
    tells rank 2 from rank 3, which the ends above cannot."""
    q = galex_lattice(t)
    sizes = build_ball(displacement_action(q), q.zero(), 2 * radius).sphere_sizes()
    ratio = sum(sizes) / sum(sizes[: radius + 1])
    assert round(math.log2(ratio)) == q.displacement_lattice().rank


def test_loopless_forest_check():
    fq = free_quandle(["a", "b"])
    tree = build_ball(inner_action(fq), fq.generator("a"), 5)
    assert loopless_forest_check(tree)
    grid = build_ball(inner_action(dihedral_quandle(9)), 0, 9)
    assert not loopless_forest_check(grid)


def test_schreier_action_rejects_duplicate_generators():
    dq = dihedral_quandle("inf")
    s0 = dq.symmetry(0)
    with pytest.raises(ValueError):
        SchreierAction("dih", [("s0", s0), ("s0", s0)], dq.key)


def test_schreier_action_sorts_generators_by_name():
    dq = dihedral_quandle("inf")
    s0, s1, s2 = dq.symmetry(0), dq.symmetry(1), dq.symmetry(2)
    action = SchreierAction("dih", [("s2", s2), ("s0", s0), ("s1", s1)], dq.key)
    assert action.generators == (("s0", s0), ("s1", s1), ("s2", s2))


def test_vertex_bound():
    fq = free_quandle(["a", "b", "c"])
    with pytest.raises(BoundExceededError):
        build_ball(inner_action(fq), fq.generator("a"), 6, max_vertices=100)


def test_bilipschitz_constant_golden():
    dq = dihedral_quandle("inf")
    gens_a = dq.inner_generators()
    gens_b = gens_a + [("s2", dq.symmetry(2))]
    assert bilipschitz_constant(gens_a, gens_b, 8) == 3
    # a lone generator of infinite order cannot express the rest
    assert bilipschitz_constant(gens_a, [("s5", dq.symmetry(5))], 4) is None
    # c^3 = (c^-1)^2 is shorter backwards, and c = (c^3)^2
    c = Permutation((1, 2, 3, 4, 0))
    assert bilipschitz_constant([("c", c)], [("c3", c * c * c)], 10) == 2
    # s3 = s0 in R_6, so {s0, s3} generates a group of order 2: its
    # Cayley ball closes up without s1, whatever the word length
    r6 = dihedral_quandle(6)
    order_two = [("s0", r6.symmetry(0)), ("s3", r6.symmetry(3))]
    assert bilipschitz_constant(r6.inner_generators(), order_two, 50) is None


def test_bilipschitz_constant_rejects_bare_automorphisms():
    # generators are (name, automorphism) pairs; a bare automorphism on
    # either side is a TypeError, not a generator named g<i>
    dq = dihedral_quandle("inf")
    gens_a = dq.inner_generators()
    with pytest.raises(TypeError):
        bilipschitz_constant(gens_a, [dq.symmetry(5)], 4)
    with pytest.raises(TypeError):
        bilipschitz_constant([dq.symmetry(0), dq.symmetry(1)], gens_a, 4)
    # so is a set that mixes automorphism representations
    with pytest.raises(TypeError):
        bilipschitz_constant(gens_a, [("p", Permutation((1, 0)))], 4)
    # an action's sorted pairs are themselves valid input
    gens_b = SchreierAction("dih", gens_a + [("s2", dq.symmetry(2))], dq.key).generators
    assert bilipschitz_constant(gens_a, gens_b, 5) == 3


def test_bilipschitz_constant_needs_a_length_and_generators():
    gens = dihedral_quandle("inf").inner_generators()
    with pytest.raises(ValueError):
        bilipschitz_constant(gens, gens, -1)
    with pytest.raises(ValueError):
        bilipschitz_constant(gens, [], 4)


def _word_length_before_cayley_balls(generators, target, max_length):
    """The word-length search as it was before it read Cayley-ball
    depths: a breadth-first search over automorphism objects."""
    named = list(generators)
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


def _constant_before_cayley_balls(gens_a, gens_b, max_length):
    worst = 1
    for one, other in ((gens_a, gens_b), (gens_b, gens_a)):
        for _, aut in one:
            n = _word_length_before_cayley_balls(other, aut, max_length)
            if n is None:
                return None
            worst = max(worst, n)
    return worst


def _product(auts):
    out = auts[0]
    for g in auts[1:]:
        out = out * g
    return out


@st.composite
def _generating_set_pairs(draw):
    """Two generating sets of one backend.  The first holds products of
    one or two point symmetries; the second is drawn alike, or (to share
    the first's group) holds each of its generators times a word in the
    ones before it, with perhaps one more word in them all."""
    backend = draw(st.sampled_from(["R_n", "conj-s4", "dihedral-inf", "rot90", "free2"]))
    if backend == "R_n":
        q = dihedral_quandle(draw(st.integers(3, 12)))
        points = range(q.size)
    elif backend == "conj-s4":
        q = conjugation_quandle(symmetric_group(4))
        points = range(q.size)
    elif backend == "dihedral-inf":
        q = dihedral_quandle("inf")
        points = range(-3, 4)
    elif backend == "rot90":
        q = galex_lattice(ROT90)
        points = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    else:
        q = free_quandle(["a", "b"])
        points = q.elements_window(1)
    # free balls grow like 3^r: two generators keep radius 6 small
    size = 2 if backend == "free2" else 3

    def genset(prefix):
        word = st.lists(st.sampled_from(list(points)), min_size=1, max_size=2)
        words = draw(st.lists(word, min_size=1, max_size=size))
        return [(f"{prefix}{i}", _product([q.symmetry(y) for y in w])) for i, w in enumerate(words)]

    gens_a = genset("a")
    if not draw(st.booleans()):
        return gens_a, genset("b")
    letters = [g for _, g in gens_a] + [g.inverse() for _, g in gens_a]
    gens_b = []
    for i, (_, aut) in enumerate(gens_a):
        earlier = letters[:i] + letters[len(gens_a) : len(gens_a) + i]
        tail = draw(st.lists(st.sampled_from(earlier), max_size=2)) if earlier else []
        gens_b.append((f"b{i}", _product([aut, *tail])))
    for word in draw(st.lists(st.lists(st.sampled_from(letters), min_size=2, max_size=3), max_size=1)):
        gens_b.append(("extra", _product(word)))
    return gens_a, gens_b


@settings(max_examples=120, deadline=None)
@given(_generating_set_pairs(), st.integers(0, 6))
def test_bilipschitz_constant_matches_the_object_search(gensets, max_length):
    gens_a, gens_b = gensets
    assert bilipschitz_constant(gens_a, gens_b, max_length) == _constant_before_cayley_balls(
        gens_a, gens_b, max_length
    )


def test_bilipschitz_compare():
    dq = dihedral_quandle("inf")
    gens_a = dq.inner_generators()
    gens_b = gens_a + [("s2", dq.symmetry(2))]
    ball_a = build_ball(SchreierAction("dih:a", gens_a, dq.key), 0, 10)
    ball_b = build_ball(SchreierAction("dih:b", gens_b, dq.key), 0, 10)
    good = bilipschitz_compare(ball_a, ball_b, 3)
    assert good.status == "pass" and good.passed
    assert good.pairs_checked > 0
    bad = bilipschitz_compare(ball_a, ball_b, 1)
    assert bad.status == "fail" and not bad.passed
    x, y = bad.witness["x"], bad.witness["y"]
    da, db = bad.witness["d_a"], bad.witness["d_b"]
    assert da > 1 * db or db > 1 * da
    with pytest.raises(ValueError):
        bilipschitz_compare(ball_a, build_ball(SchreierAction("dih:b", gens_b, dq.key), 2, 4), 3)


def test_cayley_action_line():
    dq = dihedral_quandle("inf")
    gens = dq.displacement_generators()
    ball = build_ball(cayley_action("dis-cayley", gens), gens[0][1].inverse() * gens[0][1], 5)
    assert ball.sphere_sizes() == [1, 2, 2, 2, 2, 2]


def test_json_roundtrip():
    ball = build_ball(displacement_action(dihedral_quandle("inf")), 0, 4)
    text = ball_to_json_lines(ball)
    again = ball_from_json_lines(text)
    assert again.basepoint == ball.basepoint
    assert again.radius == ball.radius
    assert depths(again) == depths(ball)
    assert again.edges == ball.edges
    assert again.generator_names == ball.generator_names
    # emitted text is stable
    assert text == ball_to_json_lines(ball)
    assert text.splitlines()[0].startswith('{"backend"')


def test_json_vertex_records_start_at_the_basepoint():
    lines = ball_to_json_lines(build_ball(inner_action(dihedral_quandle("inf")), 0, 2)).splitlines()
    header, vertices, edges = lines[0], lines[1:4], lines[4:]
    for bad in (vertices[1:], vertices[::-1], vertices + vertices[1:2]):
        with pytest.raises(ValueError, match="start at the basepoint"):
            ball_from_json_lines("\n".join([header, *bad, *edges]))
    # distances above the radius, falling, 0 past the basepoint or not 0 at it
    for bad in ([0, 2, 3], [0, 2, 1], [0, 0, 2], [0, 1, 0], [1, 1, 2]):
        records = [json.loads(v) for v in vertices]
        for record, d in zip(records, bad):
            record["distance"] = d
        with pytest.raises(ValueError, match="vertex distances"):
            ball_from_json_lines("\n".join([header, *map(json.dumps, records), *edges]))
    with pytest.raises(ValueError, match="'4' has no vertex record"):
        ball_from_json_lines("\n".join([header, *vertices, *edges, '{"label":"s1","type":"edge","u":"-2","v":"4"}']))


def _ball_records(radius):
    text = ball_to_json_lines(build_ball(inner_action(dihedral_quandle("inf")), 0, radius))
    return [json.loads(line) for line in text.splitlines()]


def _load(records):
    return ball_from_json_lines("\n".join(map(json.dumps, records)))


@pytest.mark.parametrize("field", ["backend", "basepoint", "radius", "generators"])
def test_json_header_lacking_a_field_is_rejected(field):
    records = _ball_records(2)
    del records[0][field]
    with pytest.raises(ValueError, match=f"lacks {field}"):
        _load(records)


def test_json_record_lacking_its_type_is_rejected():
    records = _ball_records(2)
    del records[1]["type"]
    with pytest.raises(ValueError, match="lacks type"):
        _load(records)


@pytest.mark.parametrize("value", [1.5, 1.0, True, "1"])
@pytest.mark.parametrize("row,field", [(2, "distance"), (0, "radius")])
def test_json_distance_that_is_not_an_integer_is_rejected(row, field, value):
    records = _ball_records(2)
    records[row][field] = value
    with pytest.raises(ValueError, match="not an integer"):
        _load(records)


def test_json_distances_that_skip_a_level_are_rejected():
    records = _ball_records(3)
    assert [r["distance"] for r in records[1:5]] == [0, 1, 2, 3]
    records[3]["distance"] = 3
    # read as it was, the ball would report an empty sphere 2: [1, 1, 0, 2]
    with pytest.raises(ValueError, match="steps of 0 or 1"):
        _load(records)


def _roundtrip_cases():
    dq, lat, fq = dihedral_quandle("inf"), galex_lattice(ROT90), free_quandle(["a", "b"])
    squares = [(f"{name}^2", aut * aut) for name, aut in fq.inner_generators()]
    return [
        ("dihedral-inf", inner_action(dq), displacement_action(dq), 0, 8),
        ("rot90", inner_action(lat), displacement_action(lat), (0, 0), 5),
        ("free-ab", inner_action(fq), SchreierAction("free:squares", squares, fq.key), fq.generator("a"), 3),
    ]


@pytest.mark.parametrize(
    "name,action_a,action_b,base,radius", _roundtrip_cases(), ids=[c[0] for c in _roundtrip_cases()]
)
def test_loaded_ball_answers_like_the_built_ball(name, action_a, action_b, base, radius):
    built = [build_ball(action, base, radius) for action in (action_a, action_b)]
    loaded = [ball_from_json_lines(ball_to_json_lines(ball)) for ball in built]
    for ball, again in zip(built, loaded):
        # queried before anything renders the loaded ball's edges
        assert list(again.certified_pairs()) == list(ball.certified_pairs())
        for key in ball.keys:
            assert again.distances_from(key) == ball.distances_from(key)
        assert [ends_estimate(again, k) for k in range(radius)] == [ends_estimate(ball, k) for k in range(radius)]
        assert loopless_forest_check(again) == loopless_forest_check(ball)
        same = bilipschitz_compare(ball, again, 1)
        assert same.passed and same.pairs_checked == len(list(ball.certified_pairs()))
        assert again.edges == ball.edges
    for constant in (1, 2, 3):
        assert bilipschitz_compare(*loaded, constant) == bilipschitz_compare(*built, constant)


def test_loaded_edge_list_renders_sorted_distinct_edges():
    built = build_ball(inner_action(dihedral_quandle("inf")), 0, 2)
    assert built.distance("0", "-2") == 2
    # unsorted, one edge twice, one edge reversed, a label outside generator_names
    edges = [
        ("0", "2", "s1"),
        ("2", "-2", "aux"),
        ("0", "0", "s0"),
        ("-2", "2", "s0"),
        ("0", "2", "s1"),
        ("-2", "0", "aux"),
    ]
    ball = rewired(built, edges)
    assert ball.edges == [
        ("-2", "0", "aux"),
        ("-2", "2", "aux"),
        ("-2", "2", "s0"),
        ("0", "0", "s0"),
        ("0", "2", "s1"),
    ]
    assert ball.generator_names == ["s0", "s1"]
    assert ball.distances_from("0") == {"0": 0, "2": 1, "-2": 1}
    assert ball_from_json_lines(ball_to_json_lines(ball)).edges == ball.edges


def test_dot_output():
    ball = build_ball(inner_action(dihedral_quandle("inf")), 0, 2)
    dot = ball_to_dot(ball)
    assert dot.startswith("graph schreier_ball {")
    assert dot.rstrip().endswith("}")
    assert '"0" -- "2" [label="s1"];' in dot
    assert '"-2" [label="-2 d=2"];' in dot


def _permutation_moves_before(action):
    """The (point x move) array and move generators as the finite walk
    built them before it took its moves from ``_moves``: numpy inverses,
    and an involution test of its own."""
    img = np.array([aut.images for _, aut in action.generators], dtype=np.int64)
    degree = img.shape[1]
    involution = (np.take_along_axis(img, img, axis=1) == np.arange(degree)).all(axis=1)
    move_gen = np.repeat(np.arange(len(img)), np.where(involution, 1, 2))
    first = np.concatenate(([True], move_gen[1:] != move_gen[:-1]))
    moves = np.empty((degree, move_gen.size), dtype=np.int64)
    moves[:, first] = img.T
    if not involution.all():
        inv = np.empty_like(img[~involution])
        inv[np.arange(len(inv))[:, None], img[~involution]] = np.arange(degree)
        moves[:, ~first] = inv.T
    return moves, move_gen


def _finite(action):
    """The finite walk's moves of ``action`` as (table, columns, move_gen)."""
    moves, move_gen = _moves(action)
    return (*_finite_moves(moves), move_gen)


def test_finite_moves_match_the_array_moves_before():
    """The moves, read in place from a table or stacked, equal the array
    the finite walk built before; a finite quandle's inner symmetries
    are read from its table itself."""
    r7, conj_s4 = dihedral_quandle(7), conjugation_quandle(symmetric_group(4))
    actions = [inner_action(r7), inner_action(conj_s4), displacement_action(r7), displacement_action(conj_s4)]
    for action in actions:
        moves, columns, move_gen = _finite(action)
        expected, expected_gen = _permutation_moves_before(action)
        assert moves.dtype == np.int64
        assert (moves if columns is None else moves[:, columns]).tolist() == expected.tolist()
        assert move_gen.tolist() == expected_gen.tolist()
    # R_7's symmetries are involutions, so every move is a column of its table
    moves, columns, _ = _finite(inner_action(r7))
    assert np.shares_memory(moves, r7.table) and columns.tolist() == list(range(7))
    # conj(S4) has symmetries of order 3, whose inverses are fresh rows
    assert _finite(inner_action(conj_s4))[1] is None
    # the displacement generators are no involutions, so each gives two moves
    assert len(_finite(displacement_action(r7))[2]) == 2 * 6


def test_table_columns_are_found_exactly():
    """Rows are read in place only when each is exactly a column of one
    C-contiguous array; every other layout is stacked."""
    flat = np.arange(12, dtype=np.int64)
    t = flat.reshape(3, 4)  # its base is the 1-d array
    rows = [Permutation.unchecked(t[:, c]).images for c in (2, 0, 3, 2)]
    table, columns = _table_columns(rows)
    assert np.shares_memory(table, t) and table.tolist() == t.tolist() and columns.tolist() == [2, 0, 3, 2]
    square = np.arange(16, dtype=np.int64).reshape(4, 4).copy()
    table, columns = _table_columns([square[:, 1], square[:, 3]])
    assert table.base is square and columns.tolist() == [1, 3]
    big = np.arange(30, dtype=np.int64).reshape(5, 6)
    fortran = np.asfortranarray(t)
    other = np.arange(12, dtype=np.int64).reshape(3, 4)
    for rows in (
        [t[1, :3]],  # a row, not a column
        [big[:3, 1]],  # a column of some rows of a bigger array
        [big[::2, 1]],  # every other row
        [fortran[:, 1]],  # a column of a Fortran-ordered array
        [t[:, 1], other[:, 1]],  # two arrays
        [t[:, 1], t[:, 1].copy()],  # a copy
        [t[::-1, 1]],  # reversed
        [t[:, 1].astype(np.int32)],
    ):
        assert _table_columns(rows) is None
    # a stacked fallback reads the same moves
    q = dihedral_quandle(9)
    action = SchreierAction("copied", [(f"s{y}", Permutation.unchecked(q.table[:, y].copy())) for y in range(9)], q.key)
    moves, columns, _ = _finite(action)
    assert columns is None and moves.tolist() == q.table.tolist()