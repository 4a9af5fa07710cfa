"""The integer-indexed ball core.

``build_ball`` walks a permutation action with numpy gathers, a lattice
action with int64 matrix products, a chunk of each sphere at a time, as
long as the offsets it reaches pass its int64 check, and every other
action one move at a time.  All three walks must give the same ball: the
same vertex order, elements, edges, serialized bytes, pair answers and
cap behaviour.  A copy of the original two-pass BFS, keyed by strings,
is the oracle for vertex order, elements and edges; Cayley balls, which
only the one-move walk builds, are compared with it directly.  A frozen
copy of the a priori bound that once guarded the lattice walk checks
that the walk's own check admits every ball that bound admitted.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import depths, key_counting, rewired, traced_peak

from quandles import perms
from quandles.cli import parse_generator_expressions
from quandles.errors import BoundExceededError
from quandles.families import (
    conjugation_automorphism,
    conjugation_quandle,
    dihedral_quandle,
    free_quandle,
    galex_finite,
    galex_lattice,
)
from quandles.groups import dihedral_group, symmetric_group
from quandles.quandle import FiniteQuandle
from quandles.schreier import (
    SchreierAction,
    _component_labels,
    _identity_like,
    _moves,
    _table_from_edges,
    ball_from_json_lines,
    ball_to_dot,
    ball_to_json_lines,
    build_ball,
    cayley_action,
    displacement_action,
    ends_estimate,
    inner_action,
    loopless_forest_check,
)


def _two_pass_ball(action, basepoint, radius):
    """The original build_ball: BFS keyed by strings, then every move
    applied a second time to collect the edge set.  Returns the (key,
    depth) pairs in BFS order, the sorted edges and the elements in BFS
    order."""
    moves = []
    for name, aut in action.generators:
        moves.append((name, aut))
        if aut != aut.inverse():
            moves.append((name, aut.inverse()))
    dist = {action.key(basepoint): 0}
    element = {action.key(basepoint): basepoint}
    frontier = [basepoint]
    for d in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for _name, aut in moves:
                y = action.apply(aut, x)
                ky = action.key(y)
                if ky not in dist:
                    dist[ky] = d
                    element[ky] = y
                    nxt.append(y)
        frontier = nxt
    edges = set()
    for kx, x in element.items():
        for name, aut in moves:
            ky = action.key(action.apply(aut, x))
            if ky in dist:
                edges.add((min(kx, ky), max(kx, ky), name))
    return list(dist.items()), sorted(edges), list(element.values())


def _generic(action):
    """The same action, forced onto the one-move-at-a-time path."""
    return SchreierAction(action.backend_id, action.generators, action.key, apply=lambda a, x: a.act(x))


def _walk_of(ball):
    """The walk that built ``ball``, read from the form of its points: the
    int array of ``perms.walk``, the int64 points of the lattice walk or
    the list of the generic walk."""
    points = ball._walked.points
    if isinstance(points, list):
        return "generic"
    assert points.dtype == np.int64
    return {1: "permutation", 2: "lattice"}[points.ndim]


def _path(action, base, radius):
    """The walk ``build_ball`` takes for this ball."""
    return _walk_of(build_ball(action, base, radius))


def _is_point(x, path):
    """An element as the walk of ``path`` hands it out: a Python int, or a
    tuple of Python ints on a lattice."""
    if path == "permutation":
        return type(x) is int
    return type(x) is tuple and all(type(v) is int for v in x)


CAT = [[2, 1], [1, 1]]
ROT90 = [[0, -1], [1, 0]]


def _cases():
    r9 = dihedral_quandle(9)
    r12 = dihedral_quandle(12)
    conj = conjugation_quandle(symmetric_group(4))
    d4 = dihedral_group(4)
    s4 = symmetric_group(4)
    custom = parse_generator_expressions(r9, ["s:1 s:0^-1", "s:3", "s:2 s:5"])
    cat, rot90 = galex_lattice(CAT), galex_lattice(ROT90)
    cycle3 = galex_lattice([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    shear3 = galex_lattice([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    # s:(1,0) s:(0,0)^-1 and s:(0,1) s:(0,0)^-1 are translations
    translations = parse_generator_expressions(rot90, ["s:(1,0) s:(0,0)^-1", "s:(0,1) s:(0,0)^-1", "s:(2,3)"])
    # row sum N = 513 and shifts up to D = 512: the a priori bound
    # D (1 + N + N^2) on its offsets is about 2^27, yet the offsets it
    # reaches stay within 512 R
    shear = galex_lattice([[1, 512], [0, 1]])
    return [
        ("r12-inner", "permutation", inner_action(r12), 0, 3),
        ("r12-inner-r0", "permutation", inner_action(r12), 5, 0),
        # displacement moves are not involutions, so inverses are moves too
        ("r12-displacement", "permutation", displacement_action(r12), 0, 4),
        ("r12-displacement-past-diameter", "permutation", displacement_action(r12), 3, 40),
        ("r9-inner", "permutation", inner_action(r9), 4, 9),
        ("conj-s4-inner", "permutation", inner_action(conj), 5, 3),
        ("conj-s4-displacement", "permutation", displacement_action(conj), 7, 4),
        ("galex-d4", "permutation", inner_action(galex_finite(d4, conjugation_automorphism(d4, 1))), 2, 3),
        ("galex-s4", "permutation", inner_action(galex_finite(s4, conjugation_automorphism(s4, 7))), 3, 4),
        ("r9-custom", "permutation", SchreierAction("finite:custom", custom, r9.key), 0, 6),
        # identity symmetries: self-loops only, no pair to certify
        ("trivial", "permutation", inner_action(FiniteQuandle([[0, 0, 0], [1, 1, 1], [2, 2, 2]])), 1, 3),
        ("cat-inner", "lattice", inner_action(cat), (0, 0), 5),
        ("cat-displacement-off-origin", "lattice", displacement_action(cat), (7, -3), 6),
        ("rot90-inner-off-origin", "lattice", inner_action(rot90), (40000, -25000), 7),
        ("rot90-inner-r0", "lattice", inner_action(rot90), (2, 1), 0),
        ("rot90-displacement", "lattice", displacement_action(rot90), (0, 0), 9),
        ("cycle3-inner", "lattice", inner_action(cycle3), (1, 0, -2), 4),
        ("shear3-displacement", "lattice", displacement_action(shear3), (0, 0, 0), 5),
        ("rot90-translations", "lattice", SchreierAction("lattice:custom", translations, rot90.key), (0, 0), 6),
        # every inner move of -I is an involution
        ("minus-identity-inner", "lattice", inner_action(galex_lattice([[-1, 0], [0, -1]])), (3, 4), 5),
        # identity matrix: every move fixes every point, self-loops only
        ("trivial-lattice", "lattice", inner_action(galex_lattice([[1, 0], [0, 1]])), (0, 0), 3),
        ("shear-near-the-guard", "lattice", inner_action(shear), (0, 0), 2),
    ]


@pytest.mark.parametrize("name,path,action,base,radius", _cases(), ids=[c[0] for c in _cases()])
def test_permutation_path_matches_generic_path(name, path, action, base, radius):
    generic = _generic(action)
    assert _path(action, base, radius) == path
    assert _path(generic, base, radius) == "generic"
    fast = build_ball(action, base, radius)
    slow = build_ball(generic, base, radius)
    order, edges, _ = _two_pass_ball(action, base, radius)

    assert list(depths(fast).items()) == list(depths(slow).items()) == order
    assert fast.elements == slow.elements
    assert fast.elements[0] is base
    assert all(_is_point(x, path) for x in fast.elements)
    assert fast.edges == slow.edges == edges
    assert ball_to_json_lines(fast) == ball_to_json_lines(slow)
    assert ball_to_dot(fast) == ball_to_dot(slow)
    assert list(fast.certified_pairs()) == list(slow.certified_pairs())
    if radius > 0:
        assert ends_estimate(fast, radius - 1) == ends_estimate(slow, radius - 1)


@pytest.mark.parametrize("name,path,action,base,radius", _cases(), ids=[c[0] for c in _cases()])
def test_both_paths_stop_at_the_same_cap(name, path, action, base, radius):
    sizes = build_ball(action, base, radius).sphere_sizes()
    total = sum(sizes)
    # the basepoint alone never trips the cap, so caps start at 1
    for cap in sorted({1, 2, sizes[0] + (sizes[1] if radius else 0), max(1, total - 1), total}):
        outcomes = []
        for act in (action, _generic(action)):
            try:
                outcomes.append(build_ball(act, base, radius, max_vertices=cap).vertex_count)
            except BoundExceededError as e:
                outcomes.append((e.bound, e.radius, e.vertices))
        assert outcomes[0] == outcomes[1]
        if cap >= total:
            assert outcomes[0] == total
        else:
            # the first sphere that overflows the cap, and what came before
            first = next(d for d in range(len(sizes)) if sum(sizes[: d + 1]) > cap)
            assert outcomes[0] == (cap, first - 1, sum(sizes[:first]))


def _cat_path():
    """The cat map's ball under its one symmetry s:(0,0), x -> t x, and its
    inverse, at (1, 0): a path whose offsets grow like Fibonacci numbers,
    so it passes the int64 check through radius 20 and fails it at 21."""
    cat = galex_lattice(CAT)
    return SchreierAction("lattice:s:(0,0)", parse_generator_expressions(cat, ["s:(0,0)"]), cat.key)


def _past_the_guard():
    rot90 = galex_lattice(ROT90)
    return [
        # offsets that leave the int64 check part-way through the walk
        ("cat-path-leaves-the-field", _cat_path(), (1, 0), 30),
        ("huge-shear", inner_action(galex_lattice([[1, 2**40], [0, 1]])), (1, -1), 2),
        ("basepoint-near-2^62", displacement_action(rot90), (2**62 - 3, 5), 4),
        ("basepoint-past-int64", inner_action(rot90), (2**70, -(2**70)), 3),
    ]


@pytest.mark.parametrize("name,action,base,radius", _past_the_guard(), ids=[c[0] for c in _past_the_guard()])
def test_lattice_balls_past_the_int64_guard_stay_exact(name, action, base, radius):
    """When the offsets the lattice walk reaches fail its int64 check, the
    ball falls back to Python ints, and stays exact, also past int64."""
    assert _path(action, base, radius) == "generic"
    ball = build_ball(action, base, radius)
    order, edges, _ = _two_pass_ball(action, base, radius)
    assert list(depths(ball).items()) == order
    assert ball.edges == edges
    assert all(_is_point(x, "lattice") for x in ball.elements)


def test_a_walk_that_leaves_the_field_falls_back_at_that_radius():
    """The cat path keeps the lattice walk through radius 20 and falls back
    from 21 on, where its last sphere fails the check; the ball is exact
    at every radius either way."""
    action = _cat_path()
    for radius in range(31):
        ball = build_ball(action, (1, 0), radius)
        assert _walk_of(ball) == ("lattice" if radius <= 20 else "generic")
        order, edges, elements = _two_pass_ball(action, (1, 0), radius)
        assert list(depths(ball).items()) == order
        assert ball.edges == edges and ball.elements == elements


def _admitted_before(moves, basepoint, radius):
    """Whether the a priori bound that guarded the lattice walk before it
    checked the offsets it reached admits int64 for this ball: offsets at
    depth d are at most B_d = D (1 + N + .. + N^(d-1)), with N = max(1,
    largest absolute row sum) and D the largest shift entry, and the walk
    ran in int64 iff N, (2 B_(R+1) + 1)^n and |b| + B_(R+1) were all below
    2^62."""
    n, room = len(basepoint), 1 << 62
    shifts = [[sum(a * b for a, b in zip(row, basepoint)) + c - b for row, c, b in zip(m.matrix, m.shift, basepoint)] for m in moves]
    norm = max(1, *(sum(map(abs, row)) for m in moves for row in m.matrix))
    reach = max(abs(v) for k in shifts for v in k)
    if norm == 1:
        bound = reach * (radius + 1)
    else:
        bound = reach * (norm ** min(radius + 1, 63) - 1) // (norm - 1)
    return norm < room and (2 * bound + 1) ** n < room and max(map(abs, basepoint)) + bound < room


def _beyond_the_bound():
    """Balls that the a priori bound sent to Python ints and that the walk's
    own check keeps on int64: the order-3 t from radius 29, and the cat
    map at an off-origin basepoint."""
    order3, cat = inner_action(galex_lattice([[0, -1], [1, -1]])), inner_action(galex_lattice(CAT))
    return [
        ("order-3-r30", order3, (0, 0), 30),
        ("order-3-r80", order3, (0, 0), 80),
        ("cat-off-origin-r9", cat, (31234, 45678), 9),
    ]


@pytest.mark.parametrize("name,action,base,radius", _beyond_the_bound(), ids=[c[0] for c in _beyond_the_bound()])
def test_balls_beyond_the_a_priori_bound_take_the_lattice_walk(name, action, base, radius):
    assert not _admitted_before(_moves(action)[0], base, radius)
    ball = build_ball(action, base, radius)
    assert _walk_of(ball) == "lattice"
    order, edges, elements = _two_pass_ball(action, base, radius)
    assert list(depths(ball).items()) == order
    assert ball.edges == edges and ball.elements == elements


def test_every_ball_the_a_priori_bound_admits_takes_the_lattice_walk():
    """On every lattice case of this module, at every radius up to its
    own, the walk's check admits whatever the frozen bound admits."""
    cases = [(action, base, radius) for _, path, action, base, radius in _cases() if path == "lattice"]
    cases += [(action, base, radius) for _, action, base, radius in _past_the_guard() + _beyond_the_bound()]
    cases += [(action, base, radius) for _, path, action, base, radius in _numbering_cases() if path == "lattice"]
    admitted = 0
    for action, base, top in cases:
        for radius in range(top + 1):
            if _admitted_before(_moves(action)[0], base, radius):
                admitted += 1
                assert _path(action, base, radius) == "lattice"
    assert admitted > 100


def test_a_list_basepoint_is_a_type_error_on_both_lattice_paths():
    """Lattice points are tuples: a list is unhashable, so no walk can
    number it."""
    action = inner_action(galex_lattice(ROT90))
    for base, radius, path in (((0, 0), 3, "lattice"), ((2**70, 0), 3, "generic")):
        assert _path(action, base, radius) == path
        with pytest.raises(TypeError, match="unhashable"):
            build_ball(action, list(base), radius)


def _walk_cases():
    r9, conj = dihedral_quandle(9), conjugation_quandle(symmetric_group(4))
    dis9 = r9.displacement_generators()
    return [
        # R_n's symmetries are involutions, the columns of its table
        ("r9-inner", inner_action(r9), 0, 3, "columns"),
        # displacement moves and their inverses, and conj(S4)'s inverses
        # of its order-3 symmetries, are fresh rows
        ("r9-displacement", displacement_action(r9), 0, 3, "stacked"),
        ("conj-s4-inner", inner_action(conj), 0, 3, "stacked"),
        ("rot90-inner", inner_action(galex_lattice(ROT90)), (0, 0), 3, "lattice"),
        ("1x1-lattice", inner_action(galex_lattice([[-1]])), (0,), 3, "generic"),
        *((name, action, base, radius, "generic") for name, action, base, radius in _past_the_guard()),
        ("dihedral-inf", inner_action(dihedral_quandle("inf")), 0, 3, "generic"),
        ("cayley", cayley_action("finite", dis9), _identity_like(dis9), 3, "generic"),
    ]


@pytest.mark.parametrize("name,action,base,radius,walk", _walk_cases(), ids=[c[0] for c in _walk_cases()])
def test_each_input_takes_one_walk(name, action, base, radius, walk):
    """Every branch of the one walk choice, read from the built ball: the
    finite walk with its moves read in place as columns of the quandle's
    table or stacked once, the lattice walk, and the generic walk."""
    ball = build_ball(action, base, radius)
    path = _walk_of(ball)
    if path == "permutation":
        # the finite table maker is ``walk_table`` over (moves, points, columns)
        moves, _, columns = ball._make_neighbors.args
        path = "stacked" if columns is None else "columns"
        assert np.shares_memory(moves, action.generators[0][1].images) == (path == "columns")
    assert path == walk


def _oracle_json_lines(ball, order, edges):
    """The JSON lines of the oracle's vertices and edges under the
    header of ``ball``, written out here rather than by the serializer."""
    header = {
        "type": "header",
        "backend": ball.backend_id,
        "basepoint": order[0][0],
        "radius": ball.radius,
        "generators": ball.generator_names,
    }
    records = [header, *({"type": "vertex", "key": k, "distance": d} for k, d in order)]
    records += [{"type": "edge", "u": u, "v": v, "label": name} for u, v, name in edges]
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


def _cayley_cases():
    conj, r12 = conjugation_quandle(symmetric_group(4)), dihedral_quandle(12)
    fq, dq, rot90 = free_quandle(["a", "b"]), dihedral_quandle("inf"), galex_lattice(ROT90)
    return [
        # Inn of conj(S4) is S4, which is not abelian
        ("inn-conj-s4", conj.inner_generators(), 3),
        ("dis-r12-past-diameter", r12.displacement_generators(), 8),
        ("free-words", fq.inner_generators(), 4),
        ("dihedral-inf-signed-affine", dq.inner_generators(), 6),
        ("lattice-translations", rot90.displacement_generators(), 5),
    ]


@pytest.mark.parametrize("name,gens,radius", _cayley_cases(), ids=[c[0] for c in _cayley_cases()])
def test_cayley_balls_match_the_string_keyed_oracle(name, gens, radius):
    """Cayley balls number group elements by value; the oracle tells
    them apart by their keys."""
    action, identity = cayley_action(name, gens), _identity_like(gens)
    assert _path(action, identity, radius) == "generic"
    ball = build_ball(action, identity, radius)
    order, edges, elements = _two_pass_ball(action, identity, radius)

    assert list(depths(ball).items()) == order
    assert ball.elements == elements
    assert ball.elements[0] is identity
    assert ball.edges == edges
    text = _oracle_json_lines(ball, order, edges)
    assert ball_to_json_lines(ball) == text
    assert ball_to_dot(ball) == ball_to_dot(ball_from_json_lines(text))

    sizes = np.bincount([d for _, d in order], minlength=radius + 1).tolist()
    total = len(order)
    for cap in sorted({1, 2, sizes[0] + sizes[1], max(1, total - 1), total}):
        if cap >= total:
            assert build_ball(action, identity, radius, max_vertices=cap).vertex_count == total
            continue
        first = next(d for d in range(len(sizes)) if sum(sizes[: d + 1]) > cap)
        with pytest.raises(BoundExceededError) as info:
            build_ball(action, identity, radius, max_vertices=cap)
        assert (info.value.bound, info.value.radius, info.value.vertices) == (cap, first - 1, sum(sizes[:first]))


def _numbering_cases():
    r9, dq, fq = dihedral_quandle(9), dihedral_quandle("inf"), free_quandle(["a", "b"])
    lattice, dis9 = galex_lattice(ROT90), r9.displacement_generators()
    return [
        # past the diameter, so the last spheres are empty
        ("finite-permutation", "permutation", inner_action(r9), 4, 12),
        ("finite-generic", "generic", _generic(inner_action(r9)), 4, 12),
        ("dihedral-inf", "generic", displacement_action(dq), 0, 6),
        ("lattice", "lattice", inner_action(lattice), (0, 0), 4),
        ("lattice-generic", "generic", _generic(inner_action(lattice)), (0, 0), 4),
        ("free", "generic", inner_action(fq), fq.generator("a"), 3),
        ("cayley", "generic", cayley_action("finite", dis9), _identity_like(dis9), 5),
    ]


@pytest.mark.parametrize("name,path,action,base,radius", _numbering_cases(), ids=[c[0] for c in _numbering_cases()])
def test_one_vertex_numbering(name, path, action, base, radius):
    """keys, depth, elements and index describe the same vertices in BFS
    order, on all four backends and on all three BFS paths."""
    assert _path(action, base, radius) == path
    ball = build_ball(action, base, radius)
    if name.startswith("lattice"):
        assert all(_is_point(x, "lattice") for x in ball.elements)
    assert len(ball.index) == ball.vertex_count
    assert all(ball.index[k] == i for i, k in enumerate(ball.keys))
    assert ball.depth[0] == 0 and (np.diff(ball.depth) >= 0).all()
    assert ball.sphere_sizes() == np.bincount(ball.depth, minlength=radius + 1).tolist()
    assert len(ball.elements) == ball.vertex_count
    assert [action.key(x) for x in ball.elements] == ball.keys
    again = ball_from_json_lines(ball_to_json_lines(ball))
    assert again.keys == ball.keys
    assert again.depth.tolist() == ball.depth.tolist()
    assert again.edges == ball.edges
    assert again.index == ball.index and again.elements == []


@pytest.mark.parametrize("name,path,action,base,radius", _numbering_cases(), ids=[c[0] for c in _numbering_cases()])
def test_build_ball_keys_each_vertex_once(name, path, action, base, radius):
    """On every path the walk tells points apart by value, and
    ``build_ball`` keys the basepoint alone; the other vertices are keyed
    once, on first use, and edges and pair queries key nothing more."""
    counted, keyed = key_counting(action)
    ball = build_ball(counted, base, radius)
    assert _walk_of(ball) == path
    # growth and ends read nothing but the basepoint's key
    assert sum(ball.sphere_sizes()) == ball.vertex_count
    ends_estimate(ball, radius - 1)
    assert keyed == [base] and ball.basepoint == action.key(base)
    assert ball.edges == _two_pass_ball(action, base, radius)[1]
    assert ball.distance(ball.basepoint, ball.keys[-1]) == ball.depth[-1]
    assert keyed == ball.elements


@pytest.mark.parametrize("name,path,action,base,radius", _numbering_cases(), ids=[c[0] for c in _numbering_cases()])
def test_find_looks_points_up_by_value(name, path, action, base, radius):
    """``find`` gives each element's vertex number from the walk's own
    points, keying nothing, and None for a point outside the ball or of
    another form; a ball read back from JSON finds nothing."""
    counted, keyed = key_counting(action)
    ball = build_ball(counted, base, radius)
    elements = ball.elements
    assert [ball.find(x) for x in elements] == list(range(ball.vertex_count))
    assert keyed == [base]
    strangers = {
        "permutation": [-1, 9, 2**70, "4", (4,), None],
        "lattice": [(0, 10**6), (2**70, 0), (0, 0, 0), [0, 0], (0.0, 0), "(0,0)"],
    }.get(path, ["nowhere", None])
    assert all(ball.find(x) is None for x in strangers)
    assert ball_from_json_lines(ball_to_json_lines(ball)).find(base) is None


def _ends_oracle(ball, inner_radius):
    """Components of the annulus subgraph that reach d = R, by networkx."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    depth = depths(ball)
    graph.add_nodes_from(v for v, d in depth.items() if d > inner_radius)
    graph.add_edges_from((u, v) for u, v, _name in ball.edges if u != v and u in graph and v in graph)
    return sum(1 for comp in nx.connected_components(graph) if any(depth[v] == ball.radius for v in comp))


def test_ends_estimate_matches_networkx():
    r15 = dihedral_quandle(15)
    fq = free_quandle(["a", "b"])
    cases = [
        # one annulus component dead-ends at d = 5, the other reaches 6
        (SchreierAction("r15:s3,s5", [("s3", r15.symmetry(3)), ("s5", r15.symmetry(5))], r15.key), 0, 6),
        # the ball closes at d = 5, so no component reaches R
        (SchreierAction("r15:s0,s3", [("s0", r15.symmetry(0)), ("s3", r15.symmetry(3))], r15.key), 1, 6),
        (inner_action(dihedral_quandle(9)), 0, 3),
        (displacement_action(dihedral_quandle("inf")), 0, 8),
        (inner_action(fq), fq.generator("a"), 4),
    ]
    for action, base, radius in cases:
        for ball in (build_ball(action, base, radius), build_ball(_generic(action), base, radius)):
            assert [ends_estimate(ball, k) for k in range(radius)] == [
                _ends_oracle(ball, k) for k in range(radius)
            ]
    assert ends_estimate(build_ball(cases[0][0], 0, 6), 2) == 1
    assert ends_estimate(build_ball(cases[1][0], 1, 6), 2) == 0


def _component_labels_before(table, inside):
    """``_component_labels`` as it was before it ran in numpy: a DFS over
    the table's rows as Python lists, from each unlabeled inside vertex
    in turn."""
    n = inside.size
    label = np.where(inside, n, -1).tolist()  # n: inside, not yet labeled
    neighbors = table.tolist()
    for start in range(n):
        if label[start] != n:
            continue
        label[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            for v in neighbors[u]:
                if v < n and label[v] == n:
                    label[v] = start
                    stack.append(v)
    return label


def _networkx_labels(table, inside):
    """Each inside vertex labeled by the first vertex of its networkx
    connected component, -1 outside."""
    nx = pytest.importorskip("networkx")
    n = inside.size
    graph = nx.Graph()
    graph.add_nodes_from(np.flatnonzero(inside).tolist())
    u, slot = np.nonzero(table < n)
    graph.add_edges_from((a, b) for a, b in zip(u.tolist(), table[u, slot].tolist()) if inside[a] and inside[b])
    label = [-1] * n
    for component in nx.connected_components(graph):
        first = min(component)
        for v in component:
            label[v] = first
    return label


def _table_of(n, edges):
    """The neighbor table of an undirected edge list on vertices 0..n-1,
    as a ball read back from JSON holds it: each edge in the rows of both
    ends (a self-loop once), rows padded with the sentinel n."""
    index = {str(i): i for i in range(n)}
    return _table_from_edges(index, [(str(u), str(v), name) for u, v, name in edges])[0]


@st.composite
def _graphs(draw):
    """A few vertices, an edge list with self-loops and parallel moves
    (the same pair under two names), and a set of inside vertices that
    may be empty."""
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.sampled_from("abc")), max_size=3 * n))
    inside = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return n, edges, inside


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_component_labels_match_the_dfs_before_and_networkx(graph):
    n, edges, inside = graph
    table = _table_of(n, edges)
    labels = _component_labels(table, inside)
    assert labels.dtype == np.int64
    assert labels.tolist() == _component_labels_before(table, inside) == _networkx_labels(table, inside)
    # a table with no moves at all: every inside vertex is its own component
    empty = np.empty((n, 0), dtype=np.int64)
    assert _component_labels(empty, inside).tolist() == np.where(inside, np.arange(n), -1).tolist()


@settings(max_examples=8, deadline=None)
@given(st.integers(15_001, 20_000), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_component_labels_on_long_paths(n, seed, cuts):
    """Paths longer than 15,000 vertices, numbered at random and cut
    into a few pieces, with every vertex inside or a random half."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    cut = set(rng.choice(n - 1, size=cuts, replace=False).tolist())
    edges = [(int(order[i]), int(order[i + 1]), "s") for i in range(n - 1) if i not in cut]
    table = _table_of(n, edges)
    for inside in (np.ones(n, dtype=bool), rng.random(n) < 0.9):
        labels = _component_labels(table, inside).tolist()
        assert labels == _component_labels_before(table, inside) == _networkx_labels(table, inside)


@settings(max_examples=200, deadline=None)
@given(_graphs())
def test_loopless_forest_check_matches_networkx(graph):
    """A ball read back from JSON with a drawn edge list is a forest, once
    self-loops are dropped, exactly when networkx calls the multigraph of
    its distinct (u, v, name) edges one."""
    nx = pytest.importorskip("networkx")
    n, edges, _ = graph
    records = [{"type": "header", "backend": "drawn", "basepoint": "0", "radius": 1, "generators": list("abc")}]
    records += [{"type": "vertex", "key": str(i), "distance": int(i > 0)} for i in range(n)]
    records += [{"type": "edge", "u": str(u), "v": str(v), "label": name} for u, v, name in edges]
    ball = ball_from_json_lines("\n".join(map(json.dumps, records)))
    multigraph = nx.MultiGraph()
    multigraph.add_nodes_from(range(n))
    multigraph.add_edges_from((min(u, v), max(u, v)) for u, v, _ in {(min(u, v), max(u, v), c) for u, v, c in edges} if u != v)
    assert loopless_forest_check(ball) == nx.is_forest(multigraph)


def test_ball_without_generators():
    q = dihedral_quandle(5)
    ball = build_ball(SchreierAction("none", [], q.key), 2, 3)
    assert list(depths(ball).items()) == [("2", 0)]
    assert ball.edges == []
    assert list(ball.certified_pairs()) == []
    assert ball.distance("2", "2") == 0


def test_cap_progress_on_an_infinite_backend():
    fq = free_quandle(["a", "b", "c"])
    sizes = build_ball(inner_action(fq), fq.generator("a"), 4).sphere_sizes()
    with pytest.raises(BoundExceededError) as info:
        build_ball(inner_action(fq), fq.generator("a"), 6, max_vertices=sum(sizes[:4]))
    assert (info.value.radius, info.value.vertices) == (3, sum(sizes[:4]))
    assert f"after radius 3 ({sum(sizes[:4])} vertices)" in str(info.value)


@pytest.mark.parametrize("path", ["permutation", "lattice", "generic"])
def test_growth_and_basepoint_distances_build_no_edges(path):
    if path == "permutation":
        q = dihedral_quandle(101)
        action, base = SchreierAction("finite:s0,s1", [("s0", q.symmetry(0)), ("s1", q.symmetry(1))], q.key), 0
    elif path == "lattice":
        action, base = inner_action(galex_lattice(CAT)), (0, 0)
    else:
        fq = free_quandle(["a", "b"])
        action, base = inner_action(fq), fq.generator("a")
    assert _path(action, base, 3) == path
    ball = build_ball(action, base, 3)
    assert ball.sphere_sizes()[0] == 1
    far = ball.keys[-1]
    assert ball.distance(ball.basepoint, far) == ball.depth[-1] == 3
    # neither the edge list nor the neighbor table was needed: the
    # ball has not made its table
    assert "edges" not in vars(ball)
    assert "neighbors" not in vars(ball)
    assert ball.edges == _two_pass_ball(action, base, 3)[1]
    assert "neighbors" in vars(ball)


def test_the_lattice_walk_peaks_near_what_its_ball_holds():
    """Each sphere's targets are formed a chunk at a time, and only the
    chunk's rows and unseen codes are kept, so the walk's peak stays near
    what the finished ball holds: its points, rows and last two spheres."""
    tracemalloc.start()
    try:
        ball = build_ball(inner_action(galex_lattice(CAT)), (0, 0), 10)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _walk_of(ball) == "lattice"
    assert peak < 1.6 * held


def test_first_lattice_table_holds_the_table_about_once():
    ball = build_ball(inner_action(galex_lattice(CAT)), (0, 0), 10)
    table, peak = traced_peak(lambda: ball.neighbors)
    assert table.shape == (ball.vertex_count, 6)
    # one preallocated table and one chunk of the last sphere's lookups
    assert peak < 1.3 * table.nbytes


_LATTICE_CASES = [c for c in _cases() if c[1] == "lattice"]


@pytest.mark.parametrize("cells", [1, 7])
@pytest.mark.parametrize("name,path,action,base,radius", _LATTICE_CASES, ids=[c[0] for c in _LATTICE_CASES])
def test_lattice_tables_do_not_depend_on_the_chunk_size(name, path, action, base, radius, cells, monkeypatch):
    """Each sphere's targets, and the last sphere's rows, are formed in
    chunks of about ``perms.WALK_CELLS`` cells; one cell per chunk (one
    row) and seven give the points, sphere sizes, table and edges of the
    default chunks and of the oracle."""
    expected = build_ball(action, base, radius)
    monkeypatch.setattr(perms, "WALK_CELLS", cells)
    ball = build_ball(action, base, radius)
    assert np.array_equal(ball._walked.points, expected._walked.points)
    assert ball.sphere_sizes() == expected.sphere_sizes()
    assert np.array_equal(ball.neighbors, expected.neighbors)
    assert ball.edges == expected.edges == _two_pass_ball(action, base, radius)[1]


def test_rewired_edge_list_replaces_the_neighbor_table():
    # the path 0 - 2 - -2 - 4 - -4
    built = build_ball(inner_action(dihedral_quandle("inf")), 0, 4)
    assert built.distances_from("2").get("-4") == 3
    ball = rewired(built, built.edges + [("-4", "2", "shortcut")])
    assert ball.distances_from("2").get("-4") == 1
    assert '"-4" -- "2" [label="shortcut"];' in ball_to_dot(ball)


@pytest.mark.parametrize("basepoint", [-1, True, 5, 2.0, "2", (2,)])
def test_a_finite_ball_at_a_non_point_raises(basepoint):
    """Every finite point action takes ``perms.walk``, and a basepoint
    that is not a point of it is a ValueError, not another walk."""
    with pytest.raises(ValueError, match="not a point"):
        build_ball(inner_action(dihedral_quandle(5)), basepoint, 2)


def test_a_finite_action_of_two_degrees_raises():
    gens = [("a", dihedral_quandle(5).inner_generators()[1][1]), ("b", dihedral_quandle(4).inner_generators()[1][1])]
    with pytest.raises(ValueError, match="one degree"):
        build_ball(SchreierAction("mixed", gens, str), 0, 2)


def test_a_finite_ball_finds_no_bool():
    ball = build_ball(inner_action(dihedral_quandle(5)), 0, 2)
    assert ball.find(1) == ball.keys.index("1")
    assert ball.find(True) is None and ball.find(np.int64(1)) == ball.find(1)


def test_a_numpy_integer_lattice_basepoint_takes_the_lattice_walk():
    """The lattice walk takes a basepoint by the one integer rule, and
    hands back the basepoint object it was given as the first element."""
    action = inner_action(galex_lattice(ROT90))
    base = (np.int64(0), 0)
    ball, plain = build_ball(action, base, 3), build_ball(action, (0, 0), 3)
    assert _walk_of(ball) == "lattice"
    assert ball.elements[0] is base
    assert ball.keys == plain.keys
    assert ball.depth.tolist() == plain.depth.tolist()
    assert np.array_equal(ball.neighbors, plain.neighbors)


@pytest.mark.parametrize("path", ["permutation", "lattice"])
def test_int64_walks_find_no_bool_float_or_misfit_point(path):
    """On both int64 walks a point is an integer, or a tuple of one
    integer per column; anything else, or an integer out of int64's
    range, is found nowhere, and nothing raises."""
    if path == "permutation":
        ball = build_ball(inner_action(dihedral_quandle(5)), 0, 2)
        point, found, key = 3, np.int64(3), "3"
        misses = [True, -1.0, 3.0, 2**70, -(2**70), (3,)]
    else:
        ball = build_ball(inner_action(galex_lattice(ROT90)), (0, 0), 3)
        point, found, key = (-1, 1), (np.int64(-1), 1), "(-1,1)"
        misses = [3, (-1,), (-1, 1, 0)]
    assert _walk_of(ball) == path
    assert ball.find(found) == ball.find(point) == ball.keys.index(key)
    for point in misses + [(True, 1), (-1.0, 1), (2**70, 0), (0, -(2**70))]:
        assert ball.find(point) is None, point
