import random
from collections import deque

import pytest

from quandles.errors import BoundExceededError
from quandles.families import dihedral_quandle, free_quandle, galex_lattice
from quandles.schreier import (
    GeneratorSet,
    QIWitness,
    SchreierAction,
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
    qi_embedding_check,
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
    assert dict(ball.distances) == {"0": 0, "2": 1, "-2": 2}
    assert ball.edges == [("-2", "2", "s0"), ("0", "0", "s0"), ("0", "2", "s1")]
    assert ball.basepoint == "0"
    assert ball.generator_names == ["s0", "s1"]
    assert ball.vertex_count == 3
    assert ball.sphere_sizes() == [1, 1, 1]


def test_displacement_ball_golden():
    dq = dihedral_quandle("inf")
    ball = build_ball(displacement_action(dq), 0, 3)
    assert sorted(ball.vertices(), key=int) == ["-6", "-4", "-2", "0", "2", "4", "6"]
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
        assert dict(ball.distances) == oracle


def test_distances_from_interior_matches_oracle():
    q = dihedral_quandle(11)
    ball = build_ball(inner_action(q), 0, 11)
    for src in ball.vertices():
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
            assert big.distance(x, y, require_certified=False) == d
        assert count > 0
        # basepoint rows are always certified out to the boundary
        for v in small.vertices():
            assert small.distance(small.basepoint, v) == small.distances[v]


def test_distance_requires_certificate():
    dq = dihedral_quandle("inf")
    ball = build_ball(inner_action(dq), 0, 4)
    # ball is the path 0-2-(-2)-4-(-4); "-4" sits on the frontier
    assert ball.distance("4", "-4") is None
    assert ball.distance("4", "-4", require_certified=False) == 1
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


def test_loopless_forest_check():
    fq = free_quandle(["a", "b"])
    tree = build_ball(inner_action(fq), fq.generator("a"), 5)
    assert loopless_forest_check(tree)
    grid = build_ball(inner_action(dihedral_quandle(9)), 0, 9)
    assert not loopless_forest_check(grid)


def test_generator_set_rejects_duplicates():
    dq = dihedral_quandle("inf")
    s0 = dq.symmetry(0)
    with pytest.raises(ValueError):
        GeneratorSet([("s0", s0), ("s0", s0)])


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


def test_bilipschitz_constant_named_generators():
    # NamedGenerator input on both sides, as a GeneratorSet yields it
    dq = dihedral_quandle("inf")
    gens_a = dq.inner_generators()
    gens_b = gens_a + [("s2", dq.symmetry(2))]
    assert bilipschitz_constant(GeneratorSet(gens_a), GeneratorSet(gens_b), 5) == 3
    assert bilipschitz_constant(GeneratorSet(gens_a), gens_b, 5) == 3
    assert bilipschitz_constant(GeneratorSet(gens_a), [dq.symmetry(5)], 4) is None


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


def test_qi_embedding_check():
    ok, _ = qi_embedding_check([(0, 0), (3, 4), (10, 11)], QIWitness(2, 1))
    assert ok
    bad, witness = qi_embedding_check([(1, 10)], QIWitness(2, 1))
    assert not bad and witness == (1, 10)
    with pytest.raises(ValueError):
        QIWitness(0.5, 1)


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
    assert dict(again.distances) == dict(ball.distances)
    assert again.edges == ball.edges
    assert again.generator_names == ball.generator_names
    # emitted text is stable
    assert text == ball_to_json_lines(ball)
    assert text.splitlines()[0].startswith('{"backend"')


def test_dot_output():
    ball = build_ball(inner_action(dihedral_quandle("inf")), 0, 2)
    dot = ball_to_dot(ball)
    assert dot.startswith("graph schreier_ball {")
    assert dot.rstrip().endswith("}")
    assert '"0" -- "2" [label="s1"];' in dot
    assert '"-2" [label="-2 d=2"];' in dot
