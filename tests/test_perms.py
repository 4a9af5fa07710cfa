import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import elements, traced_peak

from quandles import perms
from quandles.errors import BoundExceededError
from quandles.families import (
    conjugation_automorphism,
    conjugation_quandle,
    dihedral_quandle,
    galex_finite,
)
from quandles.groups import (
    GroupTable,
    alternating_group,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from quandles.perms import (
    PermGroup,
    Permutation,
    cayley_table,
    first_fixed_point,
    group_closure,
    orbits,
    products,
    quotient_is_cyclic,
    walk,
    walk_table,
)
from quandles.quandle import FiniteQuandle


def _random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


def test_composition_order():
    # a*b means "apply a, then b"
    a = Permutation((1, 0, 2))
    b = Permutation((0, 2, 1))
    ab = a * b
    assert ab.act(0) == b.act(a.act(0)) == 2
    assert ab.images.tolist() == [2, 0, 1]
    ba = b * a
    assert ba.images.tolist() == [1, 2, 0]
    assert ab != ba


def test_composition_order_random():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randrange(1, 9)
        a, b = _random_perm(rng, n), _random_perm(rng, n)
        for x in range(n):
            assert (a * b).act(x) == b.act(a.act(x))


def test_inverse_and_identity():
    rng = random.Random(72)
    for _ in range(100):
        p = _random_perm(rng, rng.randrange(1, 10))
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()
    assert Permutation.identity(4).images.tolist() == [0, 1, 2, 3]


def test_order():
    assert Permutation((1, 0, 2)).order() == 2
    assert Permutation((1, 2, 0)).order() == 3
    assert Permutation((1, 0, 3, 2)).order() == 2
    assert Permutation((1, 2, 3, 0)).order() == 4
    assert Permutation.identity(5).order() == 1


def test_key_roundtrippable():
    p = Permutation((0, 3, 2, 1))
    assert p.key() == "[0,3,2,1]"


def test_from_mapping():
    p = Permutation.from_mapping({0: 2, 2: 0}, 3)
    assert p.images.tolist() == [2, 1, 0]
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_closure_s3():
    a = Permutation((1, 0, 2))
    c = Permutation((1, 2, 0))
    elems = group_closure([("a", a), ("c", c)])
    assert len(elems) == 6
    # closure is BFS order, one row of images per element: identity
    # first, then generators
    assert elems[:3].tolist() == [[0, 1, 2], [1, 0, 2], [1, 2, 0]]


def test_closure_bound():
    c = Permutation((1, 2, 3, 4, 5, 6, 0))
    with pytest.raises(BoundExceededError):
        group_closure([("c", c)], bound=3)


def test_generators_are_named_pairs_only():
    a, c = Permutation((1, 0, 2)), Permutation((1, 2, 0))
    for bad in ([a, c], [("a", a), c], [("a",)], [(0, a)]):
        with pytest.raises(TypeError):
            PermGroup(bad)
        with pytest.raises(TypeError):
            group_closure(bad)
    assert PermGroup([("a", a), ("c", c)]).generators == [("a", a), ("c", c)]


def test_perm_group_api():
    g = PermGroup([("t", Permutation((1, 0, 2, 3))), ("c", Permutation((1, 2, 3, 0)))])
    assert g.order == 24
    assert Permutation((3, 2, 1, 0)) in elements(g)
    assert Permutation((0, 1, 2)) not in elements(g)  # wrong degree


def test_orbits_partition():
    g = PermGroup([("p", Permutation((1, 0, 3, 2, 4)))])
    assert orbits(g.generators, range(5)) == [[0, 1], [2, 3], [4]]
    with pytest.raises(TypeError):
        orbits([Permutation((1, 0, 3, 2, 4))], range(5))
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randrange(2, 8)
        g = PermGroup([(f"g{i}", _random_perm(rng, n)) for i in range(2)])
        parts = orbits(g.generators, range(n))
        seen = sorted(x for part in parts for x in part)
        assert seen == list(range(n))


def _orbits_loop(gens, domain):
    """The original orbit walk, inverting each generator at every point."""
    remaining, parts = set(domain), []
    for start in domain:
        if start not in remaining:
            continue
        orbit, queue = {start}, [start]
        while queue:
            x = queue.pop()
            for g in gens:
                for y in (g.act(x), g.inverse().act(x)):
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
        parts.append(sorted(orbit))
        remaining -= orbit
    return parts


def test_orbits_of_quandles_unchanged():
    # two components, {0, 1, 2} and {3}, with non-involutive symmetries
    disconnected = FiniteQuandle([[0, 2, 1, 0], [2, 1, 0, 1], [1, 0, 2, 2], [3, 3, 3, 3]])
    trivial = FiniteQuandle([[x] * 5 for x in range(5)])
    cases = [  # (quandle, orbits, or else the sorted orbit sizes)
        (dihedral_quandle(12), [list(range(0, 12, 2)), list(range(1, 12, 2))]),
        (dihedral_quandle(9), [list(range(9))]),
        (conjugation_quandle(symmetric_group(4)), [1, 3, 6, 6, 8]),  # conjugacy classes
        (conjugation_quandle(alternating_group(5)), [1, 12, 12, 15, 20]),
        (disconnected, [[0, 1, 2], [3]]),
        (trivial, [[x] for x in range(5)]),
        (dihedral_quandle(1001), [list(range(1001))]),
    ]
    for q, expected in cases:
        gens = q.inner_generators()
        parts = orbits(gens, range(q.size))
        assert q.components() == parts
        assert parts == expected or sorted(map(len, parts)) == expected
        if q.size <= 60:  # the loop inverts every generator at every point
            assert parts == _orbits_loop([g for _, g in gens], list(range(q.size)))
            disp = q.displacement_generators()
            assert orbits(disp, range(q.size)) == _orbits_loop([g for _, g in disp], list(range(q.size)))
    # no generators, the identity, repeated generators; domains that are a
    # proper subset of the points or out of order
    r12, two = dihedral_quandle(12).inner_generators(), disconnected.inner_generators()
    identity = ("e", Permutation.identity(12))
    for gens in ([], [identity], [identity, r12[1], r12[1]], r12[:1] * 3, [r12[2], identity, r12[4]]):
        for domain in (range(12), [5, 3, 11], range(11, -1, -1), [8]):
            assert orbits(gens, domain) == _orbits_loop([g for _, g in gens], list(domain))
    for gens in (two, two[3:] * 2, []):
        for domain in ([3, 1], [2], range(3, -1, -1)):
            assert orbits(gens, domain) == _orbits_loop([g for _, g in gens], list(domain))
    # components walk the table itself: the same orbits, in the same order,
    # as the inner generators give on every finite family
    s4, d4 = symmetric_group(4), dihedral_group(4)
    involutions = [x for x in range(s4.size) if s4.element_order(x) == 2]
    for q in (
        galex_finite(s4, conjugation_automorphism(s4, 1)),
        galex_finite(d4, conjugation_automorphism(d4, 1)),
        conjugation_quandle(s4, involutions),
        conjugation_quandle(quaternion_group()),
        dihedral_quandle(2),
        dihedral_quandle(40),
    ):
        gens = q.inner_generators()
        assert q.components() == orbits(gens, range(q.size)) == _orbits_loop([g for _, g in gens], list(range(q.size)))
        assert orbits(q.table, [5 % q.size, 0]) == orbits(gens, [5 % q.size, 0])


def test_first_fixed_point():
    rot = PermGroup([("r", Permutation((1, 2, 3, 0)))])
    assert first_fixed_point(rot.images, range(4)) is None
    refl = PermGroup([("s", Permutation((0, 2, 1)))])
    # fixes 0, so not free on the full set
    assert first_fixed_point(refl.images, range(3)) == (1, 0)
    assert refl.images[1].tolist() == [0, 2, 1]
    assert first_fixed_point(refl.images, [1, 2]) is None
    # row-major, point-minor: the first non-identity row with a fixed
    # point wins, at its first fixed point in the given order
    a, b = [1, 0, 2, 3], [0, 1, 3, 2]
    assert first_fixed_point(np.array([[0, 1, 2, 3], a, b]), range(4)) == (1, 2)
    assert first_fixed_point(np.array([b, a]), [3, 2, 1, 0]) == (0, 1)
    assert first_fixed_point(np.empty((0, 4), dtype=np.int64), range(4)) is None


def test_normal_closure_a3():
    a = Permutation((1, 0, 2))
    c = Permutation((1, 2, 0))
    s3 = PermGroup([("a", a), ("c", c)])
    table = GroupTable(cayley_table(s3.images))
    index_a, index_c = s3.positions(np.array([a.images, c.images]))
    n = table.normal_closure_of(index_c)
    assert len(n) == 3
    n2 = table.normal_closure_of(index_a)  # transpositions generate everything
    assert len(n2) == 6


def test_commutator_subgroup():
    s3 = PermGroup([("a", Permutation((1, 0, 2))), ("c", Permutation((1, 2, 0)))])
    s3 = GroupTable(cayley_table(s3.images))
    assert len(s3.commutator_of_subgroup(range(s3.size))) == 3
    v4 = PermGroup([("x", Permutation((1, 0, 3, 2))), ("y", Permutation((2, 3, 0, 1)))])
    v4 = GroupTable(cayley_table(v4.images))
    assert len(v4.commutator_of_subgroup(range(v4.size))) == 1


def test_quotient_is_cyclic():
    s3 = PermGroup([("a", Permutation((1, 0, 2))), ("c", Permutation((1, 2, 0)))])
    a3 = PermGroup([("c", Permutation((1, 2, 0)))])
    ok, order = quotient_is_cyclic(s3, a3)
    assert ok and order == 2
    trivial = PermGroup([("e", Permutation.identity(3))])
    ok, order = quotient_is_cyclic(s3, trivial)
    assert not ok and order == 6


def _abelianization(group: PermGroup) -> list[int]:
    table = GroupTable(cayley_table(group.images))
    return table.abelian_invariants_of_subgroup(range(table.size))


def test_abelianization_invariants():
    s3 = PermGroup([("a", Permutation((1, 0, 2))), ("c", Permutation((1, 2, 0)))])
    assert _abelianization(s3) == [2]
    v4 = PermGroup([("x", Permutation((1, 0, 3, 2))), ("y", Permutation((2, 3, 0, 1)))])
    assert _abelianization(v4) == [2, 2]
    z6 = PermGroup([("c", Permutation((1, 2, 3, 4, 5, 0)))])
    assert _abelianization(z6) == [6]
    d4 = PermGroup([("r", Permutation((1, 2, 3, 0))), ("f", Permutation((0, 3, 2, 1)))])
    assert _abelianization(d4) == [2, 2]


def test_perm_group_table_indices():
    d4 = PermGroup([("r", Permutation((1, 2, 3, 0))), ("f", Permutation((0, 3, 2, 1)))])
    table = GroupTable(cayley_table(d4.images))
    assert table.identity == 0 and table.size == d4.order == 8
    els = elements(d4)
    assert d4.positions(d4.images) == list(range(8))
    for a, p in enumerate(els):
        for b, q in enumerate(els):
            assert els[table.mul[a][b]] == p * q


def _prime_powers(n: int) -> list[int]:
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    return out


ORACLE_GROUPS = {
    "s3": lambda: symmetric_group(3),
    "s4": lambda: symmetric_group(4),
    "a4": lambda: alternating_group(4),
    "a5": lambda: alternating_group(5),
    "d4": lambda: dihedral_group(4),
    "d6": lambda: dihedral_group(6),
    "q8": quaternion_group,
    "z6": lambda: cyclic_group(6),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_group_table_algebra_against_sympy(name):
    """Abelian invariants, quotients and element orders against sympy, on
    the regular representation of the whole group and of the normal
    closure N of its first non-identity element, and ``quotient_is_cyclic``
    of G mod N and of G mod 1 on those representations."""
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    SymPerm, SymGroup = sympy_comb.Permutation, sympy_comb.PermutationGroup

    group = ORACLE_GROUPS[name]()
    regular = [SymPerm(group.mul[:, x].tolist()) for x in range(group.size)]
    whole = SymGroup(regular)
    assert whole.order() == group.size
    for x in range(group.size):
        assert group.element_order(x) == regular[x].order()

    g = next(x for x in range(group.size) if x != group.identity)
    closure = group.normal_closure_of(g)
    sym_closure = whole.normal_closure(regular[g])
    assert {regular[x] for x in closure} == set(sym_closure.elements)
    for sub, sym_sub in ((list(range(group.size)), whole), (closure, sym_closure)):
        primary = sorted(p for n in group.abelian_invariants_of_subgroup(sub) for p in _prime_powers(n))
        assert primary == sorted(sym_sub.abelian_invariants())

    quotient = group.quotient(closure)
    assert quotient.size == whole.order() // sym_closure.order()
    # G/N is cyclic iff one element together with N generates G
    sym_cyclic = any(
        SymGroup(list(sym_closure.generators) + [r]).order() == whole.order() for r in regular
    )
    translations = [(f"r{x}", Permutation(group.mul[:, x])) for x in range(group.size)]
    as_perms = PermGroup(translations)
    normal, trivial = PermGroup([translations[x] for x in closure]), PermGroup([translations[group.identity]])
    assert quotient_is_cyclic(as_perms, normal) == (sym_cyclic, quotient.size)
    assert quotient_is_cyclic(as_perms, trivial) == (whole.is_cyclic, group.size)


# the stock groups of order <= 8, so their regular translations move <= 8 points
SMALL_GROUPS = (
    [lambda n=n: cyclic_group(n) for n in range(1, 9)]
    + [lambda n=n: dihedral_group(n) for n in range(1, 5)]
    + [lambda n=n: symmetric_group(n) for n in range(1, 4)]
    + [lambda n=n: alternating_group(n) for n in range(1, 4)]
    + [quaternion_group]
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)),
    st.sampled_from(SMALL_GROUPS),
    st.data(),
)
def test_orbits_and_subgroup_closure_against_sympy(images, make_group, data):
    """``orbits`` against sympy's orbits of the same permutations, and
    ``subgroup_closure`` against the group sympy generates from the
    regular translations of the subset."""
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    SymPerm, SymGroup = sympy_comb.Permutation, sympy_comb.PermutationGroup

    gens = [(f"g{i}", Permutation(tuple(p))) for i, p in enumerate(images)]
    expected = SymGroup([SymPerm(list(p)) for p in images]).orbits()
    assert sorted(orbits(gens, range(len(images[0])))) == sorted(sorted(o) for o in expected)

    group = make_group()
    subset = data.draw(st.lists(st.integers(0, group.size - 1), max_size=4))
    regular = [SymPerm(group.mul[:, x].tolist()) for x in range(group.size)]
    generated = SymGroup([regular[x] for x in subset] or [regular[group.identity]])
    assert {regular[x] for x in group.subgroup_closure(subset)} == set(generated.elements)


def _walk_before_chunks(moves, start, radius, bound):
    """``perms.walk`` as it was before it gathered spheres in chunks: one
    (f x k) array of target points and one of vertex numbers per sphere,
    with -1 for an unreached point."""
    vertex = np.full(moves.shape[0], -1, dtype=np.int64)
    vertex[start] = 0
    frontier = np.array([start])
    spheres, blocks = [frontier], []
    count = 1
    for d in range(1, radius + 1):
        if not frontier.size:
            break
        targets = moves[frontier]
        row = vertex[targets]
        new = row < 0
        unseen = targets[new]
        _, first = np.unique(unseen, return_index=True)
        fresh = unseen[np.sort(first)]
        if count + fresh.size > bound:
            raise BoundExceededError("schreier ball", bound, radius=d - 1, vertices=count)
        vertex[fresh] = np.arange(count, count + fresh.size)
        row[new] = vertex[unseen]
        count += fresh.size
        blocks.append(row)
        spheres.append(fresh)
        frontier = fresh
    vertex[vertex < 0] = count
    return np.concatenate(spheres), [s.size for s in spheres], blocks, lambda: vertex[moves[frontier]]


@st.composite
def _move_arrays(draw):
    """A (point x move) array of permutations that keep each of a few
    orbit blocks of the points, each move an involution or not."""
    n = draw(st.integers(1, 14))
    points = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    parts = [points[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    columns = []
    for _ in range(draw(st.integers(0, 4))):
        images = np.arange(n)
        involution = draw(st.booleans())
        for part in parts:
            if involution:  # swaps of disjoint pairs of the part
                image = list(part)
                for i in range(0, len(image) - 1, 2):
                    if draw(st.booleans()):
                        image[i], image[i + 1] = image[i + 1], image[i]
            else:
                image = draw(st.permutations(part))
            images[list(part)] = image
        columns.append(images)
    return np.array(columns, dtype=np.int64).reshape(len(columns), n).T.copy()


@settings(max_examples=300, deadline=None)
@given(_move_arrays(), st.data())
def test_walk_matches_the_walk_before_chunks(moves, data):
    """Same points, sphere sizes and cap outcome as the unchunked walk (a
    chunk never reports a partial sphere), and ``walk_table`` gathers the
    walk's blocks and last-sphere rows, which it no longer keeps, in one
    table.  Reading a drawn list of columns (repeats allowed) in place
    equals walking the copy of those columns."""
    n, k = moves.shape
    start = data.draw(st.integers(0, n - 1))
    radius = data.draw(st.integers(0, n))
    bound = data.draw(st.integers(1, n + 1))
    cells = data.draw(st.integers(1, 3 * max(1, k)))  # a few rows per chunk
    columns = data.draw(st.none() | st.lists(st.integers(0, k - 1), max_size=5) if k else st.none())
    copied = moves if columns is None else moves[:, columns].reshape(n, len(columns))
    columns = None if columns is None else np.array(columns, dtype=np.intp)
    try:
        expected = _walk_before_chunks(copied, start, radius, bound)
    except BoundExceededError as e:
        expected = e
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perms, "WALK_CELLS", cells)
        if isinstance(expected, BoundExceededError):
            with pytest.raises(BoundExceededError) as caught:
                walk(moves, start, radius, bound, columns)
            assert (caught.value.radius, caught.value.vertices) == (expected.radius, expected.vertices)
            return
        points, sizes = walk(moves, start, radius, bound, columns)
        assert points.tolist() == expected[0].tolist()
        assert sizes == expected[1]
        table = walk_table(moves, points, columns)
        assert table.dtype == np.int64 and table.shape == (len(points), copied.shape[1])
        assert table.tolist() == np.concatenate([*expected[2], expected[3]()]).tolist()


def _closure_before_arrays(generators, bound=200_000):
    """The breadth-first closure as a loop over image tuples, as it was
    before the array enumeration: each frontier element times each
    generator, new products appended in that order."""
    gens = [tuple(g.images.tolist()) for _, g in generators]
    identity = tuple(range(len(gens[0])))
    seen, order, frontier = {identity}, [identity], [identity]
    while frontier:
        new = []
        for el in frontier:
            for g in gens:
                prod = tuple(g[i] for i in el)
                if prod not in seen:
                    seen.add(prod)
                    order.append(prod)
                    new.append(prod)
                    if len(seen) > bound:
                        raise BoundExceededError("group closure", bound)
        frontier = new
    return order


def _table_before_arrays(elements):
    """The Cayley table by one tuple product per entry, numbered by
    position in ``elements``."""
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[tuple(b[i] for i in a)] for b in elements) for a in elements)


def _oracle_generating_sets():
    sets = {}
    s4 = symmetric_group(4)
    quandles = {f"r{n}": dihedral_quandle(n) for n in range(3, 22)}
    quandles["conj-s4"] = conjugation_quandle(s4)
    quandles["galex-d4"] = galex_finite(dihedral_group(4), conjugation_automorphism(dihedral_group(4), 1))
    quandles["galex-s4"] = galex_finite(s4, conjugation_automorphism(s4, 1))
    for name, q in quandles.items():
        sets[f"inn-{name}"] = q.inner_group().generators
        sets[f"dis-{name}"] = q.displacement_group().generators
    # S4 on 4 points: no single point's image tells the elements apart
    sets["s4-natural"] = [("t", Permutation((1, 0, 2, 3))), ("c", Permutation((1, 2, 3, 0)))]
    return sets


def _assert_matches_loop(generators, table_up_to=None):
    """Same elements in the same order, and (for orders up to
    ``table_up_to``, if given) the same Cayley table as the tuple loops."""
    group = PermGroup(generators)
    expected = _closure_before_arrays(generators)
    assert [tuple(p.images.tolist()) for p in elements(group)] == expected
    assert group.images.tolist() == [list(p) for p in expected]
    assert group.positions(group.images) == list(range(group.order))
    if table_up_to is None or group.order <= table_up_to:
        assert GroupTable(cayley_table(group.images)).mul.tolist() == [list(row) for row in _table_before_arrays(expected)]
    return group


def test_enumeration_and_table_match_the_tuple_loop():
    for name, generators in _oracle_generating_sets().items():
        group = _assert_matches_loop(generators)
        if name == "s4-natural":
            assert group.order == 24 and group.rows.base_length == 3
        assert group.rows.find(group.images).tolist() == list(range(group.order)), name
        gens = np.array([g.images for _, g in generators])
        assert np.array_equal(products(group.rows, group.images, gens), _moves_before_products(group.rows, generators))


def _moves_before_products(rows, generators):
    """The moves a -> a * g_j of ``group_closure`` as it found them before
    ``products``: one ``RowIndex.find`` per generator, on the base images
    g_j[a[:L]] of every row a."""
    base = rows.images[:, : rows.base_length]
    moves = np.empty((len(base), len(generators)), dtype=np.int32)
    for j, (_, g) in enumerate(generators):
        moves[:, j] = rows.find(g.images[base])
    return moves


def test_closure_bound_raises_exactly_when_the_loop_does():
    sets = _oracle_generating_sets()
    for name in ("s4-natural", "dis-r7", "inn-r8", "inn-conj-s4", "dis-galex-d4"):
        order = PermGroup(sets[name]).order
        for bound in range(max(1, order - 2), order + 3):
            try:
                _closure_before_arrays(sets[name], bound)
                loop_raises = False
            except BoundExceededError:
                loop_raises = True
            if loop_raises:
                with pytest.raises(BoundExceededError):
                    group_closure(sets[name], bound)
            else:
                assert len(group_closure(sets[name], bound)) == order


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
    )
)
def test_enumeration_matches_the_tuple_loop_on_random_pairs(pair):
    generators = [("a", Permutation(tuple(pair[0]))), ("b", Permutation(tuple(pair[1])))]
    # tables of the largest groups (S8, A8) would be |G|^2 tuple products
    _assert_matches_loop(generators, table_up_to=720)


def _closure_before_dimino(generators, bound=200_000):
    """``group_closure`` as it was before Dimino's algorithm: a
    breadth-first loop that multiplies each frontier by every generator
    in gather blocks of 2^16 cells and keeps new rows, by their bytes, in
    first-occurrence order."""
    gens = np.array([g.images for _, g in generators], dtype=np.int32)
    k, n = gens.shape
    width = gens.itemsize * n
    identity = np.arange(n, dtype=np.int32)
    seen = {identity.tobytes()}
    found = [identity[None, :]]
    frontier = found[0]
    block = max(1, (1 << 16) // max(1, k * n))
    while len(frontier):
        new = []
        for f0 in range(0, len(frontier), block):
            chunk = frontier[f0 : f0 + block]
            products = np.take(gens, chunk, axis=1)  # [g, f] = chunk[f] * gens[g]
            buf = products.tobytes()
            c = len(chunk)
            fresh = []
            for f in range(c):
                for at in range(f, k * c, c):  # row g * c + f of the block
                    row = buf[at * width : (at + 1) * width]
                    if row not in seen:
                        seen.add(row)
                        fresh.append(at)
                        if len(seen) > bound:
                            raise BoundExceededError("group closure", bound)
            if fresh:
                new.append(products.reshape(-1, n)[fresh])
        frontier = np.concatenate(new) if new else frontier[:0]
        found.append(frontier)
    return np.concatenate(found)


@st.composite
def _generator_lists(draw):
    """Named generators of degree 1..9 that preserve a partition of the
    points into blocks of at most 6, so the group may have several orbits
    and has order at most 6! * 3!; each generator is new, the identity,
    a repeat or a product of earlier ones."""
    n = draw(st.integers(1, 9))
    blocks, start = [], 0
    while start < n:
        size = draw(st.integers(1, min(6, n - start)))
        blocks.append(list(range(start, start + size)))
        start += size
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["new", "identity", "repeat", "product"])) if gens else "new"
        if kind == "new":
            p = Permutation([x for block in blocks for x in draw(st.permutations(block))])
        elif kind == "identity":
            p = Permutation.identity(n)
        elif kind == "repeat":
            p = draw(st.sampled_from(gens))
        else:
            p = draw(st.sampled_from(gens)) * draw(st.sampled_from(gens))
        gens.append(p)
    return [(f"g{i}", p) for i, p in enumerate(gens)]


@settings(max_examples=80, deadline=None)
@given(_generator_lists())
def test_closure_matches_the_block_loop_and_raises_at_the_same_bounds(generators):
    expected = _closure_before_dimino(generators)
    found = group_closure(generators)
    assert found.dtype == expected.dtype
    assert found.tolist() == expected.tolist()
    assert found[0].tolist() == list(range(found.shape[1]))
    for bound in range(len(expected) - 2, len(expected) + 3):
        try:
            _closure_before_dimino(generators, bound)
        except BoundExceededError:
            with pytest.raises(BoundExceededError) as caught:
                group_closure(generators, bound)
            assert (caught.value.what, caught.value.bound) == ("group closure", bound)
        else:
            assert group_closure(generators, bound).tolist() == expected.tolist()


@settings(max_examples=80, deadline=None)
@given(_generator_lists(), st.sampled_from([1, 5, 64, 1 << 16]))
def test_products_give_the_moves_of_the_per_generator_loop(generators, cells):
    """Cell for cell, on every row of the closure, in blocks of rows down
    to one row each."""
    group = PermGroup(generators)
    gens = np.array([g.images for _, g in generators])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perms, "CAYLEY_CELLS", cells)
        found = products(group.rows, group.images, gens)
    assert found.shape == (group.order, len(generators))
    assert np.array_equal(found, _moves_before_products(group.rows, generators))


def test_closure_elements_and_order_against_sympy_dimino():
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    SymPerm, SymGroup = sympy_comb.Permutation, sympy_comb.PermutationGroup
    s4, d4 = symmetric_group(4), dihedral_group(4)
    quandles = {f"r{n}": dihedral_quandle(n) for n in range(5, 41)}
    quandles["conj-s4"] = conjugation_quandle(s4)
    quandles["conj-q8"] = conjugation_quandle(quaternion_group())
    quandles["galex-s4"] = galex_finite(s4, conjugation_automorphism(s4, 1))
    quandles["galex-d4"] = galex_finite(d4, conjugation_automorphism(d4, 1))
    for name, q in quandles.items():
        for group in (q.inner_group(), q.displacement_group()):
            sym = SymGroup([SymPerm(g.images.tolist()) for _, g in group.generators])
            assert group.order == sym.order(), name
            assert set(map(tuple, group.images.tolist())) == {tuple(p.array_form) for p in sym.generate_dimino()}, name


@dataclass(frozen=True)
class _TuplePermutation:
    """``Permutation`` as it was when it stored a tuple of images."""

    images: tuple

    def act(self, point):
        return self.images[point]

    def __mul__(self, other):
        return _TuplePermutation(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return _TuplePermutation(tuple(inv))

    def is_identity(self):
        return all(i == img for i, img in enumerate(self.images))

    def order(self):
        k, p = 1, self
        while not p.is_identity():
            p, k = p * self, k + 1
        return k

    def key(self):
        return "[" + ",".join(str(i) for i in self.images) + "]"

    def __repr__(self):
        return f"Permutation({self.images})"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)), st.integers(0, n - 1))
    )
)
def test_row_permutation_matches_the_tuple_permutation(case):
    a_images, b_images, x = case
    a, b = Permutation(tuple(a_images)), Permutation(tuple(b_images))
    ta, tb = _TuplePermutation(tuple(a_images)), _TuplePermutation(tuple(b_images))
    for p, t in ((a, ta), (b, tb), (a * b, ta * tb), (b * a, tb * ta), (a.inverse(), ta.inverse())):
        assert tuple(p.images.tolist()) == t.images
        assert p.act(x) == t.act(x) and type(p.act(x)) is int
        assert p.order() == t.order()
        assert p.is_identity() == t.is_identity()
        assert p.key() == t.key()
        assert repr(p) == repr(t)
        assert not p.images.flags.writeable and p.images.dtype == np.int64
    assert (a == b) == (ta == tb)
    assert (a * b == b * a) == (ta * tb == tb * ta)
    if a == b:
        assert hash(a) == hash(b)


def test_permutations_of_int32_and_int64_rows_are_equal():
    group = PermGroup([("t", Permutation((1, 0, 2, 3))), ("c", Permutation((1, 2, 3, 0)))])
    assert group.images.dtype == np.int32
    for row in group.images:
        narrow, wide = Permutation.unchecked(row), Permutation.unchecked(row.astype(np.int64))
        assert narrow == wide and hash(narrow) == hash(wide)
        assert narrow == Permutation(row) and hash(narrow) == hash(Permutation(row))
        assert {narrow: 1}[wide] == 1
    wide = np.arange(4, dtype=np.int64)
    assert np.shares_memory(Permutation.unchecked(wide).images, wide)
    assert wide.flags.writeable  # the caller's array keeps its flags


def test_a_bad_permutation_names_its_images_as_a_tuple():
    for images in ((0, 0, 1), [0, 0, 1], np.array([0, 0, 1])):
        with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.2: \(0, 0, 1\)$"):
            Permutation(images)


@pytest.mark.parametrize(
    "images", [[1.0, 0.0], [True, False], [1, False, 2], np.array([True, False]), np.array([1.0, 0.0])], ids=repr
)
def test_a_permutation_of_floats_or_bools_is_a_value_error(images):
    """These were all read as the permutations (1, 0) and (1, 0, 2)."""
    with pytest.raises(ValueError, match="^permutation images must be a 1-d array of integers$"):
        Permutation(images)


def test_rows_of_the_wrong_width_are_a_value_error():
    inn = dihedral_quandle(5).inner_group()
    with pytest.raises(ValueError, match="width 3 .* width 5"):
        inn.positions(np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="width 7 .* width 5"):
        inn.rows.locate(np.zeros((2, 7), dtype=np.int64))
    with pytest.raises(KeyError):
        inn.positions(np.array([[1, 0, 2, 3, 4]]))  # the right width, but not in D5


def test_cayley_table_holds_the_table_and_one_block(monkeypatch):
    """The Cayley table of Inn(R_301) peaks below twice its own size (it
    held 5.13 tables when it gathered every row's base images at once),
    and blocks of rows, down to one row each, give the table of that one
    gather."""
    inn = dihedral_quandle(301).inner_group()
    images, rows = inn.images, inn.rows
    table, peak = traced_peak(lambda: cayley_table(images))
    assert peak < 2 * table.nbytes
    whole = rows.find(images[:, images[:, : rows.base_length]].transpose(1, 0, 2))
    assert np.array_equal(table, whole)
    monkeypatch.setattr(perms, "CAYLEY_CELLS", 1)
    for group in (dihedral_quandle(7).inner_group(), conjugation_quandle(symmetric_group(4)).inner_group()):
        images, rows = group.images, group.rows
        whole = rows.find(images[:, images[:, : rows.base_length]].transpose(1, 0, 2))
        assert np.array_equal(cayley_table(images), whole)
