import random

import numpy as np
import pytest

from quandles.errors import ConstructionError
from quandles.families import (
    DihedralInfinite,
    FreeQuandle,
    GAlexLattice,
    conjugation_automorphism,
    conjugation_quandle,
    dihedral_quandle,
    free_quandle,
    galex_finite,
    galex_lattice,
)
from quandles.freewords import FreeQuandleElement, fq_from_reduced, word_mul
from quandles.groups import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    find_element,
    quaternion_group,
    symmetric_group,
)
from quandles.lattice import UnimodularMatrix

ROT90 = [[0, -1], [1, 0]]


# ---------------------------------------------------------------- dihedral


def test_dihedral_finite_table():
    q = dihedral_quandle(5)
    for x in range(5):
        for y in range(5):
            assert q.op(x, y) == (2 * y - x) % 5


def test_dihedral_table_and_symmetries_are_table_column_views():
    for n in (2, 3, 8, 101):
        q = dihedral_quandle(n)
        assert q.table.tolist() == [[(2 * y - x) % n for y in range(n)] for x in range(n)]
        assert q.table.dtype == np.int64
        s = q.symmetry(n - 1)
        assert s.images.tolist() == [(2 * (n - 1) - x) % n for x in range(n)]
        assert s.images.dtype == np.int64
        assert not s.images.flags.writeable
        assert np.shares_memory(s.images, q.table)
        assert type(s.act(0)) is int


def test_dihedral_infinite_ops():
    q = dihedral_quandle("inf")
    assert isinstance(q, DihedralInfinite)
    assert q.op(3, 5) == 7
    assert q.op_inv(7, 5) == 3
    assert q.check_axioms_window(6).ok
    assert q.component_key(4) == 0 and q.component_key(-3) == 1
    assert q.key(-7) == "-7" and q.parse_key("-7") == -7


def test_dihedral_infinite_generators():
    q = dihedral_quandle("inf")
    names = [n for n, _ in q.inner_generators()]
    assert names == ["s0", "s1"]
    [(dname, d)] = q.displacement_generators()
    assert dname == "s1*s0^-1"
    # s_1 s_0^-1 shifts by -2 under left-to-right application
    assert d.act(0) == -2 and d.act(5) == 3


def test_dihedral_rejects():
    with pytest.raises(ValueError):
        dihedral_quandle(0)
    with pytest.raises(ValueError):
        dihedral_quandle("nope")


# ------------------------------------------------------------ conjugation


def test_conjugation_quandle_full_group():
    q = conjugation_quandle(symmetric_group(3))
    assert q.size == 6
    g = q.group
    for x in range(6):
        for y in range(6):
            assert q.op(x, y) == g.conj(x, y)


def test_conjugation_quandle_transpositions():
    q = conjugation_quandle(symmetric_group(3), [1, 2, 5])
    assert q.size == 3
    assert q.components() == [[0, 1, 2]]
    assert q.group_element(0) == 1
    # conjugating a transposition by itself fixes it
    assert all(q.op(i, i) == i for i in range(3))


def test_conjugation_quandle_not_closed():
    with pytest.raises(ConstructionError) as err:
        conjugation_quandle(symmetric_group(3), [1, 3])
    assert err.value.witness is not None


def test_conjugation_quandle_components_match_classes():
    q = conjugation_quandle(quaternion_group())
    sizes = sorted(len(c) for c in q.components())
    # conjugacy classes of Q8: {1}, {-1}, {i,-i}, {j,-j}, {k,-k}
    assert sizes == [1, 1, 2, 2, 2]


# ----------------------------------------------------------- galex finite


def test_galex_finite_negation_is_dihedral():
    z5 = cyclic_group(5)
    neg = [(-x) % 5 for x in range(5)]
    q = galex_finite(z5, neg)
    r5 = dihedral_quandle(5)
    assert q.table.tolist() == r5.table.tolist()


def test_galex_finite_rejects_non_automorphism():
    z4 = cyclic_group(4)
    with pytest.raises(ConstructionError):
        galex_finite(z4, [0, 1, 3, 2])  # not multiplicative
    with pytest.raises(ConstructionError):
        galex_finite(z4, [0, 0, 0, 0])


def _group_automorphism_loop(group, images):
    """The original check: the bijectivity witness, then the first (a, b)
    in row-major order."""
    if sorted(images) != list(range(group.size)):
        return (-1, next(v for v in range(group.size) if list(images).count(v) != 1))
    for a in range(group.size):
        for b in range(group.size):
            if images[group.mul[a][b]] != group.mul[images[a]][images[b]]:
                return (a, b)
    return None


def test_group_is_automorphism_matches_double_loop():
    rng = random.Random(11)
    failures = 0
    for group in (cyclic_group(6), dihedral_group(4), symmetric_group(3), quaternion_group(), alternating_group(4)):
        n = group.size
        maps = [[group.conj(x, g) for x in range(n)] for g in range(n)]  # inner: all pass
        for _ in range(25):
            images = list(range(n))
            rng.shuffle(images)
            maps.append(images)
            maps.append([rng.randrange(n) for _ in range(n)])  # rarely a bijection
        for images in maps:
            expected = _group_automorphism_loop(group, images)
            assert group.is_automorphism(images) == expected
            failures += expected is not None
    assert failures > 0


def test_galex_identity_component():
    d4 = dihedral_group(4)
    q = galex_finite(d4, conjugation_automorphism(d4, 1))
    assert q.identity_component() == [0, 2]
    a4 = alternating_group(4)
    g = find_element(a4, 2)
    qa = galex_finite(a4, conjugation_automorphism(a4, g))
    comp = qa.identity_component()
    assert len(comp) == 4
    assert all(qa.group.mul[x][x] == 0 for x in comp)  # V4: every element squares to 1


def test_sigma_is_conjugation_by():
    s3 = symmetric_group(3)
    q = galex_finite(s3, conjugation_automorphism(s3, 2))
    g = q.sigma_is_conjugation_by()
    assert g is not None
    assert conjugation_automorphism(s3, g) == list(q.sigma)
    z3 = cyclic_group(3)
    neg = galex_finite(z3, [0, 2, 1])
    assert neg.sigma_is_conjugation_by() is None


# ---------------------------------------------------------- galex lattice


def test_galex_lattice_op():
    q = galex_lattice(ROT90)
    # x <| y = t(x-y) + y
    assert q.op((1, 0), (0, 0)) == (0, 1)
    assert q.op((1, 1), (1, 0)) == (0, 0)
    assert q.op_inv(q.op((3, -2), (1, 4)), (1, 4)) == (3, -2)
    assert q.check_axioms_window(3).ok


def test_galex_lattice_rejects():
    with pytest.raises(ValueError):
        galex_lattice([[2, 0], [0, 1]])


def test_galex_lattice_symmetry_and_generators():
    q = galex_lattice(ROT90)
    s = q.symmetry((1, 0))
    assert s.act((1, 0)) == (1, 0)
    assert s.act((0, 0)) == (1, -1)  # (1-t) e1
    names = [n for n, _ in q.inner_generators()]
    assert names == ["s0", "se1", "se2"]
    dis = q.displacement_generators()
    assert [n for n, _ in dis] == ["se1*s0^-1", "se2*s0^-1"]
    # s_{e1} s_0^-1 is a pure translation spanning (1 - t^-1) e1;
    # applying s_{e1} first then s_0^-1 lands on the negative side
    d = dict(dis)["se1*s0^-1"]
    assert d.is_translation()
    assert d.act((0, 0)) == (-1, -1)


def test_galex_lattice_identity_t_has_trivial_displacement():
    q = galex_lattice([[1, 0], [0, 1]])
    assert q.displacement_generators() == []
    assert q.displacement_lattice().rank == 0


def test_galex_lattice_components():
    q = galex_lattice(ROT90)
    keys = {q.component_key(x) for x in q.elements_window(3)}
    assert len(keys) == 2
    assert q.component_key((0, 0)) == q.component_key((1, 1))
    assert q.component_key((0, 0)) != q.component_key((0, 1))


def test_galex_lattice_keys():
    q = galex_lattice(ROT90)
    assert q.key((3, -4)) == "(3,-4)"
    assert q.parse_key("(3,-4)") == (3, -4)
    with pytest.raises(ValueError):
        q.parse_key("(3,)")
    with pytest.raises(ValueError):
        q.parse_key("3,-4")
    one = galex_lattice([[-1]])
    assert one.key((2,)) == "(2)"
    assert one.parse_key("(2)") == (2,)


def test_galex_lattice_window():
    q = galex_lattice(ROT90)
    w = q.elements_window(1)
    assert len(w) == 9
    assert w == sorted(w)


# ------------------------------------------------------------------ free


def test_free_quandle_basics():
    fq = free_quandle(["a", "b"])
    a, b = fq.generator("a"), fq.generator("b")
    assert fq.key(fq.op(a, b)) == "a^b"
    assert fq.op(fq.op(a, b), b) != fq.op(a, b)
    assert fq.op_inv(fq.op(a, b), b) == a
    assert fq.component_key(fq.op(a, b)) == "a"
    assert fq.check_axioms_window(2).ok


def test_free_quandle_rejects():
    with pytest.raises(ValueError):
        free_quandle(["a"])
    with pytest.raises(ValueError):
        free_quandle(["a", "a"])
    with pytest.raises(ValueError):
        free_quandle(["a", "b*c"])
    fq = free_quandle(["a", "b"])
    with pytest.raises(ValueError):
        fq.generator("z")


def test_free_quandle_window_counts():
    fq = free_quandle(["a", "b"])
    # tails of length <= r over two bases: 2 * (1 + 2*sum 3^i)
    assert len(fq.elements_window(0)) == 2
    assert len(fq.elements_window(1)) == 2 + 2 * 2
    assert len(fq.elements_window(2)) == 2 * (1 + 2 + 6)


def _window_before(fq, radius):
    """The word BFS that built free windows before they became balls."""
    out = []
    for a in fq.alphabet:
        level = [FreeQuandleElement(a, ())]
        seen = set(level)
        out.extend(level)
        for _ in range(radius):
            nxt = []
            for el in level:
                for b in fq.alphabet:
                    for e in (1, -1):
                        cand = fq_from_reduced(a, word_mul(el.tail, ((b, e),)))
                        if cand not in seen:
                            seen.add(cand)
                            nxt.append(cand)
            out.extend(nxt)
            level = nxt
    return out


@pytest.mark.parametrize("alphabet", [["a", "b"], ["b", "a"], ["a", "b", "c"], ["c", "a", "b"]])
def test_free_windows_are_the_word_bfs_windows(alphabet):
    fq = free_quandle(alphabet)
    for radius in range(5):
        window = fq.elements_window(radius)
        before = _window_before(fq, radius)
        assert len(window) == len(set(window)) == len(before) == (2 * len(alphabet) - 1) ** radius * len(alphabet)
        assert set(window) == set(before)
        if alphabet == sorted(alphabet):
            assert window == before


def test_free_window_order_on_an_unsorted_alphabet():
    """Letters in alphabet order; within a letter, BFS over the sorted
    generator names, each generator before its inverse."""
    keys = [x.key() for x in free_quandle(["c", "a", "b"]).elements_window(1)]
    assert keys == [
        "c^1", "c^a", "c^a^-1", "c^b", "c^b^-1",
        "a^1", "a^b", "a^b^-1", "a^c", "a^c^-1",
        "b^1", "b^a", "b^a^-1", "b^c", "b^c^-1",
    ]


def test_free_symmetry_word():
    fq = free_quandle(["a", "b"])
    a, b = fq.generator("a"), fq.generator("b")
    sb = fq.symmetry(b)
    assert sb.act(a) == fq.op(a, b)
    s_ab = fq.symmetry(fq.op(a, b))
    # s_{a <| b} = s_b^-1 s_a s_b
    sa = fq.symmetry(a)
    assert s_ab == sb.inverse() * sa * sb


# --------------------------------------------------------------- windows


@pytest.mark.parametrize(
    "backend",
    [dihedral_quandle("inf"), galex_lattice(ROT90), galex_lattice([[1]]), free_quandle(["a", "b"])],
    ids=["dihedral-inf", "rot90", "lattice-rank-1", "free"],
)
def test_negative_window_is_rejected(backend):
    """A negative radius would give an empty window, on which the axiom
    check passes vacuously; both window entry points refuse it."""
    for radius in (-1, -5):
        with pytest.raises(ValueError, match="window radius"):
            backend.check_axioms_window(radius)
        with pytest.raises(ValueError, match="window radius"):
            backend.elements_window(radius)
    assert backend.check_axioms_window(0).ok


def test_axiom_windows_random_families():
    rng = random.Random(51)
    backends = [
        dihedral_quandle("inf"),
        galex_lattice(ROT90),
        galex_lattice([[1, 1], [0, 1]]),
        free_quandle(["a", "b", "c"]),
    ]
    for backend in backends:
        assert backend.check_axioms_window(2).ok
    # spot-check distributivity on scattered triples
    q = galex_lattice([[0, 1], [1, 1]])
    for _ in range(80):
        x, y, z = (
            tuple(rng.randrange(-9, 10) for _ in range(2)) for _ in range(3)
        )
        assert q.op(q.op(x, y), z) == q.op(q.op(x, z), q.op(y, z))
