import random
from itertools import permutations

import pytest

from quandles.errors import ConstructionError, MalformedTableError
from quandles.families import conjugation_quandle
from quandles.groups import symmetric_group
from quandles.perms import Permutation
from quandles.quandle import (
    FiniteQuandle,
    check_quandle_axioms,
    quandle_word_value,
    symmetry_rewrite,
    symmetry_word_automorphism,
)


def _dihedral_table(n):
    return [[(2 * y - x) % n for y in range(n)] for x in range(n)]


def test_axioms_accept_dihedral_tables():
    for n in range(1, 10):
        report = check_quandle_axioms(_dihedral_table(n))
        assert report.ok, (n, report.witness)


def test_axioms_accept_trivial_quandle():
    assert check_quandle_axioms([[0, 0], [1, 1]]).ok


def test_axiom1_witness():
    t = _dihedral_table(5)
    t[3][3] = 0
    report = check_quandle_axioms(t)
    assert not report.ok
    assert report.axiom == 1
    assert report.witness == (3,)


def test_axiom2_witness():
    # column 1 loses the value 4 and doubles up 0
    t = _dihedral_table(5)
    t[3][1] = 0  # was 2*1-3 = 4
    report = check_quandle_axioms(t)
    assert not report.ok
    assert report.axiom == 2
    v, y = report.witness
    assert y == 1
    col = [t[x][1] for x in range(5)]
    assert col.count(v) != 1


def test_axiom3_witness():
    # columns are permutations fixing the diagonal, so axioms 1 and 2 hold,
    # but the columns do not distribute over each other
    t = [[0, 2, 0], [2, 1, 1], [1, 0, 2]]
    assert all(t[x][x] == x for x in range(3))
    assert all(sorted(t[x][y] for x in range(3)) == [0, 1, 2] for y in range(3))
    report = check_quandle_axioms(t)
    assert not report.ok
    assert report.axiom == 3
    x, y, z = report.witness
    assert t[t[x][y]][z] != t[t[x][z]][t[y][z]]


def test_off_diagonal_mutation_hits_axiom2():
    t = _dihedral_table(4)
    t[0][1] = 3  # was 2; column 1 now misses 2
    report = check_quandle_axioms(t)
    assert not report.ok
    assert report.axiom == 2
    assert report.witness == (2, 1)


def test_malformed_tables():
    with pytest.raises(MalformedTableError):
        check_quandle_axioms([[0, 1], [0]])
    with pytest.raises(MalformedTableError):
        check_quandle_axioms([[0, 5], [1, 1]])
    with pytest.raises(MalformedTableError):
        check_quandle_axioms([])


def test_random_mutations_detected():
    rng = random.Random(2024)
    base = _dihedral_table(7)
    for _ in range(60):
        t = [row[:] for row in base]
        x, y = rng.randrange(7), rng.randrange(7)
        w = rng.choice([v for v in range(7) if v != t[x][y]])
        t[x][y] = w
        report = check_quandle_axioms(t)
        assert not report.ok
        # witness must point at a real violation of the claimed axiom
        if report.axiom == 1:
            (i,) = report.witness
            assert t[i][i] != i
        elif report.axiom == 2:
            v, col = report.witness
            assert [t[r][col] for r in range(7)].count(v) != 1
        else:
            i, j, k = report.witness
            assert t[t[i][j]][k] != t[t[i][k]][t[j][k]]


def test_finite_quandle_construction_rejects_bad_table():
    t = _dihedral_table(4)
    t[2][2] = 1
    with pytest.raises(ConstructionError):
        FiniteQuandle(t)


def test_op_inv():
    q = FiniteQuandle(_dihedral_table(9))
    rng = random.Random(5)
    for _ in range(100):
        x, y = rng.randrange(9), rng.randrange(9)
        assert q.op_inv(q.op(x, y), y) == x
        assert q.op(q.op_inv(x, y), y) == x


def test_symmetry_is_column():
    q = FiniteQuandle(_dihedral_table(6))
    for y in range(6):
        s = q.symmetry(y)
        assert [s.act(x) for x in range(6)] == [q.op(x, y) for x in range(6)]


def test_symmetry_is_automorphism():
    q = FiniteQuandle(_dihedral_table(8))
    for y in range(8):
        assert q.is_automorphism(q.symmetry(y)) is None
    swap = Permutation((1, 0, 2, 3, 4, 5, 6, 7))
    bad = q.is_automorphism(swap)
    assert bad is not None
    x, y = bad
    assert swap.act(q.op(x, y)) != q.op(swap.act(x), swap.act(y))


def _is_automorphism_loop(q, p):
    """The original check: the first (x, y) in row-major order."""
    for x in range(q.size):
        for y in range(q.size):
            if p.act(q.op(x, y)) != q.op(p.act(x), p.act(y)):
                return (x, y)
    return None


def test_is_automorphism_witness_matches_double_loop():
    rng = random.Random(7)
    r7 = FiniteQuandle(_dihedral_table(7))
    affine = [Permutation(tuple((a * x + b) % 7 for x in range(7))) for a in range(1, 7) for b in (0, 3)]
    shuffled = []
    for _ in range(40):
        images = list(range(7))
        rng.shuffle(images)
        shuffled.append(Permutation(tuple(images)))
    swaps = [Permutation.from_mapping({i: j, j: i}, 7) for i in range(7) for j in range(i + 1, 7)]
    conj = conjugation_quandle(symmetric_group(3))
    cases = [(r7, p) for p in affine + shuffled + swaps]
    cases += [(conj, Permutation(images)) for images in permutations(range(6))]
    failures = 0
    for q, p in cases:
        expected = _is_automorphism_loop(q, p)
        assert q.is_automorphism(p) == expected
        failures += expected is not None
    assert 0 < failures < len(cases)


def test_inner_and_displacement_generators():
    q = FiniteQuandle(_dihedral_table(4))
    names = [n for n, _ in q.inner_generators()]
    assert names == ["s0", "s1", "s2", "s3"]
    dis = q.displacement_generators()
    # s_2 = s_0 in R_4, so that identity product is dropped
    assert [n for n, _ in dis] == ["s1*s0^-1", "s3*s0^-1"]
    assert q.inner_group().order == 4
    assert q.displacement_group().order == 2


def test_trivial_quandle_groups():
    q = FiniteQuandle([[0, 0], [1, 1]])
    assert q.inner_group().order == 1
    assert q.displacement_group().order == 1
    assert q.components() == [[0], [1]]


def test_components_and_keys():
    q = FiniteQuandle(_dihedral_table(4))
    assert q.components() == [[0, 2], [1, 3]]
    assert q.component_key(3) == 1
    assert q.key(2) == "2" and q.parse_key("2") == 2
    with pytest.raises(ValueError):
        q.parse_key("9")


def test_symmetry_rewrite_conjugation():
    """s_{x <| y} equals s_y^-1 s_x s_y, pushed through arbitrary words."""
    q = FiniteQuandle(_dihedral_table(5))
    rng = random.Random(11)
    for _ in range(60):
        base = rng.randrange(5)
        steps = [(rng.randrange(5), rng.choice((1, -1))) for _ in range(rng.randrange(4))]
        moved = quandle_word_value(q, base, steps)
        word = symmetry_rewrite(base, steps)
        assert symmetry_word_automorphism(q, word) == q.symmetry(moved)


def test_symmetry_rewrite_shape():
    word = symmetry_rewrite("a", [("b", 1), ("c", -1)])
    assert word == [("c", 1), ("b", -1), ("a", 1), ("b", 1), ("c", -1)]
    with pytest.raises(ConstructionError):
        symmetry_rewrite("a", [("b", 2)])
