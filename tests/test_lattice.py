import math
import random
from itertools import product

import pytest

from quandles.lattice import (
    IntegerLattice,
    LatticeAffine,
    UnimodularMatrix,
    column_hnf,
    dis_lattice,
    mat_det,
    mat_identity,
    mat_inverse_exact,
    mat_mul,
    mat_vec,
    one_minus_inverse,
    xgcd,
)

ROT90 = [[0, -1], [1, 0]]
SHEAR = [[1, 1], [0, 1]]
FIB = [[0, 1], [1, 1]]


def test_xgcd():
    rng = random.Random(41)
    for _ in range(300):
        a, b = rng.randrange(-200, 201), rng.randrange(-200, 201)
        g, x, y = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


def test_mat_det():
    assert mat_det([[2]]) == 2
    assert mat_det(ROT90) == 1
    assert mat_det([[1, 2], [3, 4]]) == -2
    assert mat_det([[2, 0, 1], [0, 1, 0], [1, 0, 1]]) == 1
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randrange(1, 4)
        m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        # cofactor expansion oracle
        assert mat_det(m) == _det_cofactor(m)


def _det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_cofactor(minor)
    return total


def test_mat_inverse_exact():
    inv = mat_inverse_exact(ROT90)
    assert mat_mul(ROT90, inv) == mat_identity(2)
    with pytest.raises(ValueError, match="not integral"):
        mat_inverse_exact([[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="singular"):
        mat_inverse_exact([[1, 2], [2, 4]])
    assert mat_inverse_exact([[-1]]) == ((-1,),)
    # products of elementary matrices are unimodular, with large entries
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 6)
        m = mat_identity(n)
        for _ in range(12):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            e = [list(r) for r in mat_identity(n)]
            e[i][j] = rng.choice([-3, -1, 2, 5]) if i != j else -1
            m = mat_mul(m, tuple(map(tuple, e)))
        inv = mat_inverse_exact(m)
        assert mat_mul(m, inv) == mat_mul(inv, m) == mat_identity(n)


def test_unimodular_rejects():
    with pytest.raises(ValueError):
        UnimodularMatrix([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        UnimodularMatrix([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        UnimodularMatrix([[1, 0], [0]])


def test_unimodular_powers():
    t = UnimodularMatrix(ROT90)
    assert t.power(0) == mat_identity(2)
    assert t.power(4) == mat_identity(2)
    assert t.power(-1) == t.power(3)
    rng = random.Random(43)
    for _ in range(50):
        k = rng.randrange(-6, 7)
        expected = mat_identity(2)
        step = ROT90 if k >= 0 else mat_inverse_exact(ROT90)
        for _ in range(abs(k)):
            expected = mat_mul(expected, step)
        assert t.power(k) == expected


def test_lattice_affine_composition():
    t = UnimodularMatrix(ROT90)
    f = LatticeAffine.of(t, 1, (1, 0))
    g = LatticeAffine.of(t, -1, (0, 2))
    rng = random.Random(44)
    for _ in range(100):
        v = (rng.randrange(-5, 6), rng.randrange(-5, 6))
        assert (f * g).act(v) == g.act(f.act(v))
        assert f.inverse().act(f.act(v)) == v
    assert (f * f.inverse()).is_identity()


def test_lattice_affine_identity_power_folds():
    # t^2 = -1 on Z^1 means t^2-translations compare equal to plain ones
    t = UnimodularMatrix([[-1]])
    assert LatticeAffine.of(t, 2, (0,)) == LatticeAffine.of(t, 0, (0,))
    assert LatticeAffine.of(t, 2, (3,)).is_translation()


def test_column_hnf_goldens():
    assert column_hnf([(-2,)], 1) == [(2,)]
    assert column_hnf([(1, 1), (-1, 1)], 2) == [(1, 1), (0, 2)]
    assert column_hnf([(0, -1)], 2) == [(0, 1)]
    assert column_hnf([], 2) == []
    assert column_hnf([(2, -1), (-1, 1)], 2) == [(1, 0), (0, 1)]


def test_column_hnf_shape():
    rng = random.Random(45)
    for _ in range(100):
        n = rng.randrange(1, 4)
        cols = [
            tuple(rng.randrange(-6, 7) for _ in range(n))
            for _ in range(rng.randrange(1, 4))
        ]
        basis = column_hnf(cols, n)
        pivots = []
        for col in basis:
            i = next(i for i, v in enumerate(col) if v)
            assert col[i] > 0
            pivots.append(i)
            # entries above the pivot in earlier columns are reduced
        assert pivots == sorted(pivots)
        for a in range(len(basis)):
            for b in range(a):
                assert 0 <= basis[b][pivots[a]] < basis[a][pivots[a]]


def test_column_hnf_invariance():
    """Unimodular recombination of the generators leaves the form unchanged."""
    rng = random.Random(46)
    for _ in range(80):
        n = rng.randrange(1, 4)
        cols = [
            [rng.randrange(-5, 6) for _ in range(n)]
            for _ in range(rng.randrange(2, 5))
        ]
        reference = column_hnf([tuple(c) for c in cols], n)
        mutated = [c[:] for c in cols]
        for _ in range(6):
            i, j = rng.randrange(len(mutated)), rng.randrange(len(mutated))
            if i == j:
                for r in range(n):
                    mutated[i][r] = -mutated[i][r]
            else:
                k = rng.randrange(-3, 4)
                for r in range(n):
                    mutated[i][r] += k * mutated[j][r]
        rng.shuffle(mutated)
        assert column_hnf([tuple(c) for c in mutated], n) == reference


def test_integer_lattice_membership():
    lat = IntegerLattice(2, [(1, 1), (-1, 1)])
    assert (2, 0) in lat
    assert (0, 2) in lat
    assert (1, 0) not in lat
    assert lat.reduce((1, 0)) != (0, 0)
    assert lat.rank == 2
    assert lat.index_in_ambient() == 2


def test_integer_lattice_membership_brute():
    rng = random.Random(47)
    gens = [(2, 1), (0, 3)]
    lat = IntegerLattice(2, gens)
    span = {
        (a * gens[0][0] + b * gens[1][0], a * gens[0][1] + b * gens[1][1])
        for a, b in product(range(-8, 9), repeat=2)
    }
    for _ in range(300):
        v = (rng.randrange(-6, 7), rng.randrange(-6, 7))
        assert (v in lat) == (v in span)


def test_rank_deficient_lattice():
    lat = IntegerLattice(2, [(1, 0), (3, 0)])
    assert lat.rank == 1
    assert lat.index_in_ambient() is None
    assert (2, 0) in lat
    assert (0, 1) not in lat


def test_dis_lattice_goldens():
    assert dis_lattice(UnimodularMatrix([[-1]])).basis == [(2,)]
    assert dis_lattice(UnimodularMatrix(ROT90)).basis == [(1, 1), (0, 2)]
    assert dis_lattice(UnimodularMatrix(SHEAR)).basis == [(1, 0)]
    assert dis_lattice(UnimodularMatrix(FIB)).basis == [(1, 0), (0, 1)]
    assert dis_lattice(UnimodularMatrix(mat_identity(2))).basis == []


def test_one_minus_inverse():
    assert [list(r) for r in one_minus_inverse(UnimodularMatrix([[-1]]))] == [[2]]
    m = one_minus_inverse(UnimodularMatrix(ROT90))
    # columns of m generate the same lattice as the hnf golden above
    assert column_hnf([tuple(row[j] for row in m) for j in range(2)], 2) == [(1, 1), (0, 2)]
    assert mat_det(m) == 2


def test_index_matches_det():
    for rows in ([[-1]], ROT90, FIB):
        t = UnimodularMatrix(rows)
        lat = dis_lattice(t)
        d = mat_det(one_minus_inverse(t))
        if d != 0:
            assert lat.index_in_ambient() == abs(d)


def test_mat_vec():
    assert mat_vec(ROT90, (1, 0)) == (0, 1)
    assert mat_vec(ROT90, (0, 1)) == (-1, 0)
