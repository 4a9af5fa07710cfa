import math
import random
from dataclasses import dataclass
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles.families import galex_lattice

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
from quandles.schreier import _identity_like, build_ball, cayley_action

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


def test_products_across_two_t_are_the_composed_maps():
    rot, cat = UnimodularMatrix(ROT90), UnimodularMatrix([[2, 1], [1, 1]])
    f, g = LatticeAffine.of(rot, 1, (1, -2)), LatticeAffine.of(cat, 1, (0, 3))
    assert (f * g).matrix == ((1, -2), (1, -1))
    assert (g * f).matrix == ((-1, -1), (2, 1))
    for v in product(range(-3, 4), repeat=2):
        assert (f * g).act(v) == g.act(f.act(v))
        assert (g * f).act(v) == f.act(g.act(v))
        assert (f * g).inverse().act((f * g).act(v)) == v


def test_equal_maps_built_on_different_t_compose_alike():
    rot, cat = UnimodularMatrix(ROT90), UnimodularMatrix([[2, 1], [1, 1]])
    a, b = LatticeAffine.of(rot, 4, (1, 2)), LatticeAffine.translation(cat, (1, 2))
    g = LatticeAffine.of(cat, 1, (3, -1))
    assert a == b and hash(a) == hash(b)
    assert a * g == b * g and g * a == g * b


def test_products_of_different_dimensions_raise():
    f = LatticeAffine.of(UnimodularMatrix(ROT90), 1, (0, 0))
    g = LatticeAffine.of(UnimodularMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), 1, (0, 0, 0))
    for x, y in ((f, g), (g, f)):
        with pytest.raises(ValueError):
            x * y
    with pytest.raises(ValueError):
        mat_mul(((1, 0, 0),), ((1, 0), (0, 1)))


@dataclass(frozen=True)
class _TwoEncodingAffine:
    """A frozen copy of ``LatticeAffine`` as it was when it stored its map
    twice, as a power of a fixed t and as a matrix: the oracle for maps
    built on one t."""

    t: UnimodularMatrix
    power: int
    matrix: tuple
    shift: tuple

    @staticmethod
    def of(t, power, shift):
        m = t.power(power)
        if m == mat_identity(t.n):
            power = 0
        return _TwoEncodingAffine(t, power, m, tuple(int(v) for v in shift))

    def act(self, v):
        return tuple(a + b for a, b in zip(mat_vec(self.matrix, v), self.shift))

    def __mul__(self, other):
        shift = tuple(a + b for a, b in zip(mat_vec(other.matrix, self.shift), other.shift))
        return _TwoEncodingAffine.of(self.t, self.power + other.power, shift)

    def inverse(self):
        shift = tuple(-v for v in mat_vec(self.t.power(-self.power), self.shift))
        return _TwoEncodingAffine.of(self.t, -self.power, shift)

    def is_identity(self):
        return self.matrix == mat_identity(self.t.n) and not any(self.shift)

    def key(self):
        flat = ";".join(",".join(str(v) for v in row) for row in self.matrix)
        return f"[{flat}]+({','.join(str(v) for v in self.shift)})"

    def __eq__(self, other):
        return self.matrix == other.matrix and self.shift == other.shift

    def __hash__(self):
        return hash((self.matrix, self.shift))


_ORACLE_TS = [ROT90, [[2, 1], [1, 1]], [[0, -1], [1, -1]], SHEAR, [[0, 0, 1], [1, 0, 0], [0, 1, 1]]]


@st.composite
def _maps_on_one_t(draw):
    t = UnimodularMatrix(draw(st.sampled_from(_ORACLE_TS)))
    shifts = st.tuples(*[st.integers(-5, 5)] * t.n)
    pairs = [(draw(st.integers(-6, 6)), draw(shifts)) for _ in range(2)]
    return t, pairs, draw(shifts)


@settings(max_examples=150, deadline=None)
@given(_maps_on_one_t())
def test_lattice_affine_agrees_with_the_two_encoding_copy(case):
    t, pairs, v = case
    (f, g), (F, G) = ([cls.of(t, k, c) for k, c in pairs] for cls in (LatticeAffine, _TwoEncodingAffine))
    for new, old in ((f, F), (g, G), (f * g, F * G), (g * f, G * F), (f.inverse(), F.inverse())):
        assert (new.matrix, new.shift, new.key(), hash(new)) == (old.matrix, old.shift, old.key(), hash(old))
        assert new.act(v) == old.act(v) and new.is_identity() == old.is_identity()
    assert (f == g) == (F == G)


@pytest.mark.parametrize("t", _ORACLE_TS[:4] + [[[1, 1, 0], [0, 1, 1], [0, 0, 1]]])
def test_lattice_cayley_balls_match_the_two_encoding_copy(t):
    """Cayley balls of the inner and displacement generators, built on the
    copy's maps, have the same keys, depths and edges at R = 0..4."""
    q = galex_lattice(t)
    inner = [(name, _TwoEncodingAffine.of(q.t, 1, aut.shift)) for name, aut in q.inner_generators()]
    s0_inv = inner[0][1].inverse()
    displacement = [(f"{name}*s0^-1", g * s0_inv) for name, g in inner[1:] if not (g * s0_inv).is_identity()]
    assert [name for name, _ in displacement] == [name for name, _ in q.displacement_generators()]
    for new, old in ((q.inner_generators(), inner), (q.displacement_generators(), displacement)):
        for radius in range(5):
            a, b = (build_ball(cayley_action("lattice", gens), _identity_like(gens), radius) for gens in (new, old))
            assert a.keys == b.keys and a.depth.tolist() == b.depth.tolist() and a.edges == b.edges
