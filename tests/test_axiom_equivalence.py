"""The axiom checkers against frozen copies of their full-scan versions.

``check_quandle_axioms`` proves axiom 3 from a generating set and the
lattice window check runs in int64 numpy; both fall back to a full scan
for the witness.  These tests pin that every report, witness included,
is the one the plain scans below give.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import traced_peak

from quandles import families, quandle
from quandles.families import (
    FreeQuandle,
    GAlexLattice,
    conjugation_automorphism,
    conjugation_quandle,
    dihedral_quandle,
    free_quandle,
    galex_finite,
    galex_lattice,
)
from quandles.groups import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    find_element,
    quaternion_group,
    symmetric_group,
)
from quandles.lattice import UnimodularMatrix, mat_mul
from quandles.quandle import AxiomReport, FiniteQuandle, check_quandle_axioms
from quandles.schreier import build_ball, inner_action

SETTINGS = settings(max_examples=60, deadline=None)


# ------------------------------------------------------- frozen references


def full_scan_axioms(table) -> AxiomReport:
    """The table check as it was before the generating-set certificate:
    per-column bincount for axiom 2 and all n^3 triples for axiom 3."""
    t = np.asarray(table)
    n = t.shape[0]
    diag = t[np.arange(n), np.arange(n)]
    bad = np.nonzero(diag != np.arange(n))[0]
    if bad.size:
        return AxiomReport(False, 1, (int(bad[0]),))
    for y in range(n):
        counts = np.bincount(t[:, y], minlength=n)
        if (counts != 1).any():
            return AxiomReport(False, 2, (int(np.nonzero(counts == 0)[0][0]), y))
    for x0 in range(0, n, 32):
        x1 = min(x0 + 32, n)
        lhs = t[t[x0:x1, :], :]
        rhs = t[t[x0:x1, None, :], t[None, :, :]]
        if not np.array_equal(lhs, rhs):
            w = np.argwhere(lhs != rhs)[0]
            return AxiomReport(False, 3, (int(w[0]) + x0, int(w[1]), int(w[2])))
    return AxiomReport(True)


def loop_window_axioms(backend, elements) -> AxiomReport:
    """The generic window check before memoization: four ops per triple."""
    elements = list(elements)
    for x in elements:
        if backend.op(x, x) != x:
            return AxiomReport(False, 1, (x,))
    for x in elements:
        for y in elements:
            if backend.op_inv(backend.op(x, y), y) != x or backend.op(
                backend.op_inv(x, y), y
            ) != x:
                return AxiomReport(False, 2, (x, y))
    for x in elements:
        for y in elements:
            for z in elements:
                lhs = backend.op(backend.op(x, y), z)
                rhs = backend.op(backend.op(x, z), backend.op(y, z))
                if lhs != rhs:
                    return AxiomReport(False, 3, (x, y, z))
    return AxiomReport(True)


def generating_set_before(t) -> list[int]:
    """``quandle._generating_set`` as it was when it closed the covered
    set under x -> x ◁ s and x -> x ◁^-1 s, with the inverse table built
    for it."""
    n = t.shape[0]
    inv = np.empty_like(t)
    inv[t, np.arange(n)] = np.arange(n)[:, None]
    covered = np.zeros(n, dtype=bool)
    gens: list[int] = []
    while not covered.all():
        s = int(np.argmin(covered))
        old = np.nonzero(covered)[0]
        gens.append(s)
        covered[s] = True
        frontier = np.concatenate((t[old, s], inv[old, s], t[s, gens], inv[s, gens]))
        while frontier.size:
            frontier = np.unique(frontier[~covered[frontier]])
            covered[frontier] = True
            block = np.ix_(frontier, gens)
            frontier = np.concatenate((t[block].ravel(), inv[block].ravel()))
    return gens


def assert_same_table_report(table):
    expected = full_scan_axioms(table)
    assert check_quandle_axioms(table) == expected
    return expected


def assert_same_window_report(backend, radius):
    expected = loop_window_axioms(backend, backend.elements_window(radius))
    assert backend.check_axioms_window(radius) == expected
    return expected


# ------------------------------------------------------------ finite tables


def _criterion_10_tables():
    tables = [dihedral_quandle(n).table for n in range(2, 21)]
    for g in (
        cyclic_group(2), cyclic_group(3), cyclic_group(4), cyclic_group(5),
        cyclic_group(6), cyclic_group(7), cyclic_group(8),
        dihedral_group(3), dihedral_group(4), quaternion_group(),
    ):
        tables.append(conjugation_quandle(g).table)
    s3, d4, a4 = symmetric_group(3), dihedral_group(4), alternating_group(4)
    for group, sigma in (
        (cyclic_group(3), [0, 2, 1]),
        (s3, conjugation_automorphism(s3, 1)),
        (d4, conjugation_automorphism(d4, 1)),
        (a4, conjugation_automorphism(a4, find_element(a4, 2))),
    ):
        tables.append(galex_finite(group, sigma).table)
    return tables


def test_criterion_10_tables_match_full_scan():
    for table in _criterion_10_tables():
        assert assert_same_table_report(table).ok


def test_criterion_10_corruptions_match_full_scan():
    # the same 100 corruptions of R_7 that acceptance criterion 10 draws
    base = dihedral_quandle(7).table.tolist()
    rng = random.Random(20260814)
    axioms = set()
    for _ in range(100):
        t = [row[:] for row in base]
        x, y = rng.randrange(7), rng.randrange(7)
        t[x][y] = rng.choice([v for v in range(7) if v != t[x][y]])
        axioms.add(assert_same_table_report(t).axiom)
    assert axioms >= {1, 2}


@pytest.mark.parametrize("n", range(1, 7))
def test_trivial_quandles_need_every_generator(n):
    table = [[x] * n for x in range(n)]
    assert assert_same_table_report(table).ok
    t = np.asarray(table)
    assert quandle._generating_set(t) == list(range(n))


def test_multi_component_tables():
    sizes = {}
    for name, q in (
        ("R_4", dihedral_quandle(4)),
        ("R_12", dihedral_quandle(12)),
        ("conj(Q8)", conjugation_quandle(quaternion_group())),
        ("conj(S4)", conjugation_quandle(symmetric_group(4))),
    ):
        assert assert_same_table_report(q.table).ok
        gens = quandle._generating_set(q.table)
        sizes[name] = len(gens)
        # S meets every component, and its closure is the whole quandle
        assert {q.component_key(s) for s in gens} == {part[0] for part in q.components()}
    assert sizes["R_4"] == 2 and sizes["conj(Q8)"] > 2 and sizes["conj(S4)"] > 2


def test_connected_dihedral_needs_two_generators():
    q = dihedral_quandle(501)
    assert quandle._generating_set(q.table) == [0, 1]


def test_stock_generating_sets_match_the_two_sided_closure():
    tables = _criterion_10_tables() + [
        conjugation_quandle(g).table for g in (symmetric_group(4), alternating_group(4), quaternion_group())
    ]
    tables.append(dihedral_quandle(501).table)
    for t in tables:
        assert quandle._generating_set(t) == generating_set_before(t)


@st.composite
def permutation_column_tables(draw):
    """Tables whose columns are random permutations: axiom 2 holds, and
    axioms 1 and 3 mostly fail."""
    n = draw(st.integers(1, 9))
    columns = [draw(st.permutations(range(n))) for _ in range(n)]
    return np.array(columns, dtype=np.int64).T


@SETTINGS
@given(permutation_column_tables())
def test_generating_sets_match_the_two_sided_closure(t):
    assert quandle._generating_set(t) == generating_set_before(t)


@st.composite
def diagonal_fixing_tables(draw):
    """Tables whose columns are random permutations fixing the diagonal:
    axioms 1 and 2 hold, axiom 3 mostly fails."""
    n = draw(st.integers(1, 8))
    columns = []
    for y in range(n):
        rest = draw(st.permutations([v for v in range(n) if v != y]))
        columns.append(rest[:y] + [y] + rest[y:])
    return [[columns[y][x] for y in range(n)] for x in range(n)]


@SETTINGS
@given(diagonal_fixing_tables(), st.sampled_from([1, 7, 64, quandle.AXIOM3_CELLS]))
def test_random_permutation_tables_match_full_scan(table, cells):
    with pytest.MonkeyPatch.context() as mp:
        # small budgets make the fallback scan take one or a few rows per pass
        mp.setattr(quandle, "AXIOM3_CELLS", cells)
        assert_same_table_report(table)


def test_fallback_scan_memory_is_bounded_by_cells(monkeypatch):
    n = 120
    t = dihedral_quandle(n).table.copy()
    t[[n - 1, n - 3], 3] = t[[n - 3, n - 1], 3]  # columns stay permutations
    expected = full_scan_axioms(t)
    assert expected.axiom == 3
    monkeypatch.setattr(quandle, "AXIOM3_CELLS", 2 * n * n)
    report, peak = traced_peak(lambda: check_quandle_axioms(t))
    assert report == expected
    # one 32-row pass of the old scan held 32 n^2 int64 cells per array
    assert peak < 16 * n * n * 8


def test_dihedral_quandle_and_inner_ball_memory_is_bounded_by_tables():
    n = 301
    table = n * n * 8
    q, peak = traced_peak(lambda: dihedral_quandle(n))
    # the table, and no second n x n array for its inverse or its remainder
    assert peak < 1.5 * table
    ball, peak = traced_peak(lambda: build_ball(inner_action(q), 0, 2))
    # the walk reads the table in place and keeps no block of vertex
    # numbers; the ball's own table is gathered on first use
    assert peak < 0.5 * table
    assert len(ball.keys) == n


def test_axiom_check_memory_is_bounded_by_tables():
    n = 301
    t = dihedral_quandle(n).table
    report, peak = traced_peak(lambda: check_quandle_axioms(t))
    assert report.ok
    # the sorted columns, then the two sides of one automorphism test;
    # no inverse table and no n^2-long bincount
    assert peak < 2.5 * n * n * 8


def test_inverse_table_matches_column_loop():
    for table in _criterion_10_tables():
        q = FiniteQuandle(table)
        inv = np.empty_like(q.table)
        for y in range(q.size):
            inv[q.table[:, y], y] = np.arange(q.size)
        assert np.array_equal(q.inv_table, inv)


# --------------------------------------------------------- lattice windows


def _random_unimodular(rng):
    elementary = ([[1, 1], [0, 1]], [[1, -1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [-1, 1]],
                  [[0, 1], [1, 0]], [[-1, 0], [0, 1]])
    m = ((1, 0), (0, 1))
    for _ in range(rng.randrange(1, 7)):
        m = mat_mul(m, tuple(tuple(r) for r in rng.choice(elementary)))
    return [list(r) for r in m]


class _CountingFallback:
    def __init__(self):
        self.calls = 0
        self.real = families._axiom_window_report

    def __call__(self, backend, elements):
        self.calls += 1
        return self.real(backend, elements)


def test_random_unimodular_lattices_take_the_int64_path(monkeypatch):
    fallback = _CountingFallback()
    monkeypatch.setattr(families, "_axiom_window_report", fallback)
    rng = random.Random(71)
    for _ in range(8):
        q = galex_lattice(_random_unimodular(rng))
        assert assert_same_window_report(q, 2).ok
    assert fallback.calls == 0


class _BrokenOpLattice(GAlexLattice):
    """A lattice quandle whose op is wrong at one pair of window points."""

    def __init__(self, t, bad_pair, delta):
        super().__init__(UnimodularMatrix(t))
        self.bad_pair, self.delta = bad_pair, delta

    def op(self, x, y, exponent=1):
        out = super().op(x, y, exponent)
        if exponent == 1 and (tuple(x), tuple(y)) == self.bad_pair:
            out = (out[0] + self.delta,) + out[1:]
        return out


@pytest.mark.parametrize(
    "bad_pair",
    [((0, 0), (0, 0)), ((1, -1), (0, 2)), ((2, 2), (-2, 1)), ((-1, 0), (1, 1))],
)
def test_lattice_with_broken_op_reports_the_loop_witness(bad_pair, monkeypatch):
    fallback = _CountingFallback()
    monkeypatch.setattr(families, "_axiom_window_report", fallback)
    q = _BrokenOpLattice([[2, 1], [1, 1]], bad_pair, 1)
    report = assert_same_window_report(q, 2)
    assert not report.ok and fallback.calls == 1


def test_lattice_with_broken_op_inv_reports_the_loop_witness():
    class BrokenInverse(GAlexLattice):
        def op_inv(self, x, y):
            out = super().op_inv(x, y)
            return (out[0] + 1,) + out[1:] if tuple(y) == (1, 0) else out

    report = assert_same_window_report(BrokenInverse(UnimodularMatrix([[0, -1], [1, 0]])), 2)
    assert report.axiom == 2


def test_lattice_with_squared_symmetries_fails_distributivity():
    class Squared(GAlexLattice):
        def op(self, x, y, exponent=1):
            out = super().op(x, y, exponent)
            return super().op(out, y, exponent) if any(y) else out

    report = assert_same_window_report(Squared(UnimodularMatrix([[1, 1], [0, 1]])), 2)
    assert report.axiom == 3


def test_huge_entries_take_the_python_path(monkeypatch):
    fallback = _CountingFallback()
    monkeypatch.setattr(families, "_axiom_window_report", fallback)
    big = 10**9
    q = galex_lattice([[big + 1, big], [big, big - 1]])
    assert assert_same_window_report(q, 2).ok
    assert fallback.calls == 1


# ------------------------------------------------------- generic windows


class _SquaredSymmetryFree(FreeQuandle):
    """s_y replaced by s_y^2 for every y with a nonempty tail: axioms 1
    and 2 still hold, distributivity does not."""

    def op(self, x, y):
        out = super().op(x, y)
        return super().op(out, y) if y.tail else out

    def op_inv(self, x, y):
        out = super().op_inv(x, y)
        return super().op_inv(out, y) if y.tail else out


class _OneBadPairFree(FreeQuandle):
    def op(self, x, y):
        out = super().op(x, y)
        return super().op(out, y) if (x.key(), y.key()) == ("a^b", "b^a") else out


@pytest.mark.parametrize(
    "backend, radius, axiom",
    [
        (free_quandle(["a", "b"]), 2, None),
        (free_quandle(["a", "b", "c"]), 1, None),
        (_SquaredSymmetryFree(["a", "b"]), 1, 3),
        (_OneBadPairFree(["a", "b"]), 1, 2),
        (dihedral_quandle("inf"), 4, None),
    ],
)
def test_generic_windows_match_the_loop(backend, radius, axiom):
    assert assert_same_window_report(backend, radius).axiom == axiom
