"""The array form of ``GroupTable`` against a frozen copy of the tuple code
it replaced.

The copy below is the code as it was when a table was nested tuples: the
``GroupTable`` algebra as Python loops, the comprehension-built tables of
the conjugation and twisted Alexander quandles, the symmetric,
alternating, dihedral and quaternion groups built by one product of
concrete elements per entry, and the Python loops of
``verify_dis_properties``, ``verify_p_equals_dis`` and the two inner-case
checks.  Every stock group, every sigma = conjugation by g and
conjugation-closed subsets (fixed and drawn) must give equal indices,
tables, orders, invariants, reports and witnesses.

The frozen ``verify_dis_properties`` still finds zero-sum words by a
search bounded at length 2 |Inn|; it is the oracle for the exact rule
that replaced it, on quandles where Inn/Dis has order 1 to 4.
"""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import elements, traced_peak

from quandles import perms
from quandles.errors import ConstructionError
from quandles.families import conjugation_automorphism, conjugation_quandle, dihedral_quandle, galex_finite
from quandles.groups import (
    GroupTable,
    alternating_group,
    cyclic_group,
    dihedral_group,
    find_element,
    quaternion_group,
    symmetric_group,
)
from quandles.perms import PermGroup, Permutation, orbits
from quandles.quandle import FiniteQuandle
from quandles.verify import (
    TheoremReport,
    verify_dis_properties,
    verify_inner_case_commutator,
    verify_inner_case_identity_component,
    verify_p_equals_dis,
)

# ---------------------------------------------------------------------------
# the frozen tuple code


class TupleGroupTable:
    """``GroupTable`` as nested tuples with loops over them."""

    def __init__(self, mul):
        n = len(mul)
        self.mul = tuple(tuple(map(int, row)) for row in mul)
        self.size = n
        self.identity = next(
            e for e in range(n) if all(self.mul[e][x] == x == self.mul[x][e] for x in range(n))
        )
        self.inverse = tuple(
            next(b for b in range(n) if self.mul[a][b] == self.identity == self.mul[b][a]) for a in range(n)
        )

    def element_order(self, x):
        k, cur = 1, x
        while cur != self.identity:
            cur = self.mul[cur][x]
            k += 1
        return k

    def conj(self, x, by):
        return self.mul[self.mul[self.inverse[by]][x]][by]

    def is_automorphism(self, images):
        if sorted(images) != list(range(self.size)):
            return (-1, next(v for v in range(self.size) if list(images).count(v) != 1))
        for a in range(self.size):
            for b in range(self.size):
                if images[self.mul[a][b]] != self.mul[images[a]][images[b]]:
                    return (a, b)
        return None

    def conjugation_closed(self, subset):
        inside = set(subset)
        for x in subset:
            for by in range(self.size):
                if self.conj(x, by) not in inside:
                    return (x, by)
        return None

    def right_translation(self, x):
        return Permutation(tuple(self.mul[y][x] for y in range(self.size)))

    def subgroup_closure(self, subset):
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(subset) + [self.inverse[x] for x in subset]
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    b = self.mul[a][g]
                    if b not in seen:
                        seen.add(b)
                        new.append(b)
            frontier = new
        return sorted(seen)

    def normal_closure_of(self, x):
        return self.subgroup_closure(sorted({self.conj(x, by) for by in range(self.size)}))

    def commutator_of_subgroup(self, subset, other=None):
        others = subset if other is None else other
        comms = {
            self.mul[self.mul[self.inverse[a]][self.inverse[b]]][self.mul[a][b]] for a in subset for b in others
        }
        return self.subgroup_closure(sorted(comms))

    def subgroup(self, subset):
        els = sorted(subset)
        pos = {x: i for i, x in enumerate(els)}
        return TupleGroupTable([[pos[self.mul[a][b]] for b in els] for a in els])

    def quotient(self, normal):
        key = [min(self.mul[n][x] for n in normal) for x in range(self.size)]
        keys = sorted(set(key))
        pos = {k: i for i, k in enumerate(keys)}
        return TupleGroupTable([[pos[key[self.mul[a][b]]] for b in keys] for a in keys])

    def is_cyclic(self):
        return any(self.element_order(x) == self.size for x in range(self.size))

    def abelian_invariants(self):
        if self.size == 1:
            return []
        orders = [self.element_order(x) for x in range(self.size)]
        best = orders.index(max(orders))
        return self.quotient(self.subgroup_closure([best])).abelian_invariants() + [orders[best]]

    def abelian_invariants_of_subgroup(self, subset):
        sub = self.subgroup(subset)
        return sub.quotient(sub.commutator_of_subgroup(range(sub.size))).abelian_invariants()


def _perm_mul(a, b):
    return tuple(b[v] for v in a)


def _tuple_table(elements, multiply):
    index = {e: i for i, e in enumerate(elements)}
    return TupleGroupTable([[index[multiply(a, b)] for b in elements] for a in elements])


def _symmetric_before(n):
    return _tuple_table(sorted(permutations(range(n))), _perm_mul)


def _alternating_before(n):
    def parity(p):
        return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]) % 2

    return _tuple_table(sorted(p for p in permutations(range(n)) if parity(p) == 0), _perm_mul)


def _dihedral_before(n):
    def mult(a, b):
        r1, f1 = a
        r2, f2 = b
        r = (r2 - r1) % n if f2 else (r1 + r2) % n
        return (r, f1 ^ f2)

    return _tuple_table([(r, f) for f in (0, 1) for r in range(n)], mult)


def _quaternion_before():
    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def split(x):
        return (-1, x[1:]) if x.startswith("-") else (1, x)

    def mult(a, b):
        sa, ua = split(a)
        sb, ub = split(b)
        if ua == "1":
            s, u = sa * sb, ub
        elif ub == "1":
            s, u = sa * sb, ua
        else:
            sc, uc = split(base[(ua, ub)])
            s, u = sa * sb * sc, uc
        return u if s == 1 else ("-" + u if not u.startswith("-") else u[1:])

    return _tuple_table(["1", "-1", "i", "-i", "j", "-j", "k", "-k"], mult)


def _conjugation_table_before(group, subset):
    pos = {x: i for i, x in enumerate(subset)}
    return [[pos[group.conj(x, y)] for y in subset] for x in subset]


def _galex_table_before(group, sigma):
    mul, inv = group.mul, group.inverse
    return [[mul[sigma[mul[x][inv[y]]]][y] for y in range(group.size)] for x in range(group.size)]


def _conjugation_by_before(group, sigma):
    for g in range(group.size):
        if all(group.conj(x, g) == sigma[x] for x in range(group.size)):
            return g
    return None


def _dis_properties_before(q, instance=""):
    instance = instance or repr(q)
    inn = q.inner_group()
    dis = q.displacement_group()
    inn_elements = elements(inn)
    table = _tuple_table(inn_elements, Permutation.__mul__)
    index = {p: i for i, p in enumerate(inn_elements)}
    dis_index = [index[p] for p in elements(dis)]
    dis_set = set(dis_index)
    reports = []

    bad = None
    for g in range(table.size):
        for d in dis_index:
            if table.conj(d, g) not in dis_set:
                bad = {"conjugator": inn_elements[g].key(), "element": inn_elements[d].key()}
                break
        if bad:
            break
    details = {"inn_order": inn.order, "dis_order": dis.order}
    reports.append(TheoremReport("dis-normal-in-inn", instance, bad is None, bad, details))

    quotient = table.quotient(dis_index)
    cyclic, qorder = quotient.is_cyclic(), quotient.size
    witness = None if cyclic else {"quotient_order": qorder}
    reports.append(TheoremReport("inn-mod-dis-cyclic", instance, cyclic, witness, {"quotient_order": qorder}))

    max_len = 2 * inn.order
    steps = []
    for _, sym in inn.generators:
        i = index[sym]
        steps += [(i, 1), (table.inverse[i], -1)]
    start = (table.identity, 0)
    seen = {start}
    frontier = [start]
    zero_sum = {table.identity}
    for _ in range(max_len):
        nxt = []
        for x, total in frontier:
            for step, exp in steps:
                t = total + exp
                if abs(t) > max_len:
                    continue
                state = (table.mul[x][step], t)
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
                    if t == 0:
                        zero_sum.add(state[0])
        frontier = nxt
    if zero_sum == dis_set:
        bad = None
    else:
        bad = {
            "zero_sum_not_in_dis": sorted(inn_elements[x].key() for x in zero_sum - dis_set)[:3],
            "dis_not_zero_sum": sorted(inn_elements[x].key() for x in dis_set - zero_sum)[:3],
        }
    details = {"word_length_bound": max_len, "zero_sum_count": len(zero_sum)}
    reports.append(TheoremReport("dis-equals-zero-sum-words", instance, bad is None, bad, details))

    inn_orbits = orbits(inn.generators, range(q.size))
    dis_orbits = orbits(dis.generators, range(q.size))
    same = inn_orbits == dis_orbits
    witness = None if same else {"inn_orbits": inn_orbits, "dis_orbits": dis_orbits}
    reports.append(TheoremReport("inn-dis-orbits-equal", instance, same, witness, {"component_count": len(inn_orbits)}))
    return reports


def _p_equals_dis_before(q, group, instance=""):
    """The Python loops of the check, on the tuple table ``group`` of q."""
    instance = instance or repr(q)
    statement = "identity-component-realizes-displacement"
    p_elems = q.identity_component()
    p_set = set(p_elems)
    for a in p_elems:
        for b in p_elems:
            if group.mul[a][b] not in p_set:
                return TheoremReport(statement, instance, False, {"not_closed": (a, b)}, None)
    if group.identity not in p_set or any(group.inverse[a] not in p_set for a in p_elems):
        return TheoremReport(statement, instance, False, {"not_subgroup": sorted(p_elems)}, None)
    translations = {a: group.right_translation(a) for a in p_elems}
    for a in p_elems:
        for b in p_elems:
            if translations[a] * translations[b] != translations[group.mul[a][b]]:
                return TheoremReport(statement, instance, False, {"not_homomorphism": (a, b)}, None)
    dis_set = set(elements(q.displacement_group()))
    image = set(translations.values())
    if image != dis_set:
        witness = {
            "translation_not_in_dis": sorted(p.key() for p in image - dis_set)[:3],
            "dis_not_translation": sorted(p.key() for p in dis_set - image)[:3],
        }
        details = {"component_size": len(p_elems), "dis_order": len(dis_set)}
        return TheoremReport(statement, instance, False, witness, details)
    ident = group.identity
    for x in range(q.size):
        for y in range(q.size):
            g = q.op_inv(q.op(ident, x), y)
            if g not in p_set:
                return TheoremReport(statement, instance, False, {"generator_target_outside": (x, y, g)}, None)
            if q.symmetry(x) * q.symmetry(y).inverse() != translations[g]:
                return TheoremReport(statement, instance, False, {"generator_mismatch": (x, y, g)}, None)
    return TheoremReport(statement, instance, True, None, {"component_size": len(p_elems), "dis_order": len(dis_set)})


def _identity_component_before(group, g):
    sigma = [group.conj(x, g) for x in range(group.size)]
    q = FiniteQuandle(_galex_table_before(group, sigma), validate=False)
    return next(part for part in q.components() if group.identity in part)


def _inner_commutator_before(group, g, instance=""):
    instance = instance or f"conj-by-{g}"
    statement = "inner-sigma-identity-component-is-commutator"
    p_elems = set(_identity_component_before(group, g))
    closure = group.normal_closure_of(g)
    commutator = set(group.commutator_of_subgroup(closure))
    invariants = group.abelian_invariants_of_subgroup(closure)
    order_g = group.element_order(g)
    details = {
        "closure_order": len(closure),
        "commutator_order": len(commutator),
        "abelian_invariants": invariants,
        "commutator_index_in_closure": len(closure) // len(commutator),
        "remark_formula": invariants == ([order_g] if order_g > 1 else []),
        "component_size": len(p_elems),
    }
    missing, extra = commutator - p_elems, p_elems - commutator
    if missing or extra:
        witness = {
            "commutator_not_in_component": sorted(missing)[:4],
            "component_not_in_commutator": sorted(extra)[:4],
        }
        return TheoremReport(statement, instance, False, witness, details)
    return TheoremReport(statement, instance, True, None, details)


def _identity_component_check_before(group, g, instance=""):
    instance = instance or f"conj-by-{g}"
    statement = "inner-sigma-identity-component-is-commutator-with-group"
    p_elems = set(_identity_component_before(group, g))
    closure = group.normal_closure_of(g)
    with_group = set(group.commutator_of_subgroup(closure, range(group.size)))
    closure_commutator = set(group.commutator_of_subgroup(closure))
    details = {
        "component_size": len(p_elems),
        "closure_order": len(closure),
        "closure_group_commutator_order": len(with_group),
        "closure_commutator_order": len(closure_commutator),
        "component_equals_closure_commutator": p_elems == closure_commutator,
    }
    if p_elems != with_group:
        witness = {
            "component_not_in_commutator": sorted(p_elems - with_group),
            "commutator_not_in_component": sorted(with_group - p_elems),
        }
        return TheoremReport(statement, instance, False, witness, details)
    return TheoremReport(statement, instance, True, None, details)


# ---------------------------------------------------------------------------
# the stock groups, new and frozen


def _cyclic_before(n):
    return TupleGroupTable([[(a + b) % n for b in range(n)] for a in range(n)])


STOCK = {f"cyclic:{n}": (lambda n=n: cyclic_group(n), lambda n=n: _cyclic_before(n)) for n in range(1, 9)}
STOCK.update({f"dihedral:{n}": (lambda n=n: dihedral_group(n), lambda n=n: _dihedral_before(n)) for n in range(1, 7)})
STOCK["quaternion"] = (quaternion_group, _quaternion_before)
STOCK.update({f"symmetric:{n}": (lambda n=n: symmetric_group(n), lambda n=n: _symmetric_before(n)) for n in range(1, 5)})
STOCK.update(
    {f"alternating:{n}": (lambda n=n: alternating_group(n), lambda n=n: _alternating_before(n)) for n in range(1, 6)}
)

_CACHE = {}


def _pair(name):
    """(new GroupTable, frozen TupleGroupTable) of a stock group."""
    if name not in _CACHE:
        new, before = STOCK[name]
        _CACHE[name] = new(), before()
    return _CACHE[name]


def _as_lists(table):
    return [list(row) for row in table.mul]


@pytest.mark.parametrize("name", sorted(STOCK))
def test_stock_tables_and_algebra_match_the_tuple_code(name):
    group, before = _pair(name)
    assert group.mul.dtype == np.int64 and group.inverse.dtype == np.int64
    assert group.mul.tolist() == _as_lists(before)
    assert (group.size, group.identity) == (before.size, before.identity)
    assert group.inverse.tolist() == list(before.inverse)
    points = range(group.size)
    assert group.orders.tolist() == [before.element_order(x) for x in points]
    assert [group.element_order(x) for x in points] == [before.element_order(x) for x in points]
    whole = list(points)
    assert group.abelian_invariants_of_subgroup(whole) == before.abelian_invariants_of_subgroup(whole)
    for order in set(group.orders.tolist()) | {None}:
        expected = next(
            (x for x in points if x != before.identity and (order is None or before.element_order(x) == order)), None
        )
        if expected is None:
            with pytest.raises(ValueError):
                find_element(group, order)
        else:
            assert find_element(group, order) == expected
    for x in points:
        assert Permutation(tuple(group.mul[:, x].tolist())) == before.right_translation(x)
        assert group.subgroup_closure([x]) == before.subgroup_closure([x])
        closure = group.normal_closure_of(x)
        assert closure == before.normal_closure_of(x)
        assert group.commutator_of_subgroup(closure) == before.commutator_of_subgroup(closure)
        assert group.commutator_of_subgroup(closure, whole) == before.commutator_of_subgroup(closure, whole)
        assert group.subgroup(closure).mul.tolist() == _as_lists(before.subgroup(closure))
        assert group.quotient(closure).mul.tolist() == _as_lists(before.quotient(closure))
        assert group.abelian_invariants_of_subgroup(closure) == before.abelian_invariants_of_subgroup(closure)
        quotient, quotient_before = group.quotient(closure), before.quotient(closure)
        if quotient.commutator_of_subgroup(range(quotient.size)) == [quotient.identity]:
            assert quotient.abelian_invariants() == quotient_before.abelian_invariants()
    assert all(type(v) is int for v in group.normal_closure_of(group.size - 1))
    last = group.size - 1
    for subset in ([], [group.identity], [last] * 3, [last, group.identity, last, last // 2, last // 2]):
        assert group.subgroup_closure(subset) == before.subgroup_closure(subset)


def test_dihedral_tables_match_the_product_loop():
    for n in range(1, 65):
        assert dihedral_group(n).mul.tolist() == _as_lists(_dihedral_before(n)), n


@pytest.mark.parametrize("name", sorted(STOCK))
def test_every_inner_sigma_matches_the_tuple_code(name):
    """Every sigma = conjugation by g: its images, the quandle table, the
    recovered conjugator, and the reports of the inner-case checks and of
    ``verify_p_equals_dis``.  Conjugate g give isomorphic quandles, so on
    A5 the slow loops of the last check run on one g per class."""
    group, before = _pair(name)
    leaders = {c[0] for c in _conjugacy_classes(before)}
    for g in range(group.size):
        sigma = conjugation_automorphism(group, g)
        assert sigma == [before.conj(x, g) for x in range(group.size)]
        assert all(type(v) is int for v in sigma)
        q = galex_finite(group, sigma)
        assert q.table.tolist() == _galex_table_before(before, sigma)
        assert q.sigma_is_conjugation_by() == _conjugation_by_before(before, sigma)
        assert q.identity_component() == _identity_component_before(before, g)
        assert verify_inner_case_commutator(group, g) == _inner_commutator_before(before, g)
        assert verify_inner_case_identity_component(group, g) == _identity_component_check_before(before, g)
        if group.size <= 24 or g in leaders:
            assert verify_p_equals_dis(q) == _p_equals_dis_before(q, before)


def test_orders_stop_on_a_table_that_is_not_associative():
    """Identity and inverses but no associativity: the powers of 1 and 2
    never reach 0, so they get order 0 after |G| steps instead of a walk
    without end, and the inner-case check by the identity reports as
    the loops did."""
    mul = [[0, 1, 2], [1, 1, 0], [2, 0, 2]]
    table = GroupTable(mul)
    assert table.orders.tolist() == [1, 0, 0]
    assert verify_inner_case_commutator(table, 0) == _inner_commutator_before(TupleGroupTable(mul), 0)


def _conjugacy_classes(before):
    classes = []
    for x in range(before.size):
        if not any(x in c for c in classes):
            classes.append(sorted({before.conj(x, by) for by in range(before.size)}))
    return classes


@pytest.mark.parametrize("name", ["symmetric:3", "symmetric:4", "dihedral:4", "quaternion", "alternating:4"])
def test_conjugation_quandles_match_the_tuple_code(name):
    """Unions of conjugacy classes and the whole group: the same table and
    the same ``verify_dis_properties`` reports."""
    group, before = _pair(name)
    classes = _conjugacy_classes(before)
    subsets = [sorted(sum(classes[: k + 1], [])) for k in range(len(classes))] + [c for c in classes if len(c) > 1]
    for subset in subsets:
        assert group.conjugation_closed(subset) is None
        q = conjugation_quandle(group, subset)
        assert q.table.tolist() == _conjugation_table_before(before, subset)
        assert verify_dis_properties(q) == _dis_properties_before(q)


@pytest.mark.parametrize("name", ["symmetric:3", "symmetric:4", "dihedral:4", "quaternion"])
def test_conjugation_closure_witness_on_every_pair(name):
    """The first failure x-major, in subset order, on every ordered pair."""
    group, before = _pair(name)
    for x in range(group.size):
        for y in range(group.size):
            assert group.conjugation_closed([x, y]) == before.conjugation_closed([x, y])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(STOCK)), st.data())
def test_drawn_subsets_match_the_tuple_code(name, data):
    """A drawn subset: the same conjugation-closure witness, and when it is
    closed, the same quandle table and dis-properties reports."""
    group, before = _pair(name)
    subset = data.draw(st.lists(st.integers(0, group.size - 1), min_size=1, max_size=8))
    if data.draw(st.booleans()):
        subset = sorted({before.conj(x, by) for x in subset for by in range(group.size)})
    distinct = list(dict.fromkeys(subset))
    bad = before.conjugation_closed(distinct)
    assert group.conjugation_closed(distinct) == bad
    if bad is not None:
        with pytest.raises(ConstructionError) as err:
            conjugation_quandle(group, subset)
        assert err.value.witness == bad
        return
    q = conjugation_quandle(group, subset)
    assert q.subset == distinct
    assert q.table.tolist() == _conjugation_table_before(before, distinct)
    if q.size <= 12:
        assert verify_dis_properties(q) == _dis_properties_before(q)


def test_failing_reports_carry_the_witnesses_of_the_tuple_code(monkeypatch):
    """Hand the checks components, tables and displacement groups that are
    not what the theorems say, so that every branch of the array code
    reports a witness, and compare each report with the loops'."""
    kinds = set()
    s4, s4_before = _pair("symmetric:4")
    for g in (1, 5, 9):
        q = galex_finite(s4, conjugation_automorphism(s4, g))
        component = q.identity_component()
        others = [x for x in range(s4.size) if x not in component]
        fakes = [
            component[1:],  # no identity
            [],  # closed, but no subgroup
            component + others[:1],  # not closed
            [x for x in range(s4.size) if s4.orders[x] <= 2],  # the involutions
            list(range(s4.size)),  # the whole group: translations outside Dis
            [0],
        ]
        for fake in fakes:
            monkeypatch.setattr(q, "identity_component", lambda fake=fake: sorted(fake))
            report = verify_p_equals_dis(q)
            assert report == _p_equals_dis_before(q, s4_before)
            kinds.update(report.witness or {})
    # with the true component and displacement group, a column y of the
    # table replaced by z -> s_0(z h) keeps every s_x s_y^-1 a right
    # translation, by an element outside the component when h is
    for g in (1, 5):
        base = galex_finite(s4, conjugation_automorphism(s4, g))
        component, dis = base.identity_component(), base.displacement_group()
        h = next(x for x in range(s4.size) if x not in component)
        for y in (1, 7):
            table = base.table.copy()
            table[:, y] = base.table[s4.mul[:, h], 0]
            q = FiniteQuandle(table, validate=False)
            q.group = s4
            q.identity_component = lambda component=component: component
            q.displacement_group = lambda dis=dis: dis
            report = verify_p_equals_dis(q)
            assert report == _p_equals_dis_before(q, s4_before)
            assert "generator_target_outside" in report.witness
    # with the true component and displacement group, a table with two
    # entries of one column swapped has products s_x s_y^-1 that are no
    # right translations, so the generator check is the one that fails
    for g in (1, 5):
        base = galex_finite(s4, conjugation_automorphism(s4, g))
        component, dis = base.identity_component(), base.displacement_group()
        for y in range(0, s4.size, 5):
            for a, b in ((0, 1), (2, 7), (5, 19)):
                table = base.table.copy()
                table[[a, b], y] = table[[b, a], y]
                q = FiniteQuandle(table, validate=False)
                q.group = s4
                q.identity_component = lambda component=component: component
                q.displacement_group = lambda dis=dis: dis
                report = verify_p_equals_dis(q)
                assert report == _p_equals_dis_before(q, s4_before)
                kinds.update(report.witness or {})
    assert kinds == {
        "not_closed", "not_subgroup", "translation_not_in_dis", "dis_not_translation",
        "generator_target_outside", "generator_mismatch",
    }

    # a displacement group that is not normal in the inner group: the
    # symmetries of two transpositions generate a point stabilizer S3 of
    # Inn = S4, so several elements fail under several conjugators
    transpositions = [x for x in range(s4.size) if s4.orders[x] == 2 and len(s4.normal_closure_of(x)) == 24]
    q = conjugation_quandle(s4, transpositions)
    generators = q.inner_generators()[:2]
    monkeypatch.setattr(q, "displacement_group", lambda: PermGroup(generators))
    reports = verify_dis_properties(q)
    assert reports == _dis_properties_before(q)
    assert not reports[0].passed and reports[0].witness["conjugator"]


def _transpositions(n):
    """The conjugation quandle of S_n on its n(n-1)/2 transpositions, whose
    Inn is S_n and Dis is A_n."""
    moved = (np.array(list(permutations(range(n)))) != np.arange(n)).sum(axis=1)
    return conjugation_quandle(symmetric_group(n), np.flatnonzero(moved == 2).tolist())


@pytest.mark.parametrize("n", [4, 5, 6])
def test_transposition_quandles_match_the_tuple_code(n):
    q = _transpositions(n)
    reports = verify_dis_properties(q)
    assert reports == _dis_properties_before(q)
    assert all(r.passed for r in reports) and reports[1].details == {"quotient_order": 2}


def test_dis_properties_hold_no_table_of_inn():
    """|Inn| = 720 on the transpositions of S_6: the check peaks below one
    720 x 720 int64 table, the Cayley table of Inn it once built."""
    q = _transpositions(6)
    reports, peak = traced_peak(lambda: verify_dis_properties(q))
    assert all(r.passed for r in reports)
    assert peak < 720 * 720 * 8


def test_a_displacement_group_that_is_not_normal_fails_the_first_two_reports(monkeypatch):
    """Dis replaced by a subgroup of order 3 of Inn = S_4, on the 6
    transpositions: its cosets form no group, so the cyclic check fails
    with their number 24/3 = 8 instead of tabulating a quotient, and the
    normality witness is the first failure conjugator-major, also when
    the scan for it takes one conjugator per block."""
    q = _transpositions(4)
    inn = q.inner_group()
    dis = PermGroup([("x", Permutation(inn.images[12]))])
    monkeypatch.setattr(q, "displacement_group", lambda: dis)
    for cells in (perms.CAYLEY_CELLS, 1):
        monkeypatch.setattr(perms, "CAYLEY_CELLS", cells)
        normal, cyclic, zero_sum, orbits_equal = verify_dis_properties(q)
        assert (normal.passed, normal.witness) == (False, _first_unnormalized(inn, dis))
        assert (cyclic.passed, cyclic.witness, cyclic.details) == (False, {"quotient_order": 8}, {"quotient_order": 8})
        assert not zero_sum.passed and not orbits_equal.passed


def _first_unnormalized(inn, dis):
    """The first (g, d) conjugator-major with g^-1 d g outside Dis, keyed
    as the normality report keys it, or None: the loop over Permutations."""
    dis_set = set(elements(dis))
    return next(
        (
            {"conjugator": g.key(), "element": d.key()}
            for g in elements(inn)
            for d in elements(dis)
            if g.inverse() * d * g not in dis_set
        ),
        None,
    )


@pytest.mark.parametrize(
    "dis", [[(1, 0, 2, 3)], [(1, 2, 3, 0)], [(1, 0, 3, 2), (2, 3, 0, 1)], [(0, 1, 3, 2), (0, 2, 1, 3)]], ids=str
)
def test_normality_is_decided_at_every_generator(monkeypatch, dis):
    """Inn replaced by S_4 on 4 points, generated by a = (0 1) and
    b = (0 1 2 3), in both orders: <(0 1)> is normalized by a alone,
    <(0 1 2 3)> by b alone, and the Klein group by both, so a check that
    skipped either generator would pass a subgroup that is not normal.
    The stabilizer of 0 fails first at b, of order 4, where b^-1 d b and
    b d b^-1 leave it at different first elements d."""
    q = dihedral_quandle(4)
    a, b = ("a", Permutation((1, 0, 2, 3))), ("b", Permutation((1, 2, 3, 0)))
    dis = PermGroup([(f"d{i}", Permutation(p)) for i, p in enumerate(dis)])
    monkeypatch.setattr(q, "displacement_group", lambda: dis)
    for generators in ([a, b], [b, a]):
        inn = PermGroup(generators)
        monkeypatch.setattr(q, "inner_group", lambda inn=inn: inn)
        normal = verify_dis_properties(q)[0]
        witness = _first_unnormalized(inn, dis)
        assert (normal.passed, normal.witness) == (witness is None, witness)
        assert normal.details == {"inn_order": 24, "dis_order": dis.order}


def _exact_dis_reports(q):
    """``verify_dis_properties`` of q, equal to the bounded search's; a
    passing zero-sum report also counts Dis as |Inn| / |Inn/Dis|."""
    reports = verify_dis_properties(q)
    assert reports == _dis_properties_before(q)
    normal, cyclic, zero_sum, _ = reports
    if zero_sum.passed:
        assert cyclic.details["quotient_order"] * zero_sum.details["zero_sum_count"] == normal.details["inn_order"]
    return reports


def _class_unions(name):
    group, before = _pair(name)
    classes = _conjugacy_classes(before)
    for r in range(1, len(classes) + 1):
        for chosen in combinations(classes, r):
            yield conjugation_quandle(group, sorted(sum(chosen, [])))


def _disjoint_union(a, b):
    """a and b side by side, each acting trivially on the other: an
    element of Inn pairs an element of Inn(a) with one of Inn(b), and
    generators of coprime orders give loops of coprime weights."""
    n, m = a.size, b.size
    table = np.empty((n + m, n + m), dtype=np.int64)
    table[:n, :n], table[n:, n:] = a.table, b.table + n
    table[:n, n:], table[n:, :n] = np.arange(n)[:, None], np.arange(n, n + m)[:, None]
    return FiniteQuandle(table)


def _doubling(n):
    """GAlex(Z/n, x -> 2x), where x ◁ y = 2x - y."""
    return galex_finite(cyclic_group(n), [2 * x % n for x in range(n)])


EXACTNESS_CASES = {
    "dihedral-3-40": lambda: (dihedral_quandle(n) for n in range(3, 41)),
    "disjoint-unions": lambda: (
        _disjoint_union(a, b)
        for a, b in permutations([_doubling(7), _doubling(5), dihedral_quandle(3), FiniteQuandle([[0]])], 2)
        if a.size * b.size < 35
    ),
    "s4-class-unions": lambda: _class_unions("symmetric:4"),
    "trivial-1-5": lambda: (FiniteQuandle([[x] * n for x in range(n)]) for n in range(1, 6)),
}


@pytest.mark.parametrize("name", sorted(EXACTNESS_CASES))
def test_zero_sum_words_are_decided_exactly(name):
    """The exact zero-sum rule gives the reports of the bounded search."""
    for q in EXACTNESS_CASES[name]():
        assert all(r.passed for r in _exact_dis_reports(q))


@pytest.mark.parametrize("n,k", [(7, 3), (5, 4)])
def test_zero_sum_words_of_index_above_two(n, k):
    """GAlex(Z/n, x -> 2x), where 2 has order k mod n: Inn is the affine
    maps x -> 2^i x + c and Dis its translations, of index k."""
    q = _doubling(n)
    normal, cyclic, zero_sum, orbits_equal = _exact_dis_reports(q)
    assert normal.passed and cyclic.passed and zero_sum.passed and orbits_equal.passed
    assert (normal.details["inn_order"], cyclic.details["quotient_order"]) == (n * k, k)
    assert zero_sum.details == {"word_length_bound": 2 * n * k, "zero_sum_count": n}
