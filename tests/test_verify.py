import dataclasses
import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from support import depths, elements, rewired

from quandles import verify
from quandles.families import (
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
from quandles.groups import GroupTable
from quandles.perms import PermGroup, Permutation, first_fixed_point
from quandles.quandle import _automorphism_defect
from quandles.schreier import SchreierAction, build_ball, cayley_action
from quandles.verify import (
    TheoremReport,
    verify_dis_properties,
    verify_free_action_isometry,
    verify_free_transitive_reconstruction,
    verify_inner_case_commutator,
    verify_inner_case_identity_component,
    verify_p_equals_dis,
)

ROT90 = [[0, -1], [1, 0]]


def test_report_shape():
    rep = TheoremReport("x", "y", True, None, {"k": 1})
    line = json.loads(rep.to_json_line())
    assert line == {"statement": "x", "instance": "y", "pass": True, "witness": None, "details": {"k": 1}}
    with pytest.raises(ValueError):
        TheoremReport("x", "y", False, None, {})  # failing report needs a witness


def test_dis_properties_dihedral():
    for n in (2, 3, 4, 6, 9, 12):
        reports = verify_dis_properties(dihedral_quandle(n))
        assert [r.statement for r in reports] == [
            "dis-normal-in-inn",
            "inn-mod-dis-cyclic",
            "dis-equals-zero-sum-words",
            "inn-dis-orbits-equal",
        ]
        assert all(r.passed for r in reports), n


def test_dis_properties_conjugation():
    q = conjugation_quandle(symmetric_group(3), [1, 2, 5])
    assert all(r.passed for r in verify_dis_properties(q))
    full = conjugation_quandle(symmetric_group(3))
    assert all(r.passed for r in verify_dis_properties(full))


def test_dis_properties_values():
    reports = {r.statement: r for r in verify_dis_properties(dihedral_quandle(5))}
    assert reports["dis-normal-in-inn"].details == {"inn_order": 10, "dis_order": 5}
    assert reports["inn-mod-dis-cyclic"].details["quotient_order"] == 2
    assert reports["dis-equals-zero-sum-words"].details["zero_sum_count"] == 5
    assert reports["inn-dis-orbits-equal"].details["component_count"] == 1


def _rows(perms):
    """The Permutations ``perms`` as a (k x n) array of image rows."""
    return np.array([p.images for p in perms], dtype=np.int64)


def test_reconstruction_r3():
    q = dihedral_quandle(3)
    rep = verify_free_transitive_reconstruction(q, q.displacement_group().images)
    assert rep.passed
    assert rep.details["sigma"] == [0, 2, 1]
    assert rep.details["group_order"] == 3


def test_reconstruction_conjugation_quandle():
    q = conjugation_quandle(symmetric_group(3), [1, 2, 5])
    rep = verify_free_transitive_reconstruction(q, q.displacement_group().images)
    assert rep.passed


def test_reconstruction_hypothesis_failures():
    q4 = dihedral_quandle(4)
    # Dis(R_4) has two orbits, so transitivity fails
    rep = verify_free_transitive_reconstruction(q4, q4.displacement_group().images)
    assert not rep.passed
    assert rep.witness["failed_hypothesis"] == "transitive"
    # the full inner group of R_3 is transitive but not free
    q3 = dihedral_quandle(3)
    rep = verify_free_transitive_reconstruction(q3, q3.inner_group().images)
    assert not rep.passed
    assert rep.witness["failed_hypothesis"] == "free"


def _first_non_normal_loop(q, subgroup):
    """The original normality scan: every element h of the group generated
    by the point symmetries and the supplied elements, in enumeration
    order; the first (h, g) with h^-1 g h outside the supplied set."""
    ambient = PermGroup(q.inner_generators() + [(f"g{i}", p) for i, p in enumerate(subgroup)])
    sub_set = frozenset(subgroup)
    for h in elements(ambient):
        for g in subgroup:
            if h.inverse() * g * h not in sub_set:
                return {"failed_hypothesis": "normal-in-ambient", "conjugator": h.key(), "element": g.key()}
    return None


def test_reconstruction_normality_matches_element_scan():
    """Checking normality at the generators gives the same verdict and
    witness as the scan over every element of the ambient group."""
    rng = random.Random(5)
    cases = []
    for n in (4, 5, 6, 8, 9):
        q = dihedral_quandle(n)
        # x -> a x + b with a a unit: the affine automorphisms of R_n
        affine = [
            Permutation(tuple((a * x + b) % n for x in range(n)))
            for a in range(1, n) if math.gcd(a, n) == 1 for b in range(n)
        ]
        cases.append((q, elements(q.displacement_group())))
        cases += [(q, rng.sample(affine, rng.randrange(1, 5))) for _ in range(12)]
    conj = conjugation_quandle(symmetric_group(3), [1, 2, 5])
    inner = elements(conj.inner_group())
    cases += [(conj, rng.sample(inner, rng.randrange(1, 4))) for _ in range(6)]
    non_normal = 0
    for q, subgroup in cases:
        expected = _first_non_normal_loop(q, subgroup)
        rep = verify_free_transitive_reconstruction(q, _rows(subgroup))
        if expected is None:
            assert rep.passed or rep.witness["failed_hypothesis"] != "normal-in-ambient"
        else:
            non_normal += 1
            assert not rep.passed
            assert rep.witness == expected
            assert rep.details == {"ambient": f"<point symmetries + {len(subgroup)} supplied>"}
        # and the whole report is the one the product loops gave
        before = _reconstruction_before_arrays(q, subgroup)
        if before == "KeyError":
            assert rep.witness["failed_hypothesis"] == "closed-under-products"
        else:
            assert rep == before
    assert 0 < non_normal < len(cases)


def _reconstruction_before_arrays(q, subgroup, basepoint=0, instance=""):
    """The reconstruction check as loops over Permutation products, as it
    was before it ran on image arrays.  A set that passes the free check
    but is not closed under products made its table lookup fail; that is
    returned as the string "KeyError"."""
    instance = instance or repr(q)
    statement = "free-transitive-reconstruction"
    subgroup = list(subgroup)
    ambient = {"ambient": f"<point symmetries + {len(subgroup)} supplied>"}
    sub_set = frozenset(subgroup)
    for h in [s for _, s in q.inner_generators()] + subgroup:
        for g in subgroup:
            if h.inverse() * g * h not in sub_set:
                witness = {"failed_hypothesis": "normal-in-ambient", "conjugator": h.key(), "element": g.key()}
                return TheoremReport(statement, instance, False, witness, ambient)
    image = {g.act(basepoint) for g in subgroup}
    if image != set(range(q.size)):
        witness = {"failed_hypothesis": "transitive", "orbit_of_basepoint": sorted(image)}
        return TheoremReport(statement, instance, False, witness, ambient)
    for g in subgroup:
        fixed = [x for x in range(q.size) if not g.is_identity() and g.act(x) == x]
        if fixed:
            witness = {"failed_hypothesis": "free", "element": g.key(), "fixed_point": fixed[0]}
            return TheoremReport(statement, instance, False, witness, ambient)
    elements = sorted(subgroup, key=lambda p: p.images.tolist())
    index = {p: i for i, p in enumerate(elements)}
    try:
        mul = [[index[a * b] for b in elements] for a in elements]
    except KeyError:
        return "KeyError"
    group = GroupTable(mul)
    s0 = q.symmetry(basepoint)
    sigma = []
    for p in elements:
        conj = s0.inverse() * p * s0
        if conj not in index:
            witness = {"failed_hypothesis": "normal-under-basepoint-symmetry", "element": p.key()}
            return TheoremReport(statement, instance, False, witness, ambient)
        sigma.append(index[conj])
    rebuilt = galex_finite(group, sigma)
    f = [p.act(basepoint) for p in elements]
    for a in range(len(elements)):
        for b in range(len(elements)):
            if f[rebuilt.op(a, b)] != q.op(f[a], f[b]):
                return TheoremReport(statement, instance, False, {"isomorphism_fails_at": (a, b)}, ambient)
    details = dict(ambient, group_order=group.size, sigma=sigma, basepoint_map=f)
    return TheoremReport(statement, instance, True, None, details)


def _affine_maps(n):
    """x -> a x + b with a a unit: the affine automorphisms of R_n."""
    return [
        Permutation(tuple((a * x + b) % n for x in range(n)))
        for a in range(1, n) if math.gcd(a, n) == 1 for b in range(n)
    ]


def test_reconstruction_reports_match_the_product_loops():
    """Whole reports, passing and failing at each reachable hypothesis,
    equal those of the loops over Permutation products."""
    cases = []
    for n in (3, 4, 5, 7, 9, 12, 15, 21):
        q = dihedral_quandle(n)
        cases.append((q, elements(q.displacement_group())))
        cases.append((q, elements(q.inner_group())))
    s4 = symmetric_group(4)
    transpositions = sorted({s4.conj(1, h) for h in range(s4.size)})
    conj = conjugation_quandle(s4, transpositions)
    cases.append((conj, elements(conj.displacement_group())))
    cases.append((conj, elements(conj.inner_group())))
    z5 = galex_finite(cyclic_group(5), [(2 * x) % 5 for x in range(5)])
    cases.append((z5, elements(z5.displacement_group())))
    # the supplied order only matters to witnesses
    rng = random.Random(9)
    for q, subgroup in list(cases):
        cases.append((q, rng.sample(subgroup, len(subgroup))))
    for n in (6, 8, 12):
        affine = _affine_maps(n)
        cases += [(dihedral_quandle(n), rng.sample(affine, rng.randrange(1, 2 * n))) for _ in range(40)]
    cases.append((dihedral_quandle(8), _r8_not_closed()))

    outcomes = set()
    for q, subgroup in cases:
        expected = _reconstruction_before_arrays(q, subgroup)
        rep = verify_free_transitive_reconstruction(q, _rows(subgroup))
        if expected == "KeyError":
            assert rep.witness["failed_hypothesis"] == "closed-under-products"
        else:
            assert rep == expected
        outcomes.add("pass" if rep.passed else rep.witness["failed_hypothesis"])
    # the loops' normal-under-basepoint-symmetry check is never reached:
    # s_x0 is one of the conjugators of the ambient check before it
    assert outcomes == {"pass", "normal-in-ambient", "transitive", "free", "closed-under-products"}


def _r8_not_closed():
    """On R_8, translations by 0, 1, 3, 4, 5, 7 together with 5x + 2 and
    5x + 6 are normal, transitive and free, but x + 1 composed with itself
    is x + 2, which is missing."""
    supplied = [Permutation(tuple((x + b) % 8 for x in range(8))) for b in (0, 1, 3, 4, 5, 7)]
    return supplied + [Permutation(tuple((5 * x + b) % 8 for x in range(8))) for b in (2, 6)]


def test_reconstruction_fails_on_a_set_not_closed_under_products():
    q = dihedral_quandle(8)
    assert _reconstruction_before_arrays(q, _r8_not_closed()) == "KeyError"
    rep = verify_free_transitive_reconstruction(q, _rows(_r8_not_closed()), instance="r8")
    assert rep == TheoremReport(
        "free-transitive-reconstruction",
        "r8",
        False,
        {
            "failed_hypothesis": "closed-under-products",
            "left": "[1,2,3,4,5,6,7,0]",
            "right": "[1,2,3,4,5,6,7,0]",
        },
        {"ambient": "<point symmetries + 8 supplied>"},
    )


def _reconstruction_oracle(q, subgroup, basepoint):
    """The report of the frozen loops, on a supplied list that may repeat
    elements and hold non-automorphisms.  The ValueError is the first
    row, in supplied order, that is no automorphism.  A repeat only
    counts in the ambient description, since each witness is a first
    failure over the supplied list or over the distinct elements; and a
    set not closed under products gets the first product outside it,
    row-major over the distinct elements sorted by their images."""
    for p in subgroup:
        at = q.is_automorphism(p)
        if at is not None:
            raise ValueError(f"subgroup element {p.key()} is not an automorphism at {at}")
    distinct = list(dict.fromkeys(subgroup))
    ambient = {"ambient": f"<point symmetries + {len(subgroup)} supplied>"}
    expected = _reconstruction_before_arrays(q, distinct, basepoint)
    if expected == "KeyError":
        ordered = sorted(distinct, key=lambda p: p.images.tolist())
        a, b = next((a, b) for a in ordered for b in ordered if a * b not in set(distinct))
        witness = {"failed_hypothesis": "closed-under-products", "left": a.key(), "right": b.key()}
        return TheoremReport("free-transitive-reconstruction", repr(q), False, witness, ambient)
    return dataclasses.replace(expected, details={**expected.details, **ambient})


def _drawn_supplied_sets(rng, q, count):
    """``count`` (supplied list, basepoint) pairs for the reconstruction
    check on q: Dis, Inn, a subset of either, Dis with a few Inn rows, a
    subgroup of Inn (often not normal), the cyclic group of a random
    permutation (often of non-automorphisms), and on R_n the rows
    x -> x + b, x - b and every x -> a x + c, which the point symmetries
    normalize but x -> a x + c does not when a b is not +-b.  Each list
    is shuffled, with up to two repeats."""
    dis, inn, n = elements(q.displacement_group()), elements(q.inner_group()), q.size
    units = [a for a in range(2, n - 1) if math.gcd(a, n) == 1] if q.backend_id == "finite" else []
    for _ in range(count):
        kind = rng.randrange(8 if units else 7)
        if kind == 0:
            supplied = list(dis)
        elif kind == 1:
            supplied = list(inn)
        elif kind == 2:
            supplied = rng.sample(dis, rng.randrange(1, len(dis) + 1))
        elif kind == 3:
            supplied = rng.sample(inn, rng.randrange(1, len(inn) + 1))
        elif kind == 4:
            supplied = dis + rng.sample(inn, rng.randrange(1, 4))
        elif kind == 5:
            supplied = elements(PermGroup([(f"h{i}", h) for i, h in enumerate(rng.sample(inn, rng.randrange(1, 3)))]))
        elif kind == 6:
            supplied = elements(PermGroup([("p", Permutation(rng.sample(range(n), n)))]))
        else:
            a = rng.choice(units)
            b = rng.choice([b for b in range(1, n) if (a - 1) * b % n and (a + 1) * b % n])
            supplied = [Permutation([(x + b) % n for x in range(n)]), Permutation([(x - b) % n for x in range(n)])]
            supplied += [Permutation([(a * x + c) % n for x in range(n)]) for c in range(n)]
        supplied += rng.choices(supplied, k=rng.randrange(3))
        rng.shuffle(supplied)
        yield supplied, rng.randrange(n)


def test_reconstruction_matches_the_product_loops_on_drawn_sets():
    """Reports and ValueErrors against the frozen loops on 320 drawn
    supplied lists, and on the closed ones the normality verdict against
    sympy's: S is normal in <point symmetries, S>."""
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    SymPerm, SymGroup = sympy_comb.Permutation, sympy_comb.PermutationGroup
    s3, s4, a4 = symmetric_group(3), symmetric_group(4), alternating_group(4)
    quandles = [dihedral_quandle(n) for n in (4, 5, 9, 15)]
    quandles += [conjugation_quandle(g) for g in (s3, s4, a4)]
    quandles.append(galex_finite(cyclic_group(7), [(3 * x) % 7 for x in range(7)]))
    rng = random.Random(30)
    outcomes = Counter()
    for q in quandles:
        symmetries = {s.key() for _, s in q.inner_generators()}
        for supplied, basepoint in _drawn_supplied_sets(rng, q, 40):
            try:
                expected = _reconstruction_oracle(q, supplied, basepoint)
            except ValueError as error:
                with pytest.raises(ValueError) as caught:
                    verify_free_transitive_reconstruction(q, _rows(supplied), basepoint)
                assert str(caught.value) == str(error)
                outcomes["ValueError"] += 1
                continue
            report = verify_free_transitive_reconstruction(q, _rows(supplied), basepoint)
            assert report == expected
            failed = None if report.passed else report.witness["failed_hypothesis"]
            outcomes[failed or "pass"] += 1
            if failed == "normal-in-ambient" and report.witness["conjugator"] not in symmetries:
                outcomes["supplied conjugator"] += 1
            distinct = set(supplied)
            if len(PermGroup([(f"g{i}", p) for i, p in enumerate(distinct)]).images) == len(distinct):
                sub = SymGroup([SymPerm(p.images.tolist()) for p in distinct])
                ambient = SymGroup([SymPerm(p.images.tolist()) for p in distinct | {s for _, s in q.inner_generators()}])
                assert sub.is_normal(ambient) is (failed != "normal-in-ambient")
                outcomes["closed, not normal" if failed == "normal-in-ambient" else "closed, normal"] += 1
    assert sum(outcomes[k] for k in ("ValueError", "pass", "normal-in-ambient", "transitive", "free",
                                     "closed-under-products")) == 320
    for outcome in ("ValueError", "pass", "normal-in-ambient", "transitive", "free", "supplied conjugator",
                    "closed, not normal", "closed, normal"):
        assert outcomes[outcome] > 0, (outcome, outcomes)


def test_reconstruction_checks_automorphisms_at_the_kept_generators(monkeypatch):
    """Dis(R_301) is cyclic, and its first non-identity row generates it:
    one automorphism check, where every supplied row had one."""
    calls = []

    def counted(table, row):
        calls.append(row)
        return _automorphism_defect(table, row)

    monkeypatch.setattr(verify, "_automorphism_defect", counted)
    q = dihedral_quandle(301)
    report = verify_free_transitive_reconstruction(q, q.displacement_group().images)
    assert report.passed and report.details["group_order"] == 301
    assert len(calls) == 1


def test_reconstruction_rejects_non_automorphisms():
    # every permutation preserves R_3, so use R_4 where a bare swap does not
    q = dihedral_quandle(4)
    bad = Permutation((1, 0, 2, 3))
    at = q.is_automorphism(bad)
    assert at is not None
    with pytest.raises(ValueError, match=re.escape(f"subgroup element [1,0,2,3] is not an automorphism at {at}")):
        verify_free_transitive_reconstruction(q, [[0, 1, 2, 3], [1, 0, 2, 3]])


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[0, 1, 2], [1, 2, 0]], "rows must have 4 entries"),  # an IndexError once
        ([[0, 1, 2, 3, 4]], "rows must have 4 entries"),
        ([0, 1, 2, 3], "2-d array of integers"),
        ([], "2-d array of integers"),
        ([[0, 1, 2, 3], [0, 0, 2, 3]], r"row 1 is not a permutation of 0\.\.3: \[0, 0, 2, 3\]"),
        ([[0, 1, 2, 4]], "row 0 is not a permutation"),
        ([[0, -1, 2, 3]], "row 0 is not a permutation"),
        ([[0.0, 1.0, 2.0, 3.0]], "2-d array of integers"),
        ([[0, 1, 2, True]], "2-d array of integers"),
        (np.array([["0", "1", "2", "3"]]), "2-d array of integers"),
    ],
    ids=["narrow", "wide", "1-d", "bare-empty", "repeat", "too-large", "negative", "float", "bool", "str"],
)
def test_reconstruction_rejects_malformed_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        verify_free_transitive_reconstruction(dihedral_quandle(4), rows)


def test_reconstruction_of_no_rows_fails_transitivity():
    q = dihedral_quandle(4)
    rep = verify_free_transitive_reconstruction(q, np.empty((0, 4), dtype=np.int64), instance="r4")
    assert rep == TheoremReport(
        "free-transitive-reconstruction",
        "r4",
        False,
        {"failed_hypothesis": "transitive", "orbit_of_basepoint": []},
        {"ambient": "<point symmetries + 0 supplied>"},
    )


@pytest.mark.parametrize("basepoint", [-1, 5, 6, 1.5, 2.0, True, "1"])
def test_reconstruction_rejects_a_basepoint_off_the_quandle(basepoint):
    """A basepoint of 5 or more was an IndexError, and -1 was read as 4;
    2.0 was an IndexError and True a ValueError from numpy."""
    q = dihedral_quandle(5)
    dis = q.displacement_group().images
    assert verify_free_transitive_reconstruction(q, dis, basepoint=4).details["basepoint_map"] == [4, 0, 1, 2, 3]
    with pytest.raises(ValueError, match=re.escape(f"basepoint {basepoint!r} is not a point")):
        verify_free_transitive_reconstruction(q, dis, basepoint=basepoint)


@pytest.mark.parametrize("basepoint", [-1, 5, 1.5, 2.0, True, "1"])
def test_free_action_isometry_rejects_a_basepoint_off_the_quandle(basepoint):
    """This was a bare StopIteration from the search for its component,
    and 2.0 and True failed inside numpy."""
    with pytest.raises(ValueError, match=re.escape(f"basepoint {basepoint!r} is not a point")):
        verify_free_action_isometry(dihedral_quandle(5), basepoint, 3)


P_INSTANCES = [
    ("z3-negation", lambda: galex_finite(cyclic_group(3), [0, 2, 1])),
    ("s3-conj-transposition", lambda: galex_finite(
        symmetric_group(3), conjugation_automorphism(symmetric_group(3), 1))),
    ("d4-conj-rotation", lambda: galex_finite(
        dihedral_group(4), conjugation_automorphism(dihedral_group(4), 1))),
    ("a4-conj-double-transposition", lambda: galex_finite(
        alternating_group(4),
        conjugation_automorphism(alternating_group(4), find_element(alternating_group(4), 2)))),
]


@pytest.mark.parametrize("name,make", P_INSTANCES)
def test_p_equals_dis(name, make):
    rep = verify_p_equals_dis(make(), instance=name)
    assert rep.passed, rep.witness


def test_p_equals_dis_component_sizes():
    q = galex_finite(dihedral_group(4), conjugation_automorphism(dihedral_group(4), 1))
    rep = verify_p_equals_dis(q)
    assert rep.details["component_size"] == 2
    assert rep.details["dis_order"] == 2


def test_p_equals_dis_rejects_a_translation_that_is_no_permutation(monkeypatch):
    """Column 1 of this table, which has an identity and inverses, repeats
    1, so no group has it: the check names that column."""
    q = galex_finite(cyclic_group(3), [0, 2, 1])
    monkeypatch.setattr(q, "group", GroupTable([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
    monkeypatch.setattr(q, "identity_component", lambda: [0, 1])
    with pytest.raises(ValueError, match=re.escape("not a permutation of 0..2: (1, 0, 1)")):
        verify_p_equals_dis(q)


def test_inner_commutator_passing_cases():
    rep = verify_inner_case_commutator(cyclic_group(3), 1)
    assert rep.passed
    assert rep.details["commutator_order"] == 1
    assert rep.details["component_size"] == 1
    s3 = symmetric_group(3)
    rep = verify_inner_case_commutator(s3, 1)
    assert rep.passed
    assert rep.details["closure_order"] == 6
    assert rep.details["commutator_order"] == 3


def test_inner_commutator_d4_gap():
    """Conjugation twists the closure's abelianization, so the identity
    component strictly contains the commutator subgroup here."""
    rep = verify_inner_case_commutator(dihedral_group(4), 1)
    assert not rep.passed
    assert rep.witness["component_not_in_commutator"] == [2]
    assert rep.witness["commutator_not_in_component"] == []
    assert rep.details["closure_order"] == 4
    assert rep.details["commutator_order"] == 1
    assert rep.details["component_size"] == 2
    assert rep.details["abelian_invariants"] == [4]


def test_inner_commutator_a4_gap():
    a4 = alternating_group(4)
    g = find_element(a4, 2)
    rep = verify_inner_case_commutator(a4, g)
    assert not rep.passed
    assert rep.details["closure_order"] == 4
    assert rep.details["commutator_order"] == 1
    assert rep.details["component_size"] == 4
    assert len(rep.witness["component_not_in_commutator"]) == 3
    # the closure is V4, whose abelianization is not cyclic of order ord(g)
    assert rep.details["abelian_invariants"] == [2, 2]
    assert rep.details["remark_formula"] is False


@pytest.mark.parametrize(
    "group",
    [
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
        dihedral_group(6),
        alternating_group(4),
        symmetric_group(4),
    ],
    ids=["s3", "d4", "q8", "d6", "a4", "s4"],
)
def test_inner_identity_component_every_element(group):
    for g in range(group.size):
        rep = verify_inner_case_identity_component(group, g)
        assert rep.passed, (g, rep.witness)


def test_inner_identity_component_reports_closure_commutator():
    # the [N, N] fields agree with the gap pinned by the tests above
    rep = verify_inner_case_identity_component(dihedral_group(4), 1)
    assert rep.passed
    assert rep.details["closure_order"] == 4
    assert rep.details["closure_group_commutator_order"] == 2
    assert rep.details["closure_commutator_order"] == 1
    assert rep.details["component_equals_closure_commutator"] is False
    a4 = alternating_group(4)
    rep = verify_inner_case_identity_component(a4, find_element(a4, 2))
    assert rep.passed
    assert rep.details["component_size"] == 4
    assert rep.details["closure_group_commutator_order"] == 4
    assert rep.details["closure_commutator_order"] == 1
    assert rep.details["component_equals_closure_commutator"] is False
    # where N is the whole group the two identities coincide
    rep = verify_inner_case_identity_component(symmetric_group(3), 1)
    assert rep.passed
    assert rep.details["closure_commutator_order"] == 3
    assert rep.details["component_equals_closure_commutator"] is True


def test_inner_identity_component_against_sympy():
    """[N, G] and [N, N] from sympy.combinatorics, on the regular
    representation, with N the normal closure computed by sympy."""
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation as SymPerm, PermutationGroup

    a4 = alternating_group(4)
    cases = [
        (dihedral_group(4), 1, 2, 1),
        (a4, find_element(a4, 2), 4, 1),
    ]
    for group, g, order_ng, order_nn in cases:
        regular = [SymPerm(group.mul[:, x].tolist()) for x in range(group.size)]
        whole = PermutationGroup(regular)
        closure = whole.normal_closure(regular[g])
        with_group = whole.commutator(closure, whole)
        closure_commutator = closure.commutator(closure, closure)
        assert (with_group.order(), closure_commutator.order()) == (order_ng, order_nn)

        rep = verify_inner_case_identity_component(group, g)
        assert rep.passed
        assert rep.details["closure_order"] == closure.order()
        assert rep.details["closure_group_commutator_order"] == with_group.order()
        assert rep.details["closure_commutator_order"] == closure_commutator.order()
        # right translation by x sends the identity to x
        component = galex_finite(group, conjugation_automorphism(group, g)).identity_component()
        assert sorted(p(group.identity) for p in with_group.elements) == component


def test_free_action_isometry_lattice():
    rep = verify_free_action_isometry(galex_lattice(ROT90), (0, 0), 6)
    assert rep.passed
    assert rep.details["vertices"] == 85


def test_free_action_isometry_line():
    rep = verify_free_action_isometry(dihedral_quandle("inf"), 0, 12)
    assert rep.passed


def test_free_action_isometry_finite():
    q = dihedral_quandle(5)
    rep = verify_free_action_isometry(q, 0, 4)
    assert rep.passed


def test_free_action_isometry_trivial_generators():
    q = galex_lattice([[1, 0], [0, 1]])
    rep = verify_free_action_isometry(q, (0, 0), 3)
    assert rep.passed
    assert rep.details["vertices"] == 1


def test_free_action_isometry_rejects_nonfree():
    dq = dihedral_quandle("inf")
    rep = verify_free_action_isometry(dq, 0, 4, generators=dq.inner_generators())
    assert not rep.passed
    assert rep.witness["failed_hypothesis"] == "free"
    # each affine automorphism answers whether it is a translation; an
    # automorphism of any other kind never is one
    rot90, fq = galex_lattice(ROT90), free_quandle(["a", "b"])
    mixed = dq.displacement_generators() + [("s0", dq.symmetry(0))]
    for backend, base, gens, named in (
        (dq, 0, mixed, ["s0"]),
        (rot90, (0, 0), rot90.inner_generators(), ["s0", "se1", "se2"]),
        (rot90, (0, 0), rot90.displacement_generators(), []),
        (fq, fq.generator("a"), fq.inner_generators(), [name for name, _ in fq.inner_generators()]),
    ):
        rep = verify_free_action_isometry(backend, base, 3, generators=gens)
        if named:
            assert rep.witness == {"failed_hypothesis": "free", "non_translations": named}
        else:
            assert rep.passed


def _free_witness_before(q, basepoint):
    """The freeness witness as it was found whatever the generators: on
    Dis and the component of the basepoint; None if Dis acts freely."""
    dis = q.displacement_group()
    component = next(part for part in q.components() if basepoint in part)
    culprit = first_fixed_point(dis.images, component)
    if culprit is None:
        return None
    return {"failed_hypothesis": "free", "element": Permutation.unchecked(dis.images[culprit[0]]).key(), "fixed_point": culprit[1]}


def test_free_action_freeness_is_checked_on_the_group_of_the_generators():
    """With the inner generators of R_5 freeness was checked on Dis, which
    is free, and the orbit map folded instead; the group the generators
    generate fixes 0.  Default and empty generators keep Dis."""
    q = dihedral_quandle(5)
    report = verify_free_action_isometry(q, 0, 3, generators=q.inner_generators())
    assert report.witness == {"failed_hypothesis": "free", "element": "[0,4,3,2,1]", "fixed_point": 0}
    # s_2 swaps 0 and 4 and fixes only 2, off the orbit of 0
    report = verify_free_action_isometry(q, 0, 3, generators=[("s2", q.symmetry(2))])
    assert report.passed and report.details == {"vertices": 2, "pairs_checked": 1}
    s4 = symmetric_group(4)
    transpositions = conjugation_quandle(s4, sorted({s4.conj(1, h) for h in range(s4.size)}))
    cases = [(conjugation_quandle(s4), 1), (transpositions, 0), (conjugation_quandle(alternating_group(4)), 5)]
    cases += [(dihedral_quandle(n), b) for n, b in ((4, 1), (5, 0), (6, 2), (9, 4))]
    failing = 0
    for q, basepoint in cases:
        expected = _free_witness_before(q, basepoint)
        for generators in (None, []):
            report = verify_free_action_isometry(q, basepoint, 2, generators=generators)
            if expected is not None:
                failing += 1
                assert report.witness == expected
            else:
                assert report.witness is None or "failed_hypothesis" not in report.witness
    assert failing
    report = verify_free_action_isometry(conjugation_quandle(s4), 1, 2)
    assert report.witness["fixed_point"] == 1


@pytest.mark.parametrize(
    "q,basepoint",
    [(galex_lattice(ROT90), (0, 0)), (dihedral_quandle(21), 0), (dihedral_quandle("inf"), 0)],
    ids=["rot90", "r21", "dihedral-inf"],
)
def test_a_passing_isometry_check_keys_its_basepoint_alone(monkeypatch, q, basepoint):
    """The orbit map numbers its images by value: a passing check keys
    only the orbit ball's basepoint, where it keyed every image."""
    keyed, key = [], q.key
    monkeypatch.setattr(q, "key", lambda x: keyed.append(x) or key(x))
    report = verify_free_action_isometry(q, basepoint, 6)
    assert report.passed
    assert keyed == [basepoint]


def _keyed_vertex_checks(q, basepoint, word_ball, orbit_ball):
    """A copy of the string-keyed loops that ran before the pair walk of
    the free-action isometry check: the first failing witness, or None."""
    word_depth, orbit_depth = depths(word_ball), depths(orbit_ball)
    mapping, seen = {}, set()
    for k, g in zip(word_ball.keys, word_ball.elements):
        img = q.key(g.act(basepoint))
        if img in seen:
            return {"orbit_map_not_injective_at": k}
        mapping[k] = img
        seen.add(img)
    orbit = set(orbit_depth)
    if seen != orbit:
        return {"orbit_ball_only": sorted(orbit - seen)[:4], "word_ball_only": sorted(seen - orbit)[:4]}
    for k, img in mapping.items():
        if word_depth[k] != orbit_depth[img]:
            return {
                "radial_distance_mismatch": k,
                "word_distance": word_depth[k],
                "orbit_distance": orbit_depth[img],
            }
    return None


def _orbit_ball_variant(change):
    """build_ball that alters the orbit ball: ``change`` maps the
    displacement action and radius to the ones to build."""

    def build(action, basepoint, radius, **kwargs):
        if action.backend_id.endswith(":displacement"):
            action, radius = change(action, radius)
        return build_ball(action, basepoint, radius, **kwargs)

    return build


def _squared_generator(action, radius):
    g = action.generators[-1][1]
    return SchreierAction(action.backend_id, [("t", g * g)], action.key), radius


@pytest.mark.parametrize(
    "variant,expected",
    [
        ("smaller-orbit-ball", "word_ball_only"),
        ("larger-orbit-ball", "orbit_ball_only"),
        ("squared-orbit-generator", "radial_distance_mismatch"),
        ("inner-group-words", "orbit_map_not_injective_at"),
    ],
)
def test_free_action_witnesses_match_the_keyed_loops(monkeypatch, variant, expected):
    """Every vertex-level witness of the isometry check, on finite,
    dihedral and lattice quandles at several radii, against the per-key
    loops it replaced."""
    change = {
        "smaller-orbit-ball": lambda action, r: (action, r - 1),
        "larger-orbit-ball": lambda action, r: (action, r + 1),
        "squared-orbit-generator": _squared_generator,
        "inner-group-words": lambda action, r: (action, r),
    }[variant]
    cases = [
        (dihedral_quandle(9), 0),
        (dihedral_quandle(15), 3),
        (dihedral_quandle("inf"), 0),
        (galex_lattice(ROT90), (0, 0)),
    ]
    seen = set()
    for q, basepoint in cases:
        if variant == "inner-group-words":
            # words in the inner group: its orbit map folds pairs of words
            inner = q.inner_generators()
            monkeypatch.setattr(verify, "cayley_action", lambda bid, _gens, inner=inner: cayley_action(bid, inner))
        for radius in (2, 5):
            built = {}

            def capture(action, base, r, **kwargs):
                ball = _orbit_ball_variant(change)(action, base, r, **kwargs)
                built[action.backend_id.rsplit(":", 1)[1]] = ball
                return ball

            monkeypatch.setattr(verify, "build_ball", capture)
            report = verify_free_action_isometry(q, basepoint, radius)
            oracle = _keyed_vertex_checks(q, basepoint, built["cayley"], built["displacement"])
            if oracle is None:
                assert report.witness is None or "pair" in report.witness
            else:
                assert report.witness == oracle
                seen.update(k for k, v in oracle.items() if v)
    assert expected in seen


def _first_pair_by_distance(q, basepoint, word_ball, orbit_ball):
    """A per-pair loop over ``distance``: the first pair of word-ball
    vertices, in word-ball order, certified in both balls whose two
    distances differ, as the isometry check words it; None if none."""
    keys = word_ball.keys
    image = [q.key(g.act(basepoint)) for g in word_ball.elements]
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            dw, do = word_ball.distance(keys[i], keys[j]), orbit_ball.distance(image[i], image[j])
            if dw is not None and do is not None and dw != do:
                return {"pair": (keys[i], keys[j]), "word_distance": dw, "orbit_distance": do}
    return None


@pytest.mark.parametrize(
    "q,basepoint,radius,generators",
    [
        (galex_lattice(ROT90), (0, 0), 4, None),
        (dihedral_quandle("inf"), 0, 4, None),
        # one translation of Z/15: the orbit ball is a path of 7 points
        (dihedral_quandle(15), 3, 3, dihedral_quandle(15).displacement_generators()[:1]),
    ],
    ids=["lattice", "dihedral-inf", "finite"],
)
def test_free_action_reports_a_pair_whose_distances_differ(monkeypatch, q, basepoint, radius, generators):
    """A chord between the first two orbit-ball vertices at depth 1 keeps
    the orbit map a bijection and every basepoint distance, so only pair
    distances differ: the check reports the first such pair."""
    built = {}

    def chorded(action, base, r, **kwargs):
        ball = build_ball(action, base, r, **kwargs)
        if action.backend_id.endswith(":displacement"):
            u, v = [k for k, d in zip(ball.keys, ball.depth.tolist()) if d == 1][:2]
            ball = rewired(ball, ball.edges + [(u, v, "chord")])
        built[action.backend_id.rsplit(":", 1)[1]] = ball
        return ball

    monkeypatch.setattr(verify, "build_ball", chorded)
    report = verify_free_action_isometry(q, basepoint, radius, generators)
    oracle = _first_pair_by_distance(q, basepoint, built["cayley"], built["displacement"])
    assert not report.passed
    assert set(report.witness) == {"pair", "word_distance", "orbit_distance"}
    assert report.witness == oracle
    assert report.witness["orbit_distance"] < report.witness["word_distance"]
