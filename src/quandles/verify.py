"""Checked verification of structure theorems on concrete instances.

Every check returns TheoremReport records rather than bare booleans:
statement id, the instance it ran on, a pass flag, and a witness when the
claimed property fails, so a failing run shows exactly which element
breaks which equality.  Nothing here is assumed; even textbook facts are
re-established on the given instance.

Permutation groups arrive as image rows, one per element: the
``images`` array of a ``PermGroup`` (owned by ``perms``) or, for the
reconstruction check, any (k x n) array of rows.  The checks on them are
numpy gathers and ``RowIndex`` lookups.  Each check still scans in a
fixed order, stated in its docstring, so a witness is the first failure
in that order; ``Permutation.unchecked`` wraps a row only to key a
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import perms
from .errors import BoundExceededError
from .families import GAlexFiniteQuandle, conjugation_automorphism, galex_finite
from .groups import GroupTable, _positions
from .perms import (
    Permutation,
    PermGroup,
    RowIndex,
    _dimino,
    _distinct,
    _integers,
    _is_integer,
    first_fixed_point,
    orbits,
    products,
    quotient_is_cyclic,
    walk,
)
from .quandle import FiniteQuandle, _automorphism_defect
from .schreier import (
    DEFAULT_VERTEX_BOUND,
    _identity_like,
    _json_line,
    build_ball,
    cayley_action,
    displacement_action,
    first_failing_pair,
)


@dataclass(frozen=True)
class TheoremReport:
    statement: str
    instance: str
    passed: bool
    witness: Optional[dict] = None
    details: Optional[dict] = None

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError("failing report needs a witness")

    def to_json_line(self) -> str:
        rec = {
            "statement": self.statement,
            "instance": self.instance,
            "pass": self.passed,
            "witness": self.witness,
            "details": self.details,
        }
        return _json_line(rec)


def verify_dis_properties(q: FiniteQuandle, instance: str = "") -> list[TheoremReport]:
    """Four structural facts tying the displacement group to the inner one.

    1. the displacement group is normal in the inner group,
    2. the quotient is cyclic,
    3. the displacement group consists exactly of the products
       s_a1^k1 .. s_am^km with k1 + .. + km = 0,
    4. both groups have the same orbits.

    (1) is tested at the generators g of Inn (Holt, Eick and O'Brien,
    cited below): g^-1 Dis g in Dis is equality, as Dis is finite, and
    the h with h^-1 Dis h = Dis form a subgroup.  At g the test is that
    d g lies in g Dis for every d in Dis, on ``perms.products``; only if
    one fails does it scan Inn, to the first failure conjugator-major, a
    block of about ``perms.CAYLEY_CELLS`` cells of conjugators at a
    time.  (2) is ``quotient_is_cyclic`` if (1) holds; else the cosets
    form no group, and (2) fails with |Inn|/|Dis| of them.

    (3) is decided exactly by the spanning-tree argument behind
    Reidemeister-Schreier (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005).  A ``walk`` of the Cayley graph of
    Inn under u -> u s_y gives each g its depth phi(g) and a tree path T_g.
    Let k be the gcd of the edge weights phi(u) + 1 - phi(u s_y), each
    >= 0 (0 on tree edges); k >= 1, as the cycle s_y^m = 1 weighs m.  An
    edge raises phi by 1 mod k, so phi(word) = exponent sum mod k.  The
    loops T_u s_y T_{u s_y}^-1 have value 1 and realise every weight, so
    every multiple of k; when k divides phi(g), a loop of exponent sum
    -phi(g) followed by T_g is a zero-sum word for g.  So the zero-sum
    elements are {phi = 0 mod k}, of index k.  ``word_length_bound`` is
    2 |Inn|: when (3) passes, each element of Dis is a product of at most
    |Dis| - 1 generators s_y s_0^-1, zero-sum words of length 2, so every
    zero-sum element is a zero-sum word of length below 2 |Inn|.
    """
    instance = instance or repr(q)
    inn = q.inner_group()
    dis = q.displacement_group()
    dis_index = inn.positions(dis.images)
    in_dis = _positions(dis_index, inn.order) >= 0
    gens = np.array([sym.images for _, sym in inn.generators])

    def key(x):
        return Permutation.unchecked(inn.images[x]).key()

    def unconjugated(conjugators):  # [g, d]: d g is outside g Dis
        inside = np.zeros((len(conjugators), inn.order), dtype=bool)
        inside[np.arange(len(conjugators))[:, None], products(inn.rows, conjugators, dis.images)] = True
        return ~np.take_along_axis(inside, products(inn.rows, dis.images, conjugators).T, axis=1)

    bad = None
    if unconjugated(gens).any():
        step = max(1, perms.CAYLEY_CELLS // inn.order)
        blocks = (np.argwhere(unconjugated(inn.images[g0 : g0 + step])) + (g0, 0) for g0 in range(0, inn.order, step))
        g, d = next(failed[0] for failed in blocks if len(failed))
        bad = {"conjugator": key(g), "element": key(dis_index[d])}
    details = {"inn_order": inn.order, "dis_order": dis.order}
    reports = [TheoremReport("dis-normal-in-inn", instance, bad is None, bad, details)]

    cyclic, qorder = quotient_is_cyclic(inn, dis) if bad is None else (False, inn.order // dis.order)
    witness = None if cyclic else {"quotient_order": qorder}
    reports.append(TheoremReport("inn-mod-dis-cyclic", instance, cyclic, witness, {"quotient_order": qorder}))

    moves = products(inn.rows, inn.images, gens)
    points, sizes = walk(moves, 0, inn.order, inn.order)  # from the identity, row 0
    phi = np.empty(inn.order, dtype=np.int64)
    phi[points] = np.repeat(np.arange(len(sizes)), sizes)
    k = np.gcd.reduce((phi[:, None] + 1 - phi[moves]).ravel())
    zero_sum = phi % k == 0

    def keys(mask):  # the first three keys, sorted, of the elements in mask
        return sorted(map(key, np.flatnonzero(mask)))[:3]

    bad = None
    if (zero_sum != in_dis).any():
        bad = {"zero_sum_not_in_dis": keys(zero_sum & ~in_dis), "dis_not_zero_sum": keys(in_dis & ~zero_sum)}
    details = {"word_length_bound": 2 * inn.order, "zero_sum_count": int(zero_sum.sum())}
    reports.append(TheoremReport("dis-equals-zero-sum-words", instance, bad is None, bad, details))

    inn_orbits = q.components()
    dis_orbits = orbits(dis.generators, range(q.size))
    same = inn_orbits == dis_orbits
    witness = None if same else {"inn_orbits": inn_orbits, "dis_orbits": dis_orbits}
    details = {"component_count": len(inn_orbits)}
    reports.append(TheoremReport("inn-dis-orbits-equal", instance, same, witness, details))
    return reports


def verify_free_transitive_reconstruction(
    q: FiniteQuandle,
    subgroup,
    basepoint: int = 0,
    instance: str = "",
) -> TheoremReport:
    """A normal, free, transitive automorphism group G reconstructs the
    quandle: with sigma(g) = s_x0^-1 g s_x0 and f(g) = x0.g, the map f is
    an isomorphism from (G, x ◁ y = sigma(x y^-1) y) onto the quandle.

    ``subgroup`` holds one image row per supplied element, as
    ``PermGroup.images`` does.  Malformed rows, non-automorphisms and a
    basepoint off 0..n-1 raise ValueError; no rows fail transitivity.

    Normality is checked inside the ambient group generated by the point
    symmetries and the supplied set S (the report records it), and S
    must be closed under products; a failed hypothesis fails the report
    with the hypothesis named.  ``perms._dimino`` sifts S once, bounded
    by its number |E| of distinct rows, and keeps generators K.  (a) The
    sift stays within |E| elements exactly when <S> = S: the identity is
    in <S>, so an S without it overflows; sizes are compared too, as the
    empty S is no group.  (b) Let S be a group and P a subgroup of it: its
    automorphisms, or the g with h^-1 g h in S for a conjugator h.  A row
    the sift skips lies in the group of the kept rows before it, so the
    first row outside P, in supplied order, is in K: checking K alone
    raises for the same row and cell, and names the same first element
    that h conjugates out of S.  (c) Conjugation by h maps S into itself
    iff onto, so the generators of the ambient group decide, and the
    first to fail is its first failing element, as it lists the
    identity, then its generators in order; a group is normal in itself.
    When S is no group every row is checked and conjugated.  s_x0, which
    sigma needs, is a point symmetry.

    Rows are conjugated and multiplied by gathers and found by
    ``RowIndex``; a group's table is ``products``.  Witnesses are first
    failures in these orders: conjugator-major (point symmetries, then
    the supplied rows) and supplied-order minor for normality; the
    supplied order for freeness; row-major over the distinct rows sorted
    by their images for closure and the isomorphism.
    """
    instance = instance or repr(q)
    statement = "free-transitive-reconstruction"
    n = q.size
    supplied = _integers(subgroup, 2, "subgroup", ValueError)
    if supplied.shape[1] != n:
        raise ValueError(f"subgroup rows must have {n} entries, got shape {supplied.shape}")
    broken = np.flatnonzero((np.sort(supplied, axis=1) != np.arange(n)).any(axis=1))
    if broken.size:
        raise ValueError(f"subgroup row {broken[0]} is not a permutation of 0..{n - 1}: {supplied[broken[0]].tolist()}")
    _check_basepoint(q, basepoint)
    ordered = supplied[np.lexsort(supplied.T[::-1])]  # sorted by their images, column 0 first
    elements = ordered[(np.diff(ordered, axis=0, prepend=-1) != 0).any(axis=1)]  # the first of each run of equal rows
    try:
        closure, kept = _dimino(supplied, len(elements))
        is_group = len(closure) == len(elements)
    except BoundExceededError:
        is_group = False
    tested = kept if is_group else supplied
    for row in tested:
        bad = _automorphism_defect(q.table, row)
        if bad is not None:
            raise ValueError(f"subgroup element {Permutation.unchecked(row).key()} is not an automorphism at {bad}")

    ambient_desc = f"<point symmetries + {len(supplied)} supplied>"

    def failed(witness: dict) -> TheoremReport:
        return TheoremReport(statement, instance, False, witness, {"ambient": ambient_desc})

    rows = RowIndex(elements)
    # h^-1 g h is x -> h[g[h^-1[x]]]; the conjugators are the point
    # symmetries s_y (column y of the table), then the supplied rows,
    # which a group normalizes
    for h in q.table.T if is_group else np.concatenate((q.table.T, supplied)):
        outside = rows.locate(h[tested[:, np.argsort(h)]]) < 0
        if outside.any():
            return failed(
                {
                    "failed_hypothesis": "normal-in-ambient",
                    "conjugator": Permutation.unchecked(h).key(),
                    "element": Permutation.unchecked(tested[outside.argmax()]).key(),
                }
            )

    image = np.flatnonzero(np.bincount(supplied[:, basepoint], minlength=n))
    if len(image) != n:
        return failed({"failed_hypothesis": "transitive", "orbit_of_basepoint": image.tolist()})
    fix = first_fixed_point(supplied, range(n))
    if fix is not None:
        return failed(
            {"failed_hypothesis": "free", "element": Permutation.unchecked(supplied[fix[0]]).key(), "fixed_point": fix[1]}
        )

    # a transitive set (so not empty) that is no group misses some a * b = b[a]
    for a in [] if is_group else elements:
        found = rows.locate(elements[:, a])
        if found.min() < 0:
            return failed(
                {
                    "failed_hypothesis": "closed-under-products",
                    "left": Permutation.unchecked(a).key(),
                    "right": Permutation.unchecked(elements[found.argmin()]).key(),
                }
            )

    # s_x0 is one of the conjugators above, so sigma maps G onto G
    s0 = q.table[:, basepoint]
    s0_inv = np.argsort(s0)  # the inverse permutation: s0[s0_inv[x]] = x
    sigma = rows.locate(s0[elements[:, s0_inv]])
    group = GroupTable(products(rows, elements, elements))
    rebuilt = galex_finite(group, sigma)

    f = elements[:, basepoint]
    mismatch = np.argwhere(f[rebuilt.table] != q.table[np.ix_(f, f)])
    if len(mismatch):
        return failed({"isomorphism_fails_at": (int(mismatch[0, 0]), int(mismatch[0, 1]))})
    return TheoremReport(
        statement,
        instance,
        True,
        None,
        {
            "ambient": ambient_desc,
            "group_order": group.size,
            "sigma": sigma.tolist(),
            "basepoint_map": f.tolist(),
        },
    )


def verify_p_equals_dis(q: GAlexFiniteQuandle, instance: str = "") -> TheoremReport:
    """On a finite Alexander-type quandle, the connected component P of
    the group identity is a subgroup, right translation by it is an
    injective homomorphism into the symmetric group, its image is exactly
    the displacement group, and every generator s_x s_y^-1 equals right
    translation by 1 ◁ x ◁^-1 y, an element of P.  Witnesses are first
    failures in row-major order, over P x P and then over pairs (x, y)."""
    instance = instance or repr(q)
    statement = "identity-component-realizes-displacement"
    group = q.group
    mul, points = group.mul, np.arange(q.size)
    p_elems = q.identity_component()
    p = np.array(p_elems, dtype=np.int64)
    in_p = _positions(p, q.size) >= 0

    def failed(witness, details=None):
        return TheoremReport(statement, instance, False, witness, details)

    outside = np.argwhere(~in_p[mul[np.ix_(p, p)]])
    if len(outside):
        return failed({"not_closed": (p_elems[outside[0, 0]], p_elems[outside[0, 1]])})
    if not in_p[group.identity] or not in_p[group.inverse[p]].all():
        return failed({"not_subgroup": sorted(p_elems)})
    # the right translations y -> y*a by P are the columns mul[:, a]; one
    # that is no permutation, so no group's, raises Permutation's ValueError
    translations = mul[:, p].T
    broken = np.flatnonzero((np.sort(translations, axis=1) != points).any(axis=1))
    if broken.size:
        Permutation(translations[broken[0]])

    # the translation y -> y*a followed by y -> y*b is y -> y*(ab)
    for a in p_elems:
        broken = np.flatnonzero((mul[mul[:, a]][:, p] != mul[:, mul[a, p]]).any(axis=0))
        if broken.size:
            return failed({"not_homomorphism": (a, p_elems[broken[0]])})

    # the translations are distinct (they send 1 to a), so they are the
    # displacement group when all of them lie in it and the orders agree
    dis = q.displacement_group()
    found = dis.rows.locate(translations)
    sizes = {"component_size": len(p_elems), "dis_order": dis.order}
    if (found < 0).any() or len(p_elems) != dis.order:
        covered = np.zeros(dis.order, dtype=bool)
        covered[found[found >= 0]] = True
        witness = {
            "translation_not_in_dis": sorted(Permutation.unchecked(t).key() for t in translations[found < 0])[:3],
            "dis_not_translation": sorted(Permutation.unchecked(dis.images[d]).key() for d in np.flatnonzero(~covered))[:3],
        }
        return failed(witness, sizes)

    # s_x s_y^-1 sends z to (z ◁ x) ◁^-1 y; its translation target is
    # g = (1 ◁ x) ◁^-1 y
    target = q.inv_table[q.table[group.identity][:, None], points]
    for x in range(q.size):
        mismatch = (q.inv_table[q.table[:, x][:, None], points] != mul[:, target[x]]).any(axis=0)
        bad = np.flatnonzero(~in_p[target[x]] | mismatch)
        if bad.size:
            y = int(bad[0])
            g = int(target[x, y])
            kind = "generator_mismatch" if in_p[g] else "generator_target_outside"
            return failed({kind: (x, y, g)})

    return TheoremReport(statement, instance, True, None, sizes)


def _inner_case(group: GroupTable, g: int):
    """The identity component P of the quandle with sigma = conjugation by
    g, the normal closure N of g, and [N, N]; P and [N, N] as sets."""
    p_elems = set(galex_finite(group, conjugation_automorphism(group, g)).identity_component())
    closure = group.normal_closure_of(g)
    return p_elems, closure, set(group.commutator_of_subgroup(closure))


def _component_report(statement, instance, p_elems, target, details, cut=None) -> TheoremReport:
    """Pass iff P equals ``target``; a failure lists, sorted and cut to
    ``cut`` entries, what each of the two sets lacks."""
    witness = {
        "commutator_not_in_component": sorted(target - p_elems)[:cut],
        "component_not_in_commutator": sorted(p_elems - target)[:cut],
    }
    same = p_elems == target
    return TheoremReport(statement, instance, same, None if same else witness, details)


def verify_inner_case_commutator(
    group: GroupTable, g: int, instance: str = ""
) -> TheoremReport:
    """For sigma = conjugation by g, compare the identity component P of
    the resulting quandle with the commutator subgroup of the normal
    closure N of g.

    The report always records the abelian invariants of N and the index
    of the commutator subgroup in N (both finite here).  The containment
    commutator(N) <= P always holds; the reverse containment can fail
    when N is a proper subgroup of the whole group, because conjugation
    can act nontrivially on the abelianization of N.  ``remark_formula``
    flags whether the invariants collapse to the single factor ord(g).

    The identity that does hold is P = [N, G] (for instance on D4 with g
    the rotation, and on A4 with g a double transposition, where
    [N, N] = 1 but P has order 2 and 4); it is checked by
    ``verify_inner_case_identity_component``.
    """
    p_elems, closure, commutator = _inner_case(group, g)
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
    statement = "inner-sigma-identity-component-is-commutator"
    return _component_report(statement, instance or f"conj-by-{g}", p_elems, commutator, details, cut=4)


def verify_inner_case_identity_component(
    group: GroupTable, g: int, instance: str = ""
) -> TheoremReport:
    """For sigma = conjugation by g, the identity component P of the
    resulting quandle equals [N, G], where N is the normal closure of g
    in the whole group G.

    Proof sketch, with [a, b] = a^-1 b^-1 a b and sigma(x) = g^-1 x g:

    - the symmetry at y is s_y(k) = sigma(k y^-1) y = sigma(k) [g, y],
      so 1 ◁ x = [g, x];
    - [g, x]^y = [g, y]^-1 [g, xy], so K = <[g, x] : x in G> is normal;
      it lies in [N, G] because g is in N;
    - P is a subgroup (see ``verify_p_equals_dis``) containing every
      1 ◁ x, so K <= P; K is normal, hence sigma-stable, so s_y and its
      inverse map K into K and the component of 1 stays inside K: P = K;
    - modulo K, g commutes with every x, so every conjugate of g is g
      again, N is central and [N, G] <= K.

    [N, G] is computed from N and G as a commutator subgroup, not from
    the component.  The report also carries the order of [N, N] and
    whether P equals it (the claim of
    ``verify_inner_case_commutator``, which fails when conjugation acts
    nontrivially on the abelianization of N).
    """
    p_elems, closure, closure_commutator = _inner_case(group, g)
    with_group = set(group.commutator_of_subgroup(closure, range(group.size)))
    details = {
        "component_size": len(p_elems),
        "closure_order": len(closure),
        "closure_group_commutator_order": len(with_group),
        "closure_commutator_order": len(closure_commutator),
        "component_equals_closure_commutator": p_elems == closure_commutator,
    }
    statement = "inner-sigma-identity-component-is-commutator-with-group"
    return _component_report(statement, instance or f"conj-by-{g}", p_elems, with_group, details)


def verify_free_action_isometry(
    backend,
    basepoint,
    radius: int,
    generators=None,
    instance: str = "",
    max_vertices: int = DEFAULT_VERTEX_BOUND,
) -> TheoremReport:
    """When the displacement group acts freely on the component of the
    basepoint, g -> basepoint.g is an isometry from the group with the
    word metric of the displacement generators onto the component.

    Compares the Cayley ball of the generators with the Schreier ball of
    the action: the orbit map must be a bijection on vertices that
    preserves basepoint distances and all certified pairwise distances.

    Freeness is established by stabilizer check for finite quandles, on
    the basepoint's orbit under the group of the generators (Dis if there
    are none), and for affine backends by the generators being nontrivial
    translations; anything else fails the hypothesis.  Both balls are
    built under the ``max_vertices`` cap of ``build_ball``.
    """
    instance = instance or repr(backend)
    statement = "free-displacement-action-gives-isometry"
    action = displacement_action(backend, generators)
    gens = action.generators

    def report(passed, witness, details=None):
        return TheoremReport(statement, instance, passed, witness, details)

    if isinstance(backend, FiniteQuandle):
        _check_basepoint(backend, basepoint)
        group = PermGroup(gens) if gens else backend.displacement_group()
        culprit = first_fixed_point(group.images, _distinct(group.images[:, basepoint]))
        if culprit is not None:
            key = Permutation.unchecked(group.images[culprit[0]]).key()
            return report(False, {"failed_hypothesis": "free", "element": key, "fixed_point": culprit[1]})
    else:
        # the affine automorphisms answer is_translation; no other kind is one
        not_translation = [name for name, aut in gens if not (hasattr(aut, "is_translation") and aut.is_translation())]
        if not_translation:
            return report(False, {"failed_hypothesis": "free", "non_translations": not_translation})

    if not gens:  # the orbit ball of no generators is the basepoint alone
        return report(True, None, {"vertices": 1, "pairs_checked": 0})
    orbit_ball = build_ball(action, basepoint, radius, max_vertices=max_vertices)
    word_ball = build_ball(
        cayley_action(backend.backend_id, gens), _identity_like(gens), radius, max_vertices=max_vertices
    )

    # the orbit map as orbit-ball vertex numbers, found by value; images
    # outside the orbit ball are numbered from V on, in order of appearance
    n = orbit_ball.vertex_count
    vertex = {p: v for v, p in enumerate(orbit_ball.elements)}
    image = np.array([vertex.setdefault(g.act(basepoint), len(vertex)) for g in word_ball.elements], dtype=np.int64)
    order = np.argsort(image, kind="stable")
    repeat = np.zeros(image.size, dtype=bool)
    repeat[order[1:]] = image[order[1:]] == image[order[:-1]]
    if repeat.any():
        return report(False, {"orbit_map_not_injective_at": word_ball.keys[int(np.argmax(repeat))]})

    missed = np.ones(n, dtype=bool)
    missed[image[image < n]] = False
    if len(vertex) > n or missed.any():
        witness = {
            "orbit_ball_only": sorted(orbit_ball.keys[i] for i in np.flatnonzero(missed))[:4],
            "word_ball_only": sorted(map(backend.key, list(vertex)[n:]))[:4],
        }
        details = {"word_ball": word_ball.vertex_count, "orbit_ball": orbit_ball.vertex_count}
        return report(False, witness, details)

    radial = np.flatnonzero(word_ball.depth != orbit_ball.depth[image])
    if radial.size:
        i = int(radial[0])
        witness = {
            "radial_distance_mismatch": word_ball.keys[i],
            "word_distance": int(word_ball.depth[i]),
            "orbit_distance": int(orbit_ball.depth[image[i]]),
        }
        return report(False, witness)

    checked, failure = first_failing_pair(
        word_ball, np.arange(word_ball.vertex_count), orbit_ball, image, lambda dw, do: dw != do
    )
    if failure is not None:
        i, j, dw, do = failure
        pair = (word_ball.keys[i], word_ball.keys[j])
        return report(False, {"pair": pair, "word_distance": dw, "orbit_distance": do})
    return report(True, None, {"vertices": orbit_ball.vertex_count, "pairs_checked": checked})


def _check_basepoint(q: FiniteQuandle, basepoint) -> None:
    """ValueError unless ``basepoint`` is a point 0..n-1 of q (see
    ``perms._is_integer``)."""
    if not (_is_integer(basepoint) and 0 <= basepoint < q.size):
        raise ValueError(f"basepoint {basepoint!r} is not a point of {q!r}: it must be in 0..{q.size - 1}")
