"""Machine-checking displacement group facts on finite quandles.

Each check returns a report with a pass flag and, on failure, a witness
you can replay by hand.  The last section twists a group G by
conjugation with g and compares the identity component P with two
commutator subgroups of the normal closure N of g.  P = [N, N] is false
on D_4 and A_4, and the witnesses show which group elements break it;
P = [N, G] holds on every instance (1 ◁ x = [g, x] generates it).
"""

from quandles import (
    alternating_group,
    conjugation_automorphism,
    conjugation_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    galex_finite,
    symmetric_group,
    verify_dis_properties,
    verify_free_transitive_reconstruction,
    verify_inner_case_commutator,
    verify_inner_case_identity_component,
    verify_p_equals_dis,
)
from quandles.groups import find_element

print("== structural properties of the displacement subgroup ==")
for q, label in [
    (dihedral_quandle(5), "R_5"),
    (dihedral_quandle(6), "R_6"),
    (conjugation_quandle(symmetric_group(3), [1, 2, 5]), "transpositions of S_3"),
]:
    for rep in verify_dis_properties(q, instance=label):
        print(f"  [{label}] {rep.statement}: {'ok' if rep.passed else rep.witness}")
print()

print("== rebuilding a quandle from a free transitive action ==")
r3 = dihedral_quandle(3)
rep = verify_free_transitive_reconstruction(r3, r3.displacement_group().images)
print("  R_3 from its displacement group:", "ok" if rep.passed else rep.witness)
print("  recovered twist:", rep.details["sigma"], "on a group of order",
      rep.details["group_order"])
print()

print("== the identity component carries the displacement group ==")
instances = [
    ("Z/3 with negation", galex_finite(cyclic_group(3), [0, 2, 1])),
    ("S_3 twisted by a transposition",
     galex_finite(symmetric_group(3), conjugation_automorphism(symmetric_group(3), 1))),
    ("D_4 twisted by the rotation",
     galex_finite(dihedral_group(4), conjugation_automorphism(dihedral_group(4), 1))),
]
a4 = alternating_group(4)
double = find_element(a4, 2)
instances.append(
    ("A_4 twisted by a double transposition",
     galex_finite(a4, conjugation_automorphism(a4, double))))
for label, q in instances:
    rep = verify_p_equals_dis(q, instance=label)
    print(f"  [{label}] component size {rep.details['component_size']},",
          f"displacement order {rep.details['dis_order']}:",
          "ok" if rep.passed else rep.witness)
print()

print("== identity component vs commutator of the normal closure ==")
print("(when the twist is conjugation by g)")
for label, group, g in [
    ("S_3, g a transposition", symmetric_group(3), 1),
    ("D_4, g the rotation", dihedral_group(4), 1),
    ("A_4, g a double transposition", a4, double),
]:
    rep = verify_inner_case_commutator(group, g, instance=label)
    print(f"  [{label}]")
    print(f"    closure order {rep.details['closure_order']},",
          f"commutator order {rep.details['commutator_order']},",
          f"component size {rep.details['component_size']}")
    if rep.passed:
        print("    P = [N, N] holds")
    else:
        print("    P = [N, N] FAILS, witness:", rep.witness)
        print("    closure abelianization:", rep.details["abelian_invariants"],
              "- conjugation twists it, so zero exponent sum does not force")
        print("      membership in the commutator subgroup")
    with_group = verify_inner_case_identity_component(group, g, instance=label)
    print(f"    [N, G] order {with_group.details['closure_group_commutator_order']}:",
          "P = [N, G] holds" if with_group.passed else with_group.witness)
