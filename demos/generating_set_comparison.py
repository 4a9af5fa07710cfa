"""Distances depend on the generating set only up to a multiplicative constant.

Take the inner graph of the infinite dihedral quandle with generators
{s_0, s_1}, then add the redundant s_2 = s_1^-1 s_0 s_1.  Word lengths in
each direction bound the distortion: every certified pair of distances
must agree within that factor.
"""

from quandles import (
    SchreierAction,
    bilipschitz_compare,
    bilipschitz_constant,
    build_ball,
    cayley_action,
    dihedral_quandle,
)

q = dihedral_quandle("inf")
gens_a = q.inner_generators()
gens_b = gens_a + [("s2", q.symmetry(2))]

# shortest words over {s0, s1} are depths in its Cayley ball at the identity
cayley = build_ball(cayley_action("dih", gens_a), gens_a[0][1] * gens_a[0][1].inverse(), 8)
for name, aut in gens_b:
    print(f"shortest word for {name} over {{s0, s1}}:", int(cayley.depth[cayley.index[aut.key()]]))

constant = bilipschitz_constant(gens_a, gens_b, 8)
print("bilipschitz constant:", constant)
print()

for radius in (6, 10, 14, 20):
    ball_a = build_ball(SchreierAction("dih:a", gens_a, q.key), 0, radius)
    ball_b = build_ball(SchreierAction("dih:b", gens_b, q.key), 0, radius)
    result = bilipschitz_compare(ball_a, ball_b, constant)
    print(f"radius {radius:2d}: {result.pairs_checked:4d} certified pairs, {result.status}")

print()
print("with the constant forced to 1 the comparison finds a witness:")
ball_a = build_ball(SchreierAction("dih:a", gens_a, q.key), 0, 10)
ball_b = build_ball(SchreierAction("dih:b", gens_b, q.key), 0, 10)
bad = bilipschitz_compare(ball_a, ball_b, 1)
print(" ", bad.status, bad.witness)
