"""The quandle on the integers with x <| y = 2y - x, seen through two graphs.

The point symmetries s_0, s_1 generate the inner group; the single product
s_1 s_0^-1 (translation by -2) generates the displacement group.  Both act
on Z, but the Schreier graphs look nothing alike: the inner graph is a
half-line, the displacement graph a full line.  The end counts 1 vs 2 tell
them apart at infinity, so no quasi-isometry can exist between them.
"""

from quandles import (
    ball_to_dot,
    build_ball,
    dihedral_quandle,
    displacement_action,
    ends_estimate,
    inner_action,
)

q = dihedral_quandle("inf")

print("operation samples: 0<|1 =", q.op(0, 1), "  3<|5 =", q.op(3, 5))
print()

inner_ball = build_ball(inner_action(q), 0, 30)
disp_ball = build_ball(displacement_action(q), 0, 30)

print("inner graph, basepoint 0, radius 30")
print("  sphere sizes:", inner_ball.sphere_sizes()[:12], "...")
print("  vertices in discovery order:", inner_ball.keys[:9], "...")
# 0 -> 2 -> -2 -> 4 -> -4: one thread folding back and forth

print("displacement graph, same basepoint and radius")
print("  sphere sizes:", disp_ball.sphere_sizes()[:12], "...")
print()

for n in (5, 8, 10):
    a = ends_estimate(inner_ball, n)
    b = ends_estimate(disp_ball, n)
    print(f"  annulus {n} < d <= 30:  inner ends ~ {a},  displacement ends ~ {b}")
print()

# the explicit parametrizations behind those counts
gamma = lambda k: -k if k % 2 == 0 else k + 1
print("half-line parametrization k -> gamma(k):", [gamma(k) for k in range(8)])
assert all(inner_ball.distance("0", str(gamma(k))) == k for k in range(20))
print("  distance from 0 to gamma(k) is exactly k (checked to 20)")

assert all(disp_ball.distance("0", str(2 * k)) == abs(k) for k in range(-12, 13))
print("line parametrization k -> 2k: distance from 0 to 2k is |k| (checked to 12)")
print()

small = build_ball(inner_action(q), 0, 4)
print("DOT snippet of the radius-4 inner ball:")
print(ball_to_dot(small))
