"""Inner Schreier balls of a free quandle are trees.

Elements are formal conjugates a^w: a base letter with a reduced word tail
that never starts with the base.  Each point symmetry appends one letter to
the tail, so distance from a^1 equals tail length and the ball is the tree
of normal forms.
"""

from quandles import build_ball, free_quandle, inner_action, loopless_forest_check

fq = free_quandle(["a", "b"])
a, b = fq.generator("a"), fq.generator("b")

x = fq.op(a, b)
y = fq.op(x, fq.op(b, a))
print("a <| b            =", fq.key(x))
print("(a<|b) <| (b<|a)  =", fq.key(y))
print("undo the last step:", fq.key(fq.op_inv(y, fq.op(b, a))))
print()

for radius in range(7):
    ball = build_ball(inner_action(fq), a, radius)
    print(f"radius {radius}: {ball.vertex_count:4d} vertices", ball.sphere_sizes())
# growth is (2|A|-1)^r: every step has 3 non-backtracking choices

ball = build_ball(inner_action(fq), a, 6)
print()
print("vertices == edges + components (self-loops aside):", loopless_forest_check(ball))

leaves = [k for k, d in zip(ball.keys, ball.depth) if d == 6]
print("two of the", len(leaves), "leaves at depth 6:", leaves[0], "|", leaves[-1])

three = free_quandle(["a", "b", "c"])
ball3 = build_ball(inner_action(three), three.generator("a"), 5)
print()
print("three letters, radius 5:", ball3.vertex_count, "vertices,",
      "tree check:", loopless_forest_check(ball3))
