"""Oracles for the coarse geometry of Schreier balls.

The ends of a graph do not depend on the scale at which they are read,
the inner group of a lattice quandle with t of finite order is virtually
Z^2 and so grows quadratically, and the cat map's inner group grows
exponentially.  A word metric on a lattice of translations lies within
bounded distance of the norm whose unit ball is the convex hull of the
generators and their inverses (D. Burago, Periodic metrics, Adv. Soviet
Math. 9, 1992).  Each is checked on balls that ``build_ball`` walks.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from quandles.families import dihedral_quandle, galex_lattice
from quandles.lattice import LatticeAffine
from quandles.schreier import build_ball, displacement_action, ends_estimate, inner_action

ROT90 = [[0, -1], [1, 0]]
MINUS_I = [[-1, 0], [0, -1]]
ORDER3 = [[0, -1], [1, -1]]
CAT = [[2, 1], [1, 1]]


def _ends_cases():
    dq = dihedral_quandle("inf")
    return [
        ("dihedral-inf-inner", inner_action(dq), 0, 1),
        # the displacement group is 2Z acting on the even integers: a line
        ("dihedral-inf-displacement", displacement_action(dq), 0, 2),
        ("rot90-inner", inner_action(galex_lattice(ROT90)), (0, 0), 1),
        ("minus-identity-inner", inner_action(galex_lattice(MINUS_I)), (0, 0), 1),
        ("order-3-inner", inner_action(galex_lattice(ORDER3)), (0, 0), 1),
        ("rot90-displacement", displacement_action(galex_lattice(ROT90)), (0, 0), 1),
    ]


@pytest.mark.parametrize("name,action,base,ends", _ends_cases(), ids=[c[0] for c in _ends_cases()])
def test_ends_are_stable_under_scaling(name, action, base, ends):
    """The annulus n < d <= 4n and its double 2n < d <= 8n count the same
    ends, and the count is the graph's number of ends."""
    for n in range(1, 13):
        small = ends_estimate(build_ball(action, base, 4 * n), n)
        assert small == ends_estimate(build_ball(action, base, 8 * n), 2 * n) == ends, n


@pytest.mark.parametrize("t", [ROT90, MINUS_I, ORDER3], ids=["rot90", "minus-identity", "order-3"])
def test_inner_growth_of_finite_order_t_is_quadratic(t):
    """log2(|B(2R)| / |B(R)|) rises toward 2, the growth degree of Z^2."""
    volume = np.cumsum(build_ball(inner_action(galex_lattice(t)), (0, 0), 80).sphere_sizes())
    at_20, at_40 = (math.log2(volume[2 * r] / volume[r]) for r in (20, 40))
    assert 1.88 < at_20 < at_40 < 2


def test_cat_map_inner_growth_is_exponential():
    """The sphere sizes of the cat map's inner ball grow by a ratio near
    2.64 from sphere 6 on."""
    spheres = build_ball(inner_action(galex_lattice(CAT)), (0, 0), 12).sphere_sizes()
    ratios = [spheres[d + 1] / spheres[d] for d in range(6, 12)]
    assert all(2.6 <= r <= 2.72 for r in ratios), ratios


def _polytope_norm(v, translations) -> Fraction:
    """||v||_P for P = conv(+-translations) in the plane, exactly: the
    least a + b with v = a p + b q, a, b >= 0, over independent p, q in
    +-translations, as an optimal vertex of the linear program has at most
    two nonzero weights."""
    signed = [*translations, *(tuple(-c for c in w) for w in translations)]
    norms = []
    for p, q in combinations(signed, 2):
        det = p[0] * q[1] - p[1] * q[0]
        if det:
            a, b = Fraction(v[0] * q[1] - v[1] * q[0], det), Fraction(p[0] * v[1] - p[1] * v[0], det)
            if a >= 0 and b >= 0:
                norms.append(a + b)
    return min(norms)


@pytest.mark.parametrize(
    "translations,radius,settle,gap,peak",
    [
        (None, 10, 0, 0, 0),
        ([(1, 0), (0, 1), (1, 1)], 10, 0, 0, 0),
        ([(2, 1), (1, 3), (1, 1)], 14, 4, Fraction(16, 5), Fraction(16, 5)),
        ([(3, 0), (0, 2), (1, 1)], 16, 6, Fraction(11, 3), Fraction(9, 2)),
    ],
    ids=["default", "unit-and-diagonal", "non-basis-16/5", "non-basis-11/3"],
)
def test_lattice_word_metric_is_the_polytope_norm_up_to_a_bounded_gap(translations, radius, settle, gap, peak):
    """On rot90, each vertex's depth under translations S is at least its
    norm ||v||_P, P = conv(+-S); the largest gap on a sphere stops growing
    from sphere ``settle`` on.  A basis of the lattice has gap 0, so the
    non-basis sets are the ones that test the bound."""
    q = galex_lattice(ROT90)
    if translations is None:
        gens = q.displacement_generators()
    else:
        gens = [(f"t{w}", LatticeAffine.translation(q.t, w)) for w in translations]
    ball = build_ball(displacement_action(q, gens), q.zero(), radius)
    vectors = [aut.shift for _, aut in gens]
    gaps = [Fraction(0)] * (radius + 1)
    for v, depth in zip(ball.elements, ball.depth.tolist()):
        norm = _polytope_norm(v, vectors)
        assert depth >= norm, v
        gaps[depth] = max(gaps[depth], depth - norm)
    assert gaps[settle:] == [gap] * (radius + 1 - settle) and max(gaps) == peak, gaps
