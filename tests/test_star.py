import ast
import inspect
import operator
import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from deltastar import (
    DegreeCapError,
    DeltaTerm,
    PiecewiseDist,
    Poly,
    add,
    delta_dist,
    derivative,
    from_poly,
    heaviside,
    scale,
    star,
    star_limit_oracle,
)
from deltastar import limit_oracle
from deltastar.dist_core import delta_times_smooth
from helpers import rand_dist, rand_scalar

H = heaviside(0, n=1)
D = delta_dist(0, 0, 1, n=1)
Dp = delta_dist(0, 1, 1, n=1)


def both_ways(F, G):
    P = star(F, G)
    assert P == star_limit_oracle(F, G)
    return P


def test_fixed_table():
    assert both_ways(D, H) == D
    assert both_ways(H, D).is_zero
    assert both_ways(Dp, H) == Dp
    assert both_ways(H, Dp).is_zero
    assert both_ways(D, D).is_zero


def test_smooth_factors_multiply():
    x = from_poly(Poly([0, 1]))
    x2 = from_poly(Poly([0, 0, 1]))
    assert both_ways(x, x2) == from_poly(Poly([0, 0, 0, 1]))


def test_delta_prime_picks_up_jet():
    # delta' * (1 + x) = delta' - delta
    F = from_poly(Poly([1, 1]), n=1)
    assert both_ways(Dp, F) == add(Dp, scale(-1, D))


def test_heaviside_plus_delta_idempotent():
    S = add(H, D)
    assert both_ways(S, S) == S


def test_not_commutative():
    assert star(D, H) != star(H, D)


def test_matches_limit_oracle_randomized():
    rng = random.Random(301)
    for _ in range(150):
        F = rand_dist(rng, n=1, max_order=1)
        G = rand_dist(rng, n=1, max_order=1)
        assert star(F, G) == star_limit_oracle(F, G)


def test_bilinear():
    rng = random.Random(302)
    for _ in range(60):
        F = rand_dist(rng)
        G = rand_dist(rng)
        K = rand_dist(rng)
        c = rand_scalar(rng)
        assert star(scale(c, F), G) == scale(c, star(F, G))
        assert star(F, scale(c, G)) == scale(c, star(F, G))
        assert star(add(F, K), G) == add(star(F, G), star(K, G))


def test_associative():
    rng = random.Random(303)
    for _ in range(80):
        F = rand_dist(rng, max_deg=2)
        G = rand_dist(rng, max_deg=2)
        K = rand_dist(rng, max_deg=2)
        assert star(star(F, G), K) == star(F, star(G, K))


def test_leibniz_on_pairs_with_room_for_the_derivative():
    # d(F*G) = dF*G + F*dG, for delta orders at most n-1
    rng = random.Random(304)
    for _ in range(100):
        F = rand_dist(rng, n=2, max_order=1)
        G = rand_dist(rng, n=2, max_order=1)
        lhs = derivative(star(F, G))
        rhs = add(star(derivative(F), G), star(F, derivative(G)))
        assert lhs == rhs


def test_degree_cap_guards_products():
    x5 = from_poly(Poly([0, 0, 0, 0, 0, 1]))
    with pytest.raises(DegreeCapError):
        star(x5, x5)


def test_delta_at_shared_breakpoint_uses_one_sided_piece():
    # F has a jump at 0; G carries the delta there.  G's delta must see
    # F's left piece, not the right one.
    F = add(heaviside(0, n=1), from_poly(Poly([2]), n=1))  # 2 left, 3 right
    P = star(F, D)
    assert P == scale(2, D)
    assert star_limit_oracle(F, D) == P


def test_limit_oracle_takes_only_the_data_types_from_dist_core():
    # the oracle checks star only while it shares none of star's code
    own = []
    for node in ast.walk(ast.parse(inspect.getsource(limit_oracle))):
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.split(".")[0] == "deltastar"
        ):
            own.append((node.module, sorted(a.name for a in node.names)))
        elif isinstance(node, ast.Import):
            assert not [a for a in node.names if a.name.startswith("deltastar")]
    assert own == [("dist_core", ["DeltaTerm", "PiecewiseDist", "Scalar"])]


def _star_with(F, G, sides=(1, 0), expand=delta_times_smooth, combine=operator.mul):
    """star as its docstring states it, with each rule replaceable: a delta
    of F reads G's piece on side sides[0] of its point (1 right, 0 left)
    and one of G reads F's on side sides[1]; point masses expand against
    that piece by expand, and pieces combine by combine."""
    pts = sorted(set(F.breakpoints) | set(G.breakpoints))
    fs, gs = F.pieces_over(pts), G.pieces_over(pts)
    deltas = []
    for ds, other, side in ((F.deltas, gs, sides[0]), (G.deltas, fs, sides[1])):
        for d in ds:
            piece = other[bisect_left(pts, d.point) + side]
            deltas += [DeltaTerm(t.point, t.order, d.coeff * t.coeff)
                       for t in expand(d.order, d.point, piece)]
    pieces = [combine(a, b) for a, b in zip(fs, gs)]
    return PiecewiseDist(max(F.n, G.n), pts, pieces, deltas)


def _unsigned(j, x0, f):
    return [DeltaTerm(t.point, t.order, t.coeff * (-1) ** (j - t.order))
            for t in delta_times_smooth(j, x0, f)]


def _first_term_only(j, x0, f):
    return delta_times_smooth(j, x0, f)[:1]


def test_limit_oracle_catches_faulty_products():
    rng = random.Random(318)
    corpus = []
    for _ in range(120):
        n = rng.choice((1, 2))
        corpus.append((rand_dist(rng, n=n), rand_dist(rng, n=n)))
    for F, G in corpus:
        P = star(F, G)
        assert star_limit_oracle(F, G) == P
        assert _star_with(F, G) == P
    faulty = {
        "sides swapped": {"sides": (0, 1)},
        "expansion sign dropped": {"expand": _unsigned},
        "k = 0 term only": {"expand": _first_term_only},
        "pieces added": {"combine": operator.add},
    }
    for name, fault in faulty.items():
        assert any(_star_with(F, G, **fault) != star_limit_oracle(F, G)
                   for F, G in corpus), name
