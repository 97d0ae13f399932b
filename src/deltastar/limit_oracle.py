"""Defining-limit reference for the one-sided product, in exact arithmetic.

star(F, G) is defined as the limit of the classical product
F(x) * G(x + eps) as eps -> 0 from above.  This module evaluates that
definition directly and symbolically, sharing no code with the closed
form in dist_core: eps is a formal positive infinitesimal.

Shifting G left by eps moves its breakpoints and delta locations from
b to b - eps and replaces each piece g(x) by g(x + eps), after which the
two singular supports are disjoint and the product is classical: pieces
multiply, and every point mass multiplies the other factor's (locally
polynomial) value, differentiated onto the test side.

Every quantity in that classical product is a polynomial in eps, since
nothing divides, and its limit as eps -> 0 is its constant term.  Taking
the constant term commutes with sums, products, d/dx and evaluation at a
point, so each value is computed at eps = 0 from the start: the shifted
piece g(x + eps) is read as g(x), and a value at b - eps as the value at
b.  Polynomials in x are tuples or lists of Scalar coefficients,
constant term first.

eps survives the limit only in the order of the points, where it decides
which piece each point mass reads.  A symbolic point is a pair (base, k)
standing for base + k*eps, with G's points at k = -1 and F's at k = 0;
lexicographic order on the pairs is exactly the order of the
corresponding reals for every eps below the smallest gap between
distinct bases, so no concrete eps is ever chosen.  A delta of F at b
therefore reads the piece of G right of b, and a delta of G at b the
piece of F left of b.  Letting eps -> 0 collapses each symbolic point to
its base and drops the intervals whose endpoints share a base.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import groupby
from math import comb

from .dist_core import DeltaTerm, PiecewiseDist, Scalar

# -- polynomials in x ----------------------------------------------------------


def _pmul(f, g):
    out = [Scalar(0)] * (len(f) + len(g) - 1)
    for j, a in enumerate(f):
        for k, b in enumerate(g):
            out[j + k] = out[j + k] + a * b
    return out


def _pderiv(f):
    return [Scalar(j) * f[j] for j in range(1, len(f))]


def _peval(f, x):
    """f at the point x, by Horner's rule."""
    acc = Scalar(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


# -- the oracle ----------------------------------------------------------------


def _piece_containing(pts, pieces, x):
    return pieces[bisect_right(pts, x)]


def _expand_point_mass(pt, order, coeff, smooth):
    """Classical product of coeff*delta^(order)(x - pt) with a polynomial
    smooth near pt, differentiated onto the test side; eps -> 0 puts
    every resulting point mass at pt's base."""
    base = pt[0]
    out = []
    d = smooth
    for k in range(order + 1):
        sign = Scalar((-1) ** k * comb(order, k))
        out.append(DeltaTerm(base, order - k, coeff * (sign * _peval(d, base))))
        d = _pderiv(d)
    return out


def star_limit_oracle(F, G):
    """Evaluate star(F, G) straight from its limit definition."""
    n = max(F.n, G.n)

    fpts = [(b, 0) for b in F.breakpoints]
    fpieces = [p.coeffs for p in F.pieces]
    fdeltas = [((d.point, 0), d.order, d.coeff) for d in F.deltas]

    # the pieces g(x + eps) of the shifted G are g(x) at eps = 0
    gpts = [(b, -1) for b in G.breakpoints]
    gpieces = [p.coeffs for p in G.pieces]
    gdeltas = [((d.point, -1), d.order, d.coeff) for d in G.deltas]

    # the eps-offset makes the singular supports disjoint by construction:
    # no point of F (k = 0) is a point of G (k = -1), so merging the two
    # sorted runs of distinct points needs no dedupe
    pts = sorted(fpts + gpts)
    # piece of an operand on the merged interval starting at p: the merged
    # points refine the operand's own, so it is indexed by how many of the
    # operand's points lie at or before p
    fs = [fpieces[0]] + [fpieces[bisect_right(fpts, p)] for p in pts]
    gs = [gpieces[0]] + [gpieces[bisect_right(gpts, p)] for p in pts]

    deltas = []
    for pt, order, coeff in fdeltas:
        deltas += _expand_point_mass(pt, order, coeff, _piece_containing(gpts, gpieces, pt))
    for pt, order, coeff in gdeltas:
        deltas += _expand_point_mass(pt, order, coeff, _piece_containing(fpts, fpieces, pt))

    # eps -> 0
    out_pts = [b for b, _ in groupby(b for b, _ in pts)]
    out_pieces = []
    for i in range(len(pts) + 1):
        left = pts[i - 1] if i > 0 else None
        right = pts[i] if i < len(pts) else None
        if left is not None and right is not None and left[0] == right[0]:
            continue  # interval of length eps collapses
        out_pieces.append(_pmul(fs[i], gs[i]))
    return PiecewiseDist(n, out_pts, out_pieces, deltas)
