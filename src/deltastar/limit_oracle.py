"""Defining-limit reference for the one-sided product, in exact arithmetic.

star(F, G) is defined as the limit of the classical product
F(x) * G(x + eps) as eps -> 0 from above.  This module evaluates that
definition directly and symbolically, sharing no code with the closed
form in dist_core: eps is a formal positive infinitesimal.

Representation:

  * an "eps-scalar" is a polynomial in eps with Scalar coefficients,
    stored as a tuple (constant term first, trailing zeros stripped);
  * an "eps-poly" is a polynomial in x whose coefficients are eps-scalars,
    stored as a list;
  * a symbolic point is a pair (base, k) standing for base + k*eps with
    k in {-1, 0}; lexicographic order on the pairs is exactly the order
    of the corresponding reals for every eps below the smallest gap
    between distinct bases, so no concrete eps is ever chosen.

Shifting G left by eps moves its breakpoints and delta locations from
(b, 0) to (b, -1) and replaces each piece g(x) by g(x + eps), after which
the two singular supports are disjoint and the product is classical:
pieces multiply, and every point mass multiplies the other factor's
(locally polynomial) value.  Letting eps -> 0 keeps the constant term of
every eps-scalar, collapses each symbolic point to its base, and drops
the intervals whose endpoints share a base.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb

from .dist_core import DeltaTerm, PiecewiseDist, Scalar

# -- eps-scalars -------------------------------------------------------------


def _etrim(u):
    u = list(u)
    while u and u[-1].is_zero:
        u.pop()
    return tuple(u)


def _eadd(u, v):
    if len(u) < len(v):
        u, v = v, u
    return _etrim(c + (v[k] if k < len(v) else 0) for k, c in enumerate(u))


def _emul(u, v):
    if not u or not v:
        return ()
    out = [Scalar(0)] * (len(u) + len(v) - 1)
    for j, a in enumerate(u):
        for k, b in enumerate(v):
            out[j + k] = out[j + k] + a * b
    return _etrim(out)


def _escale(c, u):
    return _etrim(c * a for a in u)


def _econst(c):
    return _etrim([c])


def _const_term(u):
    return u[0] if u else Scalar(0)


# -- eps-polys ---------------------------------------------------------------


def _ptrim(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def _pmul(f, g):
    if not f or not g:
        return []
    out = [()] * (len(f) + len(g) - 1)
    for j, a in enumerate(f):
        for k, b in enumerate(g):
            out[j + k] = _eadd(out[j + k], _emul(a, b))
    return _ptrim(out)


def _pderiv(f):
    return _ptrim(_escale(Scalar(j), f[j]) for j in range(1, len(f)))


def _peval(f, pt):
    """f at the symbolic point base + k*eps, by Horner's rule."""
    base, k = pt
    x = _etrim((base, Scalar(k)))
    acc = ()
    for c in reversed(f):
        acc = _eadd(_emul(acc, x), c)
    return acc


def _lift(poly):
    """Plain Poly -> eps-poly."""
    return _ptrim(_econst(c) for c in poly.coeffs)


def _lift_shifted(poly):
    """Plain Poly g -> eps-poly for g(x + eps)."""
    cs = poly.coeffs
    out = []
    for j in range(len(cs)):
        out.append(
            _etrim(Scalar(comb(j + m, j)) * cs[j + m] for m in range(len(cs) - j))
        )
    return _ptrim(out)


# -- the oracle ----------------------------------------------------------------


def _piece_containing(pts, pieces, x):
    return pieces[bisect_right(pts, x)]


def _expand_point_mass(pt, order, coeff, smooth):
    """Classical product of coeff*delta^(order)(x - pt) with an eps-poly
    that is polynomial near pt: differentiate onto the test side."""
    out = []
    d = smooth
    for k in range(order + 1):
        val = _peval(d, pt)
        sign = Scalar((-1) ** k * comb(order, k))
        out.append((pt, order - k, _emul(coeff, _emul(_econst(sign), val))))
        d = _pderiv(d)
    return out


def star_limit_oracle(F, G):
    """Evaluate star(F, G) straight from its limit definition."""
    n = max(F.n, G.n)

    fpts = [(b, 0) for b in F.breakpoints]
    fpieces = [_lift(p) for p in F.pieces]
    fdeltas = [((d.point, 0), d.order, _econst(d.coeff)) for d in F.deltas]

    gpts = [(b, -1) for b in G.breakpoints]
    gpieces = [_lift_shifted(p) for p in G.pieces]
    gdeltas = [((d.point, -1), d.order, _econst(d.coeff)) for d in G.deltas]

    # the eps-offset makes the singular supports disjoint by construction
    assert not (set(fpts) | set(p for p, _, _ in fdeltas)) & (
        set(gpts) | set(p for p, _, _ in gdeltas)
    )

    pts = sorted(set(fpts) | set(gpts))
    # piece of an operand on the merged interval starting at p: the merged
    # points refine the operand's own, so it is indexed by how many of the
    # operand's points lie at or before p
    fs = [fpieces[0]] + [fpieces[bisect_right(fpts, p)] for p in pts]
    gs = [gpieces[0]] + [gpieces[bisect_right(gpts, p)] for p in pts]

    pieces = [_pmul(a, b) for a, b in zip(fs, gs)]

    deltas = []
    for pt, order, coeff in fdeltas:
        deltas += _expand_point_mass(pt, order, coeff, _piece_containing(gpts, gpieces, pt))
    for pt, order, coeff in gdeltas:
        deltas += _expand_point_mass(pt, order, coeff, _piece_containing(fpts, fpieces, pt))

    # eps -> 0
    out_pts = sorted({b for b, _ in pts})
    out_pieces = []
    for i in range(len(pts) + 1):
        left = pts[i - 1] if i > 0 else None
        right = pts[i] if i < len(pts) else None
        if left is not None and right is not None and left[0] == right[0]:
            continue  # interval of length eps collapses
        out_pieces.append([_const_term(c) for c in pieces[i]])
    out_deltas = [
        DeltaTerm(pt[0], order, _const_term(coeff)) for pt, order, coeff in deltas
    ]
    return PiecewiseDist(n, out_pts, out_pieces, out_deltas)
