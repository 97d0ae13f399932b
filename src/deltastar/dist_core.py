"""Exact arithmetic for piecewise-polynomial distributions with point masses.

A distribution is stored as a regularity index ``n``, ascending rational
breakpoints x_1 < ... < x_m, the m+1 polynomial pieces living on the open
intervals between them (the first piece starts at -inf, the last ends at
+inf), and a list of point masses c * delta^(j)(x - x_i) sitting on
breakpoints with j <= n.  All coefficients are complex numbers with
rational real and imaginary parts, so every operation in this module is
exact and equality is decidable.  Points (breakpoints and delta locations)
are real Scalars, which order and compare by integer arithmetic; canonical
form is built from their order alone and never hashes them.  Text, a
point's or a coefficient's, is read by one reader, parse_scalar.

Canonical form, built once per result by one builder from typed parts
(the constructor checks outside input, then calls it; every operation
here calls it with parts it made itself, and a sum of any length calls
it once; an atom whose parts are canonical as they stand skips it):

  * breakpoints strictly increasing; every delta location is a breakpoint
    (missing ones are inserted, splitting the covering piece);
  * deltas merged by (point, order), zero coefficients dropped, sorted;
  * a breakpoint carrying no delta whose two adjacent pieces are equal
    polynomials is removed;
  * the zero distribution has no breakpoints and a single zero piece.

The product ``star`` is one-sided: star(F, G) is the limit of
F(x) * G(x + eps) as eps -> 0 from above, so deltas of F see the piece of
G to the *right* of their location while deltas of G see the piece of F
to the *left*.  The product is associative and distributive but not
commutative (star(delta(0), heaviside(0)) = delta(0) while the reverse
order gives 0).  ``hormander_product`` is the classical product of
distributions whose singular supports do not meet; it is symmetric where
defined and agrees with star there.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import groupby
from math import comb, gcd


class AlgebraError(ValueError):
    """Structural violation in exact distribution arithmetic."""


class DegreeCapError(AlgebraError):
    """A polynomial exceeded the configured degree cap."""


class RegularityError(AlgebraError):
    """A delta order exceeded the regularity index of its space."""


class DisjointnessError(AlgebraError):
    """Singular supports meet where the classical product needs them apart."""


class DivergentIntegralError(AlgebraError):
    """A pairing integral has unbounded support with a nonzero integrand."""


class PreconditionError(ValueError):
    """An operation was applied outside its stated domain.

    Raised by the operator layers (boundary_ops, schrodinger, numerics),
    which re-export this class; it lives here so that a caller can catch
    it without importing them.
    """


# --------------------------------------------------------------------------
# scalars


# Fraction computes 10**exponent for "1e<exponent>"; past Python's default
# 4300-digit limit for int text, Scalar.token could not print it anyway
_EXPONENT_CAP = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)
# int() refuses text past sys.get_int_max_str_digits() with advice about
# the interpreter; the input is told what is wrong with it instead
_TOO_LONG = "number has more than %d digits"
# text is input: "1/0" is a malformed number, not arithmetic
_ZERO_DENOMINATOR = "zero denominator in %r"


def _ratio(x):
    """(p, q), q > 0, in lowest terms: the exact rational x, which is an
    int, a Fraction or number text ("3", "-6/4", "0.25", "1e-3")."""
    if type(x) is int:
        return x, 1
    if isinstance(x, str):
        return _fraction_text(x)
    # the Fraction test comes last: an ABCMeta isinstance test is slow to fail
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError("expected an exact rational, got %r" % (x,))


def _digit_ratio(p, q):
    """(p, q), q > 0, in lowest terms: the rational "p/q" ("p" when q is
    None) of ASCII digit strings, p with an optional sign: the groups of
    parse_scalar's anchored match."""
    try:
        a = int(p)
        if q is None:
            return a, 1
        b = int(q)
    except ValueError:
        # the digits are valid, so only their number can be refused
        raise ValueError(_TOO_LONG % sys.get_int_max_str_digits()) from None
    if not b:
        raise ValueError(_ZERO_DENOMINATOR % (p + "/" + q))
    g = gcd(a, b)
    return a // g, b // g


def _fraction_text(x):
    """(p, q), q > 0, in lowest terms, of number text ("3/4", "0.25",
    "1e-3", "1_000", non-ASCII digits) by Fraction's parser."""
    m = _EXPONENT.search(x)
    if m:
        digits = m.group(1).replace("_", "")
        if len(digits) > _EXPONENT_CAP or int(digits or 0) > _EXPONENT_CAP:
            raise ValueError("exponent too large in %r" % x)
    try:
        f = Fraction(x)
    except ZeroDivisionError:
        raise ValueError(_ZERO_DENOMINATOR % x) from None
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):
            raise ValueError(_TOO_LONG % sys.get_int_max_str_digits()) from None
        # any other text Fraction refuses is not a number
        if not str(exc).startswith("Invalid literal"):
            raise
        raise ValueError("malformed number %r" % x) from None
    return f.numerator, f.denominator


class Scalar:
    """Complex number with exact rational real and imaginary parts.

    Accepts ints, Fractions and strings Fraction understands ("3/4",
    "0.25") for either part, read by Fraction's parser.  Where whole
    scalars are coerced, text is read by parse_scalar, which takes the
    token form ("2i", "1-3/4i") too.  Arithmetic mixes freely with ints
    and Fractions; floats are rejected to keep everything exact.

    Stored as one Gaussian rational (a + b i) / d of three ints with
    d > 0 and gcd(a, b, d) == 1.  The form is canonical, so equality
    compares the three ints.  ``re`` and ``im`` are Fractions built on
    demand, and so is the hash, that of the Fraction (real) or of the
    pair (re, im): canonical form orders points and never hashes them.
    A real Scalar orders exactly against real Scalars, ints, Fractions and
    floats (inf and nan included) and converts with float(); ordering a
    non-real one raises TypeError.  Equality with a float stays False, as
    arithmetic with one is refused.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        self._a, self._b, self._d = _gaussian(_ratio(re), _ratio(im))

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    @property
    def is_zero(self):
        return not (self._a or self._b)

    @property
    def is_real(self):
        return not self._b

    def conjugate(self):
        return _mk(self._a, -self._b, self._d) if self._b else self

    def __bool__(self):
        return bool(self._a or self._b)

    def __add__(self, other):
        if type(other) is not Scalar:
            if type(other) is int:
                return _mk(self._a + other * self._d, self._b, self._d)
            other = as_scalar_or_none(other)
            if other is None:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not (c or e):
            return self
        if not (a or b):
            return other
        if d == f:
            return _norm(a + c, b + e, d)
        return _norm(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            if type(other) is int:
                return _mk(self._a - other * self._d, self._b, self._d)
            other = as_scalar_or_none(other)
            if other is None:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not (c or e):
            return self
        if d == f:
            return _norm(a - c, b - e, d)
        return _norm(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        other = as_scalar_or_none(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            if type(other) is int:
                return _norm(self._a * other, self._b * other, self._d)
            other = as_scalar_or_none(other)
            if other is None:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not (a or b):
            return self
        if not (c or e):
            return other
        return _norm(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = as_scalar_or_none(other)
            if other is None:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not e:
            if not c:
                raise ZeroDivisionError("scalar division by zero")
            if c < 0:
                f = -f
                c = -c
            return _norm(a * f, b * f, d * c)
        # multiply through by the conjugate of the divisor
        n = c * c + e * e
        return _norm((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __rtruediv__(self, other):
        other = as_scalar_or_none(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _mk(-self._a, -self._b, self._d) if self._a or self._b else self

    def __eq__(self, other):
        if type(other) is not Scalar:
            if type(other) is int:
                return self._a == other and not self._b and self._d == 1
            # a string is text, not a number: it is never equal to one
            other = None if isinstance(other, str) else as_scalar_or_none(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # equal values hash equal: a real Scalar hashes as its Fraction
        return hash((self.re, self.im)) if self._b else hash(self.re)

    def __lt__(self, other):
        if type(other) is Scalar and not (self._b or other._b):
            return self._a * other._d < other._a * self._d
        return _order(self, other, operator.lt)

    def __le__(self, other):
        return _order(self, other, operator.le)

    def __gt__(self, other):
        return _order(self, other, operator.gt)

    def __ge__(self, other):
        return _order(self, other, operator.ge)

    def __float__(self):
        if self._b:
            raise TypeError("non-real scalar %s has no float value" % self.token())
        return self._a / self._d

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def as_integer_ratio(self):
        """(p, q), q > 0, in lowest terms, of a real scalar, as int, Fraction
        and float give it; a non-real scalar raises TypeError."""
        if self._b:
            raise TypeError("non-real scalar %s has no integer ratio" % self.token())
        return self._a, self._d

    def token(self):
        """Canonical text form: "p/q", "p/qi" or "a+bi" (lowest terms)."""
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio_token(a, d)
        if not a:
            return _ratio_token(b, d) + "i"
        sign = "+" if b > 0 else "-"
        return _ratio_token(a, d) + sign + _ratio_token(abs(b), d) + "i"

    def __repr__(self):
        return self.token()


_new = object.__new__


def _mk(a, b, d):
    """Scalar (a + b i) / d from parts already in lowest terms, d > 0."""
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _norm(a, b, d):
    """Scalar (a + b i) / d, reduced; d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _mk(a // g, b // g, d // g)
    return _mk(a, b, d)


def _gaussian(re, im):
    """The parts (a, b, d) of re + im i, each given as (p, q) in lowest terms."""
    (p, q), (r, s) = re, im
    if s == 1:
        return p, r * q, q
    d = q * s // gcd(q, s)
    # each part is in lowest terms, so gcd(a, b, d) == 1 already
    return p * (d // q), r * (d // s), d


def _order(s, other, op):
    """op(s, other) for an order operator op, exactly: s a real Scalar,
    other a real Scalar, an int, a Fraction or a float."""
    if s._b or type(other) is Scalar and other._b:
        raise TypeError("a non-real scalar has no order")
    if type(other) is Scalar:
        p, q = other._a, other._d
    elif isinstance(other, float):
        if not math.isfinite(other):
            # every finite value compares with inf and nan as 0 does
            return op(0, other)
        p, q = other.as_integer_ratio()
    elif isinstance(other, (int, Fraction)):
        p, q = other.numerator, other.denominator
    else:
        return NotImplemented
    return op(s._a * q, p * s._d)


_ZERO = _mk(0, 0, 1)


def _ratio_token(n, d):
    """"p/q" or "p": the rational n / d (d > 0) in lowest terms."""
    g = gcd(n, d)
    try:
        return str(n // g) if g == d else "%d/%d" % (n // g, d // g)
    except ValueError:
        # past Python's limit on the digits of int text
        raise AlgebraError("exact value too large to print") from None


def gaussian_integers(scalars):
    """[(x, y), ...]: each scalar times the least common denominator L > 0
    of all of them, x + y i, in integers x and y."""
    L = math.lcm(*(s._d for s in scalars))
    return [(s._a * (L // s._d), s._b * (L // s._d)) for s in scalars]


def as_scalar(x):
    if type(x) is Scalar:
        return x
    s = as_scalar_or_none(x)
    if s is None:
        raise TypeError("cannot use %r as an exact scalar" % (x,))
    return s


def as_scalar_or_none(x):
    if type(x) is Scalar:
        return x
    if type(x) is int:
        return _mk(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    if isinstance(x, str):
        return parse_scalar(x)
    return None


# the forms Scalar.token writes, "p/q", "p/qi" and "a+bi" with each part
# "p" or "p/q" in ASCII digits, in one anchored match
_TOKEN_FORM = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?(?:([-+][0-9]+)(?:/([0-9]+))?i|(i))?")
# an "a+bi" body splits at its last sign that follows neither another
# sign nor an exponent's "e"
_PARTS = re.compile(r"(.*[^-+/.eE])([-+].*)", re.DOTALL)
_UNIT = {"": (1, 1), "+": (1, 1), "-": (-1, 1)}


def parse_scalar(text):
    """Inverse of Scalar.token ("3", "-1/2", "2i", "-i", "1-3/4i"), and the
    one reader of scalar text: its forms by one anchored match, other text
    ("0.25", "+3", "1e-3i", non-ASCII digits) by Fraction's parser."""
    m = _TOKEN_FORM.fullmatch(text)
    if m:
        p, q, r, s, unit = m.groups()
        if r is not None:
            # the imaginary part is read first, as below
            im = _digit_ratio(r, s)
            return _mk(*_gaussian(_digit_ratio(p, q), im))
        a, d = _digit_ratio(p, q)
        return _mk(0, a, d) if unit else _mk(a, 0, d)
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar token")
    if not s.endswith("i"):
        return Scalar(s)
    m = _PARTS.fullmatch(s, 0, len(s) - 1)
    re_part, im_part = m.groups() if m else ("", s[:-1])
    im = _UNIT.get(im_part) or _ratio(im_part)
    return _mk(*_gaussian(_ratio(re_part or 0), im))


# --------------------------------------------------------------------------
# polynomials

_DEGREE_CAP = 8


def degree_cap():
    return _DEGREE_CAP


def set_degree_cap(cap):
    """Set the module-wide polynomial degree cap (default 8)."""
    global _DEGREE_CAP
    if not isinstance(cap, int) or cap < 1:
        raise ValueError("degree cap must be a positive integer")
    _DEGREE_CAP = cap


class Poly:
    """Dense polynomial over Scalar; coeffs[k] multiplies x**k.

    Trailing zero coefficients are stripped, so the zero polynomial has an
    empty coefficient tuple and degree -1.  Construction past the module
    degree cap raises DegreeCapError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Scalar else as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        if len(cs) - 1 > _DEGREE_CAP:
            raise DegreeCapError(
                "polynomial degree %d exceeds cap %d" % (len(cs) - 1, _DEGREE_CAP)
            )
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not (a and b):
            return self if a else other
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for j, a in enumerate(self.coeffs):
                for k, b in enumerate(other.coeffs):
                    out[j + k] = out[j + k] + a * b
            return Poly(out)
        s = as_scalar_or_none(other)
        if s is None:
            return NotImplemented
        return Poly([c * s for c in self.coeffs])

    # only a scalar reaches the reflected product, and scalars commute
    __rmul__ = __mul__

    def deriv(self, k=1):
        cs = self.coeffs
        for _ in range(k):
            cs = tuple(cs[j] * j for j in range(1, len(cs)))
        return Poly(cs)

    def eval(self, x):
        """Exact evaluation; x may be an int, Fraction or Scalar."""
        x = as_scalar(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_float(self, x):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + complex(c)
        return acc

    def __repr__(self):
        return "Poly(%s)" % (", ".join(c.token() for c in self.coeffs))


# the zero polynomial, shared: no Poly changes after construction
_NO_POLY = Poly()


def as_poly(p):
    if isinstance(p, Poly):
        return p
    if isinstance(p, (list, tuple)):
        return Poly(p)
    s = as_scalar_or_none(p)
    if s is not None:
        return Poly([s])
    raise TypeError("cannot use %r as a polynomial" % (p,))


# --------------------------------------------------------------------------
# distributions


def as_point(x):
    """Exact real location on the line, as a real Scalar; text is read by
    parse_scalar."""
    if type(x) is not Scalar:
        if not isinstance(x, (int, Fraction, str)):
            raise TypeError("points must be exact rationals, got %r" % (x,))
        x = parse_scalar(x) if isinstance(x, str) else Scalar(x)
    if x._b:
        raise AlgebraError("point %s is not real" % x.token())
    return x


class DeltaTerm:
    """One point mass coeff * delta^(order)(x - point)."""

    __slots__ = ("point", "order", "coeff")

    def __init__(self, point, order, coeff):
        self.point = as_point(point)
        if not isinstance(order, int) or order < 0:
            raise AlgebraError("delta order must be a nonnegative integer")
        self.order = order
        self.coeff = as_scalar(coeff)

    def __eq__(self, other):
        if not isinstance(other, DeltaTerm):
            return NotImplemented
        return (
            self.point == other.point
            and self.order == other.order
            and self.coeff == other.coeff
        )

    def __hash__(self):
        return hash((self.point, self.order, self.coeff))

    def __repr__(self):
        return "DeltaTerm(%s, %d, %s)" % (self.point, self.order, self.coeff.token())


def _delta(point, order, coeff):
    """DeltaTerm of parts already checked: a real Scalar point, a
    nonnegative int order and a Scalar coeff."""
    d = _new(DeltaTerm)
    d.point = point
    d.order = order
    d.coeff = coeff
    return d


def _index(n):
    """n, checked as a regularity index."""
    if not isinstance(n, int) or n < 0:
        raise AlgebraError("regularity index must be a nonnegative integer")
    return n


_place = operator.attrgetter("point", "order")


def _build(n, pts, ps, deltas, F=None):
    """F (a new PiecewiseDist when None) in the canonical form of typed
    parts: pts strictly increasing real Scalars, ps the len(pts) + 1 Polys
    on the intervals between them and deltas DeltaTerms in any order.
    Every distribution not already canonical is built here: the
    constructor checks outside parts and then calls it, and every
    operation calls it with parts it made itself."""
    # one delta per (point, order), in that order: sorting brings the
    # summands of each place together, and a lone one is kept as given
    ds = []
    for (p, o), same in groupby(sorted(deltas, key=_place), key=_place):
        d, *more = same
        if more:
            d = _delta(p, o, sum((e.coeff for e in more), d.coeff))
        if d.coeff:
            if o > n:
                raise RegularityError(
                    "delta order %d not allowed at regularity index %d" % (o, n)
                )
            ds.append(d)

    # one walk over the breakpoints and the delta points in order, with
    # ps[i] the piece right of the i breakpoints passed: a delta point
    # splits the piece covering it, and a point stays if it holds a delta
    # or the pieces on its two sides differ
    held = [p for p, _ in groupby(d.point for d in ds)]
    kept, kept_ps = [], [ps[0]]
    i = j = 0
    m, h = len(pts), len(held)
    while i < m or j < h:
        if j < h and (i == m or not pts[i] < held[j]):
            p = held[j]
            j += 1
            if i < m and pts[i] == p:
                i += 1
        else:
            p = pts[i]
            i += 1
            if ps[i] == kept_ps[-1]:
                continue
        kept.append(p)
        kept_ps.append(ps[i])

    if F is None:
        F = _new(PiecewiseDist)
    F.n = n
    F.breakpoints = tuple(kept)
    F.pieces = tuple(kept_ps)
    F.deltas = tuple(ds)
    return F


class PiecewiseDist:
    """Canonical piecewise polynomial plus point masses; see module docstring.

    Equality compares the canonical content (breakpoints, pieces, deltas)
    only; the regularity index n is bookkeeping and operations promote it
    as needed.
    """

    __slots__ = ("n", "breakpoints", "pieces", "deltas")

    def __init__(self, n, breakpoints=(), pieces=None, deltas=()):
        _index(n)
        pts = [as_point(p) for p in breakpoints]
        for a, b in zip(pts, pts[1:]):
            if not a < b:
                raise AlgebraError("breakpoints must be strictly increasing")
        if pieces is None:
            ps = [Poly() for _ in range(len(pts) + 1)]
        else:
            ps = [as_poly(p) for p in pieces]
        if len(ps) != len(pts) + 1:
            raise AlgebraError(
                "need %d pieces for %d breakpoints, got %d"
                % (len(pts) + 1, len(pts), len(ps))
            )
        ds = [d if isinstance(d, DeltaTerm) else DeltaTerm(*d) for d in deltas]
        _build(n, pts, ps, ds, self)

    # -- canonical content ------------------------------------------------

    @property
    def is_zero(self):
        return not self.deltas and all(p.is_zero for p in self.pieces)

    def __eq__(self, other):
        if not isinstance(other, PiecewiseDist):
            return NotImplemented
        return (
            self.breakpoints == other.breakpoints
            and self.pieces == other.pieces
            and self.deltas == other.deltas
        )

    def __hash__(self):
        return hash((self.breakpoints, self.pieces, self.deltas))

    def __repr__(self):
        return "PiecewiseDist(n=%d, breakpoints=%s, pieces=%s, deltas=%s)" % (
            self.n,
            list(self.breakpoints),
            list(self.pieces),
            list(self.deltas),
        )

    # -- piece lookup ------------------------------------------------------

    def piece_left_of(self, p):
        return self.pieces[bisect_left(self.breakpoints, p)]

    def piece_right_of(self, p):
        return self.pieces[bisect_right(self.breakpoints, p)]

    def pieces_over(self, pts):
        """Pieces re-expressed over a refinement pts of the breakpoints."""
        out = [self.pieces[0]]
        for p in pts:
            out.append(self.pieces[bisect_right(self.breakpoints, p)])
        return out

    def eval_float(self, x):
        """Pointwise value of the regular part as a complex float."""
        return self.pieces[bisect_right(self.breakpoints, x)].eval_float(x)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PiecewiseDist):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other):
        if not isinstance(other, PiecewiseDist):
            return NotImplemented
        return add(self, scale(-1, other))

    def __neg__(self):
        return scale(-1, self)

    def __mul__(self, other):
        if isinstance(other, PiecewiseDist):
            return star(self, other)
        s = as_scalar_or_none(other)
        if s is None:
            return NotImplemented
        return scale(s, self)

    __rmul__ = __mul__


def canonicalize(n, breakpoints=(), pieces=None, deltas=()):
    """Build the canonical distribution from raw parts."""
    return PiecewiseDist(n, breakpoints, pieces, deltas)


# -- convenience constructors ----------------------------------------------


def zero(n=0):
    return PiecewiseDist(n)


def from_poly(p, n=0):
    return PiecewiseDist(n, (), [as_poly(p)])


def constant(c, n=0):
    return from_poly([c], n)


def heaviside(point=0, n=0):
    """Indicator of (point, +inf): 0 left of point, 1 right of it."""
    # as_point refuses None, which indicator reads as an infinite end
    return indicator(as_point(point), None, 1, n)


def delta_dist(point=0, order=0, coeff=1, n=None):
    d = DeltaTerm(point, order, coeff)
    n = _index(order if n is None else n)
    if d.coeff and d.order <= n:
        # one nonzero delta within the index is canonical as it stands
        return _canonical(n, (d.point,), (_NO_POLY, _NO_POLY), (d,))
    return _build(n, [d.point], [_NO_POLY, _NO_POLY], [d])


def indicator(lo, hi, poly=1, n=0):
    """poly restricted to the open interval (lo, hi); None means infinite."""
    p = as_poly(poly)
    pts, pieces = [], []
    if lo is not None:
        pts.append(as_point(lo))
        pieces.append(_NO_POLY)
    pieces.append(p)
    if hi is not None:
        pts.append(as_point(hi))
        pieces.append(_NO_POLY)
    if len(pts) == 2 and not pts[0] < pts[1]:
        raise AlgebraError("empty interval (%s, %s)" % (lo, hi))
    if p.coeffs:
        # a nonzero piece between zero pieces is canonical as it stands
        return _canonical(_index(n), tuple(pts), tuple(pieces), ())
    return _build(_index(n), pts, pieces, ())


# -- linear structure --------------------------------------------------------


def _joint(F, G):
    """The joint regularity index and merged breakpoints of F and G, and
    the pieces of each over those breakpoints."""
    # both are sorted: sorting the two runs merges them
    pts = [p for p, _ in groupby(sorted(F.breakpoints + G.breakpoints))]
    return max(F.n, G.n), pts, F.pieces_over(pts), G.pieces_over(pts)


def add(F, *more):
    """The sum of one or more distributions: one merge of all their
    breakpoints and one build.

    Each nonzero piece adds into the merged intervals it covers: straight
    into each when it covers at most eight, else in at its first interval
    and out after its last, spread by one running sum.  So the Poly work
    is linear in the pieces and the intervals, where adding a wide piece
    into each of its intervals would be quadratic in a sum of many.
    """
    if not more:
        return F
    terms = (F,) + more
    # each run is sorted: sorting them together merges them
    pts = [p for p, _ in groupby(sorted([p for G in terms for p in G.breakpoints]))]
    m = len(pts)
    sums = [_NO_POLY] * (m + 1)
    edges = None
    for G in terms:
        # piece k of G covers the intervals start, ..., stop - 1
        start, bps = 0, G.breakpoints
        for k, piece in enumerate(G.pieces):
            stop = bisect_left(pts, bps[k], start) + 1 if k < len(bps) else m + 1
            if piece.coeffs and stop - start <= 8:
                # the running sum pays off only where many wide pieces
                # overlap, which a piece over few intervals rarely meets
                for i in range(start, stop):
                    sums[i] = sums[i] + piece
            elif piece.coeffs:
                if edges is None:
                    edges = [_NO_POLY] * (m + 1)
                edges[start] = edges[start] + piece
                if stop <= m:
                    edges[stop] = edges[stop] - piece
            start = stop
    if edges is not None:
        run = _NO_POLY
        for i, edge in enumerate(edges):
            if edge.coeffs:
                run = run + edge
            if run.coeffs:
                sums[i] = sums[i] + run
    return _build(max(G.n for G in terms), pts, sums,
                  [d for G in terms for d in G.deltas])


def _canonical(n, breakpoints, pieces, deltas):
    """A PiecewiseDist of parts already in canonical form, not rebuilt."""
    F = _new(PiecewiseDist)
    F.n, F.breakpoints, F.pieces, F.deltas = n, breakpoints, pieces, deltas
    return F


def scale(c, F):
    c = as_scalar(c)
    if not c:
        return zero(F.n)
    # a nonzero factor keeps every canonical property of F
    return _canonical(
        F.n,
        F.breakpoints,
        tuple(p * c if p.coeffs else p for p in F.pieces),
        tuple(_delta(d.point, d.order, c * d.coeff) for d in F.deltas),
    )


def reindex(F, n):
    """F at regularity index n; only the delta orders are checked."""
    if type(n) is int and n >= 0 and all(d.order <= n for d in F.deltas):
        return _canonical(n, F.breakpoints, F.pieces, F.deltas)
    # the constructor raises the error
    return PiecewiseDist(n, F.breakpoints, F.pieces, F.deltas)


# -- products ----------------------------------------------------------------


def delta_times_smooth(j, x0, f):
    """Expansion of delta^(j)(x - x0) * f(x) into point masses at x0.

    Moving the smooth factor onto the test function and differentiating j
    times gives

        delta^(j)(x - x0) f = sum_k (-1)^k C(j,k) f^(k)(x0) delta^(j-k)(x - x0).
    """
    x0 = as_point(x0)
    f = as_poly(f)
    if not isinstance(j, int):
        raise AlgebraError("delta order must be a nonnegative integer")
    out = []
    # derivatives of f above its degree vanish
    for k in range(min(j, f.degree) + 1):
        if k:
            f = f.deriv()
        c = f.eval(x0) * ((-1) ** k * comb(j, k))
        out.append(_delta(x0, j - k, c))
    return out


def order_of(F):
    """0 for a regular distribution, otherwise max delta order + 1."""
    if not F.deltas:
        return 0
    return max(d.order for d in F.deltas) + 1


def n_sing_supp(F, k):
    """Points where F fails to be k-times continuously differentiable.

    These are the delta points of the (k+1)-th derivative: each
    derivative moves F's deltas up one order and adds the jumps of its
    pieces, so no two land on the same order.  A piece of degree m has no
    jump above order m, so derivatives past the highest degree add no
    point and are not taken.
    """
    for _ in range(min(k, max(p.degree for p in F.pieces)) + 1):
        F = derivative(F)
    return tuple(p for p, _ in groupby(d.point for d in F.deltas))


def hormander_product(F, G):
    """Classical product; requires the singular supports to be disjoint.

    The disjointness is checked at the joint regularity index
    n = max(F.n, G.n): each delta of one factor must sit where the other
    factor is C^n, so its order-<= n jet is the same from either side, and
    star, which reads it from one side, gives the classical product.
    """
    n = max(F.n, G.n)
    theirs = n_sing_supp(G, n)
    overlap = [p for p in n_sing_supp(F, n) if p in theirs]
    if overlap:
        raise DisjointnessError("singular supports meet at %s" % overlap)
    return star(F, G)


def star(F, G):
    """One-sided product: the limit of F(x) G(x + eps) as eps -> 0+.

    Over the merged breakpoints, pieces multiply pointwise; a delta of F
    at p is expanded against the piece of G immediately to the right of p,
    and a delta of G at p against the piece of F immediately to the left.
    The result does not depend on the chosen refinement because the
    expansion only samples jets of order <= n, which agree across
    breakpoints at matched points.
    """
    n, pts, fs, gs = _joint(F, G)
    deltas = []
    # other[i] is the piece left of pts[i], other[i + 1] the one right of it
    for ds, other, right in ((F.deltas, gs, 1), (G.deltas, fs, 0)):
        for d in ds:
            i = bisect_left(pts, d.point) + right
            deltas += [
                _delta(t.point, t.order, d.coeff * t.coeff)
                for t in delta_times_smooth(d.order, d.point, other[i])
            ]
    return _build(n, pts, [a * b for a, b in zip(fs, gs)], deltas)


# -- calculus ----------------------------------------------------------------


def derivative(F):
    """Distributional derivative.

    Pieces differentiate; each breakpoint contributes a jump delta
    (right value - left value) delta(x - p); existing deltas move up one
    order.  The regularity index grows just enough to hold the new
    highest delta order.
    """
    deltas = [_delta(d.point, d.order + 1, d.coeff) for d in F.deltas]
    for i, p in enumerate(F.breakpoints):
        jump = F.pieces[i + 1].eval(p) - F.pieces[i].eval(p)
        deltas.append(_delta(p, 0, jump))
    n = F.n
    if deltas:
        n = max(n, max(d.order for d in deltas))
    return _build(n, F.breakpoints, [p.deriv() for p in F.pieces], deltas)


def restrict(F, interval):
    """Restriction to an open interval (lo, hi); None bounds are infinite.

    The restriction is the one-sided product with the interval's indicator
    on both sides, indicator * F * indicator.  Pieces are multiplied by 1
    inside the interval and by 0 outside, and star keeps F.n.  In
    indicator * F a delta of F reads the indicator just left of its point,
    which is 0 at lo and outside; in (...) * indicator it reads the
    indicator just right of its point, which is 0 at hi.  So exactly the
    deltas strictly inside the interval survive.
    """
    lo, hi = interval
    one = indicator(lo, hi)
    return star(star(one, F), one)


def pair_polynomial_test(F, t, interval=(None, None)):
    """Exact pairing <F, t> against a polynomial test function.

    t is treated as compactly supported on the (open) interval: F is
    restricted to it, its pieces are integrated and its deltas contribute
    (-1)^order coeff t^(order)(point).  An infinite part of the interval
    where both the piece and t are nonzero raises DivergentIntegralError.
    """
    t = as_poly(t)
    F = restrict(F, interval)
    bounds = (None,) + F.breakpoints + (None,)
    total = Scalar(0)
    for a, b, piece in zip(bounds, bounds[1:], F.pieces):
        if piece.is_zero or t.is_zero:
            continue
        if a is None or b is None:
            raise DivergentIntegralError(
                "nonzero integrand on an unbounded interval"
            )
        # the integral of x**(m - 1) over (a, b), m = 1, 2, ...
        ints, am, bm = [], a, b
        for m in range(1, len(piece.coeffs) + len(t.coeffs)):
            ints.append((bm - am) / m)
            am, bm = am * a, bm * b
        for j, cf in enumerate(piece.coeffs):
            for k, ct in enumerate(t.coeffs):
                total = total + cf * ct * ints[j + k]
    for d in F.deltas:
        total = total + d.coeff * t.deriv(d.order).eval(d.point) * (
            (-1) ** d.order
        )
    return total
