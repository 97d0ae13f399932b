"""Text forms: an expression grammar and a line-oriented record codec.

Expression grammar (whitespace-insensitive)::

    expr     := ["+"|"-"] term (("+"|"-") term)*
    term     := atom ("*" atom)*                    # "*" is the one-sided product
    atom     := "delta" ["'" | "^" INT] "(" point ")"
              | "heaviside" "(" point ")"
              | "piece" "(" bound "," bound ":" poly ")"
              | "D" "(" expr ")"                    # distributional derivative
              | "(" expr ")"
              | scalar                              # constant distribution
    bound    := point | "inf" | "-inf"
    point    := ["+"|"-"] NUMBER                    # exact rational, e.g. 1/2 or 0.25
    poly     := ["+"|"-"] pterm (("+"|"-") pterm)*
    pterm    := scalar ["*"] ["x" ["^" INT]] | "x" ["^" INT]
    scalar   := NUMBER ["i"] | "i"

The one-sided product is bilinear, so the constant factors of a term
multiply into one scalar, applied by one scale: "2*delta(0)" is
scale(2, delta(0)), not a product with a constant distribution.  A zero
factor zeroes the product where it stands, as the product would.  A
constant subexpression stays a scalar until D(...) or the result needs
a distribution.  Complex
coefficients are written as separate real and imaginary terms, e.g.
"1/2*delta(0) + 3i*delta(0)", which keeps the formatter inside the
grammar.  "3/4i" means (3/4)i.

One regular-expression scan splits the text into tokens, each match a
token with the whitespace before it; a number token carries its Scalar,
so each number is read once, by parse_scalar, the one reader of scalar
text that also reads the record words below.  The terms of a sum are
added by one add of all of them.  Syntax errors raise ExprError
carrying the character offset (equal to the byte offset for this ASCII
grammar) and the set of expected tokens.  Every ValueError of the layer below (a malformed
number, an AlgebraError of star, derivative, indicator or the regularity
cap) goes through one translator, _read, into an ExprError at the offset
of the construct that raised it.

The record codec is line-oriented: a header line, one "key value..."
line per field or row, and "end", with scalars in Scalar.token() form,
which parse_scalar reads by one anchored match.  A distribution has its
own layout; one table maps the header of each of the seven other kinds
to its class and layout, and an object's exact type decides its kind.  Fields go in declaration order (SeparatingSA's
a_minus... are keyed a-, b-, a+, b+).  A zero denominator in any number
is an ExprError.  encode() output is byte-stable; decode(encode(x)) == x.
"""

from __future__ import annotations

import functools
import re
from types import MappingProxyType

from .dist_core import (
    AlgebraError,
    DeltaTerm,
    PiecewiseDist,
    Poly,
    PreconditionError,
    Scalar,
    _ratio_token,
    add,
    as_point,
    constant,
    degree_cap,
    delta_dist,
    derivative,
    heaviside,
    indicator,
    parse_scalar,
    reindex,
    scale,
    star,
    zero,
)


class ExprError(ValueError):
    """Parse failure with position and, for syntax errors, expectations."""

    def __init__(self, message, pos=0, expected=()):
        self.pos = pos
        self.expected = frozenset(expected)
        tail = ""
        if expected:
            tail = " (expected %s)" % ", ".join(sorted(self.expected))
        super().__init__("%s at offset %d%s" % (message, pos, tail))


# each match is a token with the whitespace before it; every other
# character is at worst "bad", so the matches tile the text up to any
# trailing whitespace
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:/\d+)?i?)|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>[()+\-*^,:'])|(?P<bad>\S))"
)
_IMAGINARY_UNIT = Scalar(0, 1)


def _read(pos, fn, *args):
    """fn(*args), with its ValueError raised as an ExprError at pos."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ExprError(str(exc), pos) from exc


def _tokenize(text):
    """(kind, value, offset) tokens, then ("end", None, len(text)); the
    value of a "num" or "imag" (ending in "i") token is its Scalar, read
    by parse_scalar."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word = m.group(kind)
        pos = m.start(kind)
        if kind == "num":
            kind = "imag" if word[-1] == "i" else "num"
            toks.append((kind, _read(pos, parse_scalar, word), pos))
        elif kind == "name":
            toks.append(("imag", _IMAGINARY_UNIT, pos) if word == "i" else ("name", word, pos))
        elif kind == "op":
            toks.append((word, word, pos))
        else:
            raise ExprError("unexpected character %r" % word, pos)
    toks.append(("end", None, len(text)))
    return toks


class _Parser:
    def __init__(self, text, n_cap=None):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0
        self.n_cap = n_cap

    def peek(self):
        return self.toks[self.k]

    def next(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            self.fail(tok, {kind})
        return tok

    def fail(self, tok, expected):
        raise ExprError("unexpected %s" % _describe(tok), tok[2], expected)

    def sign(self):
        """Read an optional "+" or "-": -1 for "-", otherwise 1."""
        if self.peek()[0] in ("+", "-"):
            return -1 if self.next()[0] == "-" else 1
        return 1

    # -- distributions ---------------------------------------------------

    def expr(self):
        """A sum of terms: a Scalar when every term is constant."""
        terms = [self.term(self.sign())]
        while self.peek()[0] in ("+", "-"):
            terms.append(self.term(self.sign()))
        if all(type(t) is Scalar for t in terms):
            return sum(terms, Scalar(0))
        return add(*map(_dist, terms))

    def term(self, sign):
        """sign times a product of atoms.  Its constant factors multiply
        into one Scalar c, which takes the sign last and is applied by one
        scale; the term is a Scalar when every factor is constant.  A zero
        factor zeroes the product where it stands, as star would, so no
        later star can fail, and the zero keeps the regularity index of
        the factors before it."""
        c = out = None
        while True:
            a = self.atom()
            if type(a) is Scalar:
                c = a if c is None else c * a
                if not c:
                    out, c, sign = zero(0 if out is None else out.n), None, 1
            else:
                out = a if out is None else _read(pos, star, out, a)
            if self.peek()[0] != "*":
                break
            pos = self.next()[2]
        if sign < 0:
            c = Scalar(-1) if c is None else -c
        if out is None:
            return c
        return out if c is None or c == 1 else scale(c, out)

    def atom(self):
        tok = self.peek()
        if tok[0] in ("num", "imag"):
            self.next()
            return tok[1]
        if tok[0] == "(":
            self.next()
            out = self.expr()
            self.expect(")")
            return out
        if tok[0] == "name":
            if tok[1] == "delta":
                return self.delta_atom()
            if tok[1] == "heaviside":
                self.next()
                self.expect("(")
                point = self.point()
                self.expect(")")
                return heaviside(point)
            if tok[1] == "piece":
                return self.piece_atom()
            if tok[1] == "D":
                self.next()
                self.expect("(")
                out = self.expr()
                self.expect(")")
                return _read(tok[2], derivative, _dist(out))
        self.fail(tok, {"delta", "heaviside", "piece", "D", "(", "number"})

    def delta_atom(self):
        tok = self.next()
        order = 0
        nxt = self.peek()
        if nxt[0] == "'":
            self.next()
            order = 1
        elif nxt[0] == "^":
            self.next()
            order = self.int_value()
        if self.n_cap is not None and order > self.n_cap:
            raise ExprError(
                "delta order %d exceeds the regularity cap %d"
                % (order, self.n_cap),
                tok[2],
            )
        self.expect("(")
        point = self.point()
        self.expect(")")
        return delta_dist(point, order, 1, n=order)

    def piece_atom(self):
        tok = self.next()
        self.expect("(")
        lo = self.bound()
        self.expect(",")
        hi = self.bound()
        self.expect(":")
        poly = self.poly()
        self.expect(")")
        if lo == "inf":
            raise ExprError("lower bound cannot be +inf", tok[2])
        if hi == "-inf":
            raise ExprError("upper bound cannot be -inf", tok[2])
        lo = None if lo == "-inf" else lo
        hi = None if hi == "inf" else hi
        return _read(tok[2], indicator, lo, hi, poly)

    def point(self):
        sign = self.sign()
        tok = self.next()
        if tok[0] != "num":
            self.fail(tok, {"number"})
        return -tok[1] if sign < 0 else tok[1]

    def bound(self):
        tok = self.peek()
        if tok[0] == "name" and tok[1] == "inf":
            self.next()
            return "inf"
        if tok[0] == "-" and self.toks[self.k + 1][:2] == ("name", "inf"):
            self.next()
            self.next()
            return "-inf"
        return self.point()

    def int_value(self):
        tok = self.next()
        if tok[0] == "num":
            p, q = tok[1].as_integer_ratio()
            if q == 1:
                return p
        self.fail(tok, {"nonnegative integer"})

    # -- polynomials -------------------------------------------------------

    def poly(self):
        coeffs = {}
        self.poly_term(coeffs, self.sign())
        while self.peek()[0] in ("+", "-"):
            self.poly_term(coeffs, self.sign())
        # the cap is checked before the dense coefficient list is built,
        # which for x^100000000 would not finish
        top = max((j for j, c in coeffs.items() if not c.is_zero), default=-1)
        if top > degree_cap():
            raise ExprError(
                "polynomial degree %d exceeds cap %d" % (top, degree_cap()),
                self.peek()[2],
            )
        return Poly([coeffs.get(j, Scalar(0)) for j in range(top + 1)])

    def poly_term(self, coeffs, sign):
        tok = self.peek()
        if tok[0] in ("num", "imag"):
            self.next()
            coeff = -tok[1] if sign < 0 else tok[1]
            if self.peek()[0] == "*" and self.toks[self.k + 1][:2] == ("name", "x"):
                # "2*x": the "*" belongs to the monomial, not an enclosing
                # product, exactly when x follows
                self.next()
        elif tok[0] == "name" and tok[1] == "x":
            coeff = Scalar(sign)
        else:
            self.fail(tok, {"number", "x"})
        deg = 0
        nxt = self.peek()
        if nxt[0] == "name" and nxt[1] == "x":
            self.next()
            deg = 1
            if self.peek()[0] == "^":
                self.next()
                deg = self.int_value()
        old = coeffs.get(deg)
        coeffs[deg] = coeff if old is None else old + coeff


def _dist(x):
    """A parsed expression as a distribution: a Scalar becomes a constant."""
    return constant(x) if type(x) is Scalar else x


def _describe(tok):
    if tok[0] == "end":
        return "end of input"
    if tok[0] == "num":
        return "number %s" % tok[1]
    if tok[0] == "imag":
        return "imaginary number"
    if tok[0] == "name":
        return "'%s'" % tok[1]
    return "'%s'" % tok[0]


def _parse_all(text, n_cap, rule, expected):
    """rule(parser) over the whole of text; expected names what may
    follow where the rule stops short of the end."""
    p = _Parser(text, n_cap)
    try:
        out = rule(p)
    except RecursionError:
        raise ExprError("nested too deeply", p.peek()[2]) from None
    tok = p.peek()
    if tok[0] != "end":
        p.fail(tok, expected)
    return out


def parse_dist(text, n_cap=None):
    """Parse an expression into a distribution.

    n_cap, when given, bounds the allowed delta orders and fixes the
    regularity index of the result; a cap that is not a nonnegative int
    raises ValueError before the text is read.
    """
    if n_cap is not None and (not isinstance(n_cap, int) or n_cap < 0):
        raise ValueError("regularity cap must be a nonnegative integer, got %r" % (n_cap,))
    out = _dist(_parse_all(text, n_cap, _Parser.expr, {"+", "-", "*", "end of input"}))
    if n_cap is not None:
        out = _read(len(text), reindex, out, n_cap)
    return out


def parse_poly(text):
    """Parse a bare polynomial in x."""
    return _parse_all(text, None, _Parser.poly, {"+", "-", "end of input"})


# --------------------------------------------------------------------------
# formatting


def _coeff_terms(coeff, body):
    """Split a complex coefficient on a symbolic body into signed terms."""
    out = []
    d = coeff._d
    for n, unit in ((coeff._a, ""), (coeff._b, "i")):
        if n:
            # a unit magnitude is written as "" (or "i") and "1" alone
            mag = ("" if abs(n) == d else _ratio_token(abs(n), d)) + unit
            text = (mag + "*" + body if mag else body) if body else mag or "1"
            out.append((-1 if n < 0 else 1, text))
    return out


def _poly_text(p):
    parts = []
    for deg, coeff in enumerate(p.coeffs):
        if coeff.is_zero:
            continue
        body = "" if deg == 0 else ("x" if deg == 1 else "x^%d" % deg)
        parts += _coeff_terms(coeff, body)
    return _join_terms(parts)


def _join_terms(parts):
    if not parts:
        return "0"
    chunks = []
    for k, (sign, body) in enumerate(parts):
        if k == 0:
            chunks.append(("-" if sign < 0 else "") + body)
        else:
            chunks.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(chunks)


def _delta_atom(point, order):
    if order == 0:
        name = "delta"
    elif order == 1:
        name = "delta'"
    else:
        name = "delta^%d" % order
    return "%s(%s)" % (name, point.token())


def format_dist(F):
    """Canonical expression text; parse_dist(format_dist(F)) == F."""
    if F.is_zero:
        return "0"
    parts = []
    for d in F.deltas:
        parts += _coeff_terms(d.coeff, _delta_atom(d.point, d.order))
    for k, piece in enumerate(F.pieces):
        if piece.is_zero:
            continue
        lo = "-inf" if k == 0 else F.breakpoints[k - 1].token()
        hi = "inf" if k == len(F.breakpoints) else F.breakpoints[k].token()
        parts.append((1, "piece(%s,%s: %s)" % (lo, hi, _poly_text(piece))))
    return _join_terms(parts)


# --------------------------------------------------------------------------
# record codec


@functools.cache
def _records():
    """The one table of records but dist: header -> (class, layout).

    Layout 1 or 4: one "key value..." line per field, in declaration
    order, keyed by _line_key, with that many values.  Layout "rows": a
    "row" line per row of the record's BCMatrix (a NotSelfAdjoint's is
    its bc).  Built on the first record that is not a dist, which alone
    needs no boundary_ops or schrodinger.
    """
    from .boundary_ops import DeltaPrimeFamily, PointPotential, PseudoPotential
    from .schrodinger import BCMatrix, InteractingSA, NotSelfAdjoint, SeparatingSA
    return MappingProxyType({
        "opspec potential": (PointPotential, 1),
        "opspec pseudo": (PseudoPotential, 4),
        "opspec deltaprime": (DeltaPrimeFamily, 1),
        "classification interacting": (InteractingSA, 1),
        "classification separating": (SeparatingSA, 1),
        "classification not-self-adjoint": (NotSelfAdjoint, "rows"),
        "bc": (BCMatrix, "rows"),
    })


@functools.cache
def _headers():
    """The inverse of _records: exact class -> (header, layout)."""
    return MappingProxyType({cls: (head, layout) for head, (cls, layout) in _records().items()})


def _line_key(name):
    """Field name as a line key: "a_minus" is written "a-", "b_plus" "b+"."""
    return name.replace("_minus", "-").replace("_plus", "+")


def encode(obj):
    """Line record for a distribution, operator spec, classification or
    boundary-condition matrix.  Output is byte-stable."""
    lines = []
    if isinstance(obj, PiecewiseDist):
        lines.append("dist")
        lines.append("n %d" % obj.n)
        lines.append(("breakpoints " + " ".join(map(Scalar.token, obj.breakpoints))).rstrip())
        for p in obj.pieces:
            lines.append(("piece " + " ".join(map(Scalar.token, p.coeffs))).rstrip())
        for d in obj.deltas:
            lines.append("delta %s %d %s" % (d.point.token(), d.order, d.coeff.token()))
    else:
        record = _headers().get(type(obj))
        if record is None:
            raise TypeError("cannot encode %r" % (obj,))
        head, layout = record
        lines.append(head)
        if layout == "rows":
            bc = obj if head == "bc" else obj.bc
            lines += ["row " + " ".join(map(Scalar.token, row)) for row in bc.rows]
        else:
            for name in obj._fields:
                value = getattr(obj, name)
                text = value.token() if layout == 1 else " ".join(map(Scalar.token, value))
                lines.append("%s %s" % (_line_key(name), text))
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Records:
    """Cursor over 'key value...' lines with position tracking."""

    def __init__(self, text):
        self.items = []  # (key, [values], offset)
        offset = 0
        for line in text.split("\n"):
            stripped = line.strip()
            if stripped:
                words = stripped.split()
                self.items.append((words[0], words[1:], offset))
            offset += len(line) + 1
        self.k = 0

    def next(self, expect=None):
        if self.k >= len(self.items):
            raise ExprError("missing '%s' line" % (expect or "end"), 0)
        item = self.items[self.k]
        self.k += 1
        if expect is not None and item[0] != expect:
            raise ExprError(
                "expected '%s' line, got '%s'" % (expect, item[0]), item[2]
            )
        return item

    def peek_key(self):
        return self.items[self.k][0] if self.k < len(self.items) else None


def _natural(word):
    """The int that word writes in ASCII digits (read by parse_scalar,
    which names the digit limit past it)."""
    if not (word.isascii() and word.isdigit()):
        raise ValueError("%r is not a nonnegative integer" % word)
    return parse_scalar(word).as_integer_ratio()[0]


def _scalar_list(vals, off):
    return _read(off, list, map(parse_scalar, vals))


def decode(text):
    """Inverse of encode; dispatches on the first line."""
    rec = _Records(text)
    head, args, off = rec.next()
    kind = args[0] if args else ""
    try:
        if head == "dist":
            return _decode_dist(rec)
        # the header word alone, then with its kind: extra words are ignored
        records = _records()
        record = records.get(head) or records.get(head + " " + kind)
        if record is not None:
            cls, layout = record
            if layout != "rows":
                return _decode_fields(rec, cls, layout)
            bc = records["bc"][0](_decode_rows(rec))
            return bc if head == "bc" else cls(bc)
    except (AlgebraError, PreconditionError) as exc:
        raise ExprError(str(exc), off) from exc
    if head in ("opspec", "classification"):
        raise ExprError("unknown %s kind '%s'" % (head, kind), off)
    raise ExprError("unknown record '%s'" % head, off)


def _decode_dist(rec):
    name, vals, off = rec.next("n")
    if len(vals) != 1:
        raise ExprError("'n' takes one nonnegative integer", off)
    n = _read(off, _natural, vals[0])
    name, vals, off = rec.next("breakpoints")
    breakpoints = [_read(off, as_point, v) for v in vals]
    pieces = []
    deltas = []
    while True:
        key = rec.peek_key()
        if key == "piece":
            _, vals, off = rec.next()
            pieces.append(_read(off, Poly, _scalar_list(vals, off)))
        elif key == "delta":
            _, vals, off = rec.next()
            if len(vals) != 3:
                raise ExprError("'delta' takes point, order, coeff", off)
            delta = DeltaTerm(_read(off, as_point, vals[0]),
                              _read(off, _natural, vals[1]),
                              _read(off, parse_scalar, vals[2]))
            if delta.order > n:
                raise ExprError("delta order %d not allowed at regularity "
                                "index %d" % (delta.order, n), off)
            deltas.append(delta)
        else:
            break
    rec.next("end")
    return PiecewiseDist(n, breakpoints, pieces, deltas)


def _decode_fields(rec, cls, width):
    values = []
    for name in cls._fields:
        key = _line_key(name)
        _, vals, off = rec.next(key)
        if len(vals) != width:
            raise ExprError(
                "'%s' takes %s" % (key, "one value" if width == 1 else "four values"),
                off,
            )
        row = _scalar_list(vals, off)
        values.append(row[0] if width == 1 else tuple(row))
    rec.next("end")
    return cls(*values)


def _decode_rows(rec):
    rows = []
    while rec.peek_key() == "row":
        _, vals, off = rec.next()
        if len(vals) != 4:
            raise ExprError("'row' takes four values", off)
        rows.append(tuple(_scalar_list(vals, off)))
    rec.next("end")
    return rows
