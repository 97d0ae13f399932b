"""Point operators at the origin acting on boundary jets.

A *boundary jet* records the one-sided limits of a function and its first
derivative at 0, written (p, q, r, s) for
(psi(0-), psi(0+), psi'(0-), psi'(0+)).

A *sided delta* is one-sided multiplication by a point mass: the right
variant sends F to star(delta^(order)(. - point), F), so it samples F just
to the right of the point; the left variant multiplies from the other
side, star(F, delta^(order)(. - point)), sampling just to the left.  On a
jet at the origin the order-0 and order-1 actions are

    left,  order 0:  psi -> p delta            right: psi -> q delta
    left,  order 1:  psi -> p delta' - r delta right: psi -> q delta' - s delta

Every operator built here maps a jet to a combination
u delta + v delta', captured by a pair of coefficient rows over
(p, q, r, s): a JetOperator is

    psi  ->  (row_delta . jet) delta + (row_delta_prime . jet) delta'.

Composition with d/dx is partial: an operator may be *pre*composed
(applied to psi') only when it reads no derivative entries, since second
derivatives are not part of a jet; it may be *post*composed
(differentiated afterwards) only when it produces no delta' part, since
delta'' terms are not allowed here.  Both restrictions raise
PreconditionError, which is defined in dist_core (beside AlgebraError, so
that catching it loads no operator module) and re-exported here.

Jets, combinations, sided deltas and operator specs are Records: frozen
value objects whose fields are their annotations.  The classifications,
families and numerical results of schrodinger and numerics are too.
"""

from __future__ import annotations

from operator import add, neg

from .dist_core import (
    PreconditionError,
    Scalar,
    as_point,
    as_scalar,
    delta_dist,
    star,
)


_ZERO = Scalar(0)
_ZERO4 = (_ZERO,) * 4


def _row(entries):
    row = tuple(map(as_scalar, entries))
    if len(row) != 4:
        raise ValueError("rows have exactly four entries")
    return row


class Record:
    """Frozen value object whose fields are its class's annotations.

    A subclass lists its fields as annotations, in order; a class
    attribute of the same name is that field's default.  It gets an
    __init__ taking the fields positionally or by keyword, passing each
    field annotated Scalar through as_scalar (so it holds a Scalar, or
    the call raises), then calling __post_init__ if the class has one
    (which may set fields with object.__setattr__), and __eq__ and
    __hash__ over the field values, equal only within one class.
    _fields and __match_args__ name the fields; repr shows them as
    name=value.  Assigning or deleting any attribute raises
    AttributeError.  Attributes set past the fields with
    object.__setattr__ (extract_bc's stored matrix) stay out of equality,
    hash and repr.
    """

    def __init_subclass__(cls):
        own = cls.__dict__
        annotations = own.get("__annotations__", {})
        cls._fields = cls.__match_args__ = names = tuple(annotations)
        # object.__setattr__ keeps the values inline in the instance, where
        # attribute reads are fastest; reading __dict__ would move them out
        namespace = {"_setattr": object.__setattr__, "_Scalar": Scalar,
                     "_as_scalar": as_scalar}
        params = []
        for name in names:
            if name in own:
                namespace["_dflt_" + name] = own[name]
                name += "=_dflt_" + name
            params.append(name)
        scalar = "{0} if {0}.__class__ is _Scalar else _as_scalar({0})"
        source = "def __init__(self, %s):\n" % ", ".join(params)
        source += "".join("    _setattr(self, %r, %s)\n" % (n, scalar.format(n) if (
            annotations[n] in ("Scalar", Scalar)) else n) for n in names)
        if hasattr(cls, "__post_init__"):
            source += "    self.__post_init__()\n"
        mine = "".join("self.%s, " % n for n in names)
        theirs = "".join("other.%s, " % n for n in names)
        source += (
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            "        return (%s) == (%s)\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            "    return hash((%s))\n" % (mine, theirs, mine))
        exec(source, namespace)
        for name in ("__init__", "__eq__", "__hash__"):
            method = namespace[name]
            method.__qualname__ = "%s.%s" % (cls.__qualname__, name)
            setattr(cls, name, method)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class BoundaryJet(Record):
    """One-sided limits (psi(0-), psi(0+), psi'(0-), psi'(0+))."""

    psi_minus: Scalar
    psi_plus: Scalar
    dpsi_minus: Scalar
    dpsi_plus: Scalar

    def as_tuple(self):
        return (self.psi_minus, self.psi_plus, self.dpsi_minus, self.dpsi_plus)


class DeltaCombo(Record):
    """A combination coeff_delta * delta + coeff_delta_prime * delta' at 0."""

    coeff_delta: Scalar
    coeff_delta_prime: Scalar

    @property
    def is_zero(self):
        return self.coeff_delta.is_zero and self.coeff_delta_prime.is_zero

    def __add__(self, other):
        if not isinstance(other, DeltaCombo):
            return NotImplemented
        return DeltaCombo(
            self.coeff_delta + other.coeff_delta,
            self.coeff_delta_prime + other.coeff_delta_prime,
        )

    def scaled(self, c):
        c = as_scalar(c)
        return DeltaCombo(c * self.coeff_delta, c * self.coeff_delta_prime)

    def as_dist(self, n=1):
        out = delta_dist(0, 0, self.coeff_delta, n=n)
        if not self.coeff_delta_prime.is_zero:
            out = out + delta_dist(0, 1, self.coeff_delta_prime, n=max(n, 1))
        return out


class SidedDelta(Record):
    """One-sided multiplication by delta^(order)(x - point)."""

    side: str
    order: int = 0
    point: Scalar = _ZERO

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if not isinstance(self.order, int) or self.order < 0:
            raise ValueError("order must be a nonnegative integer")
        object.__setattr__(self, "point", as_point(self.point))


def apply_shifting_delta(sd, jet):
    """Action of a sided delta at the origin on a boundary jet.

    Only orders 0 and 1 are determined by a first-order jet; higher orders
    raise PreconditionError, as does a nonzero point.
    """
    if sd.point != 0:
        raise PreconditionError("jets carry data at the origin only")
    return sided_delta_op(sd.side, sd.order).apply(jet)


def apply_shifting_delta_dist(sd, F):
    """Action on a full distribution via the one-sided product."""
    mass = delta_dist(sd.point, sd.order, 1, n=max(sd.order, F.n))
    if sd.side == "right":
        return star(mass, F)
    return star(F, mass)


class JetOperator:
    """Linear map from boundary jets to delta/delta' combinations at 0."""

    __slots__ = ("row_delta", "row_delta_prime")

    def __init__(self, row_delta=_ZERO4, row_delta_prime=_ZERO4):
        self.row_delta = _row(row_delta)
        self.row_delta_prime = _row(row_delta_prime)

    def apply(self, jet):
        vec = jet.as_tuple()
        u = sum((a * b for a, b in zip(self.row_delta, vec)), Scalar(0))
        v = sum((a * b for a, b in zip(self.row_delta_prime, vec)), Scalar(0))
        return DeltaCombo(u, v)

    def __add__(self, other):
        if not isinstance(other, JetOperator):
            return NotImplemented
        return JetOperator(
            tuple(map(add, self.row_delta, other.row_delta)),
            tuple(map(add, self.row_delta_prime, other.row_delta_prime)),
        )

    def __sub__(self, other):
        if not isinstance(other, JetOperator):
            return NotImplemented
        return self + (-1) * other

    def __rmul__(self, c):
        c = as_scalar(c)
        return JetOperator(
            tuple(c * a for a in self.row_delta),
            tuple(c * a for a in self.row_delta_prime),
        )

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        if not isinstance(other, JetOperator):
            return NotImplemented
        return (
            self.row_delta == other.row_delta
            and self.row_delta_prime == other.row_delta_prime
        )

    def __hash__(self):
        return hash((self.row_delta, self.row_delta_prime))

    def __repr__(self):
        return "JetOperator(delta=%r, delta_prime=%r)" % (
            [c.token() for c in self.row_delta],
            [c.token() for c in self.row_delta_prime],
        )

    def precompose_derivative(self):
        """The operator applied to psi' instead of psi.

        Legal only when no derivative entry of the jet is read, because
        the jet of psi' would need second derivatives there.
        """
        if any(
            not c.is_zero
            for c in self.row_delta[2:] + self.row_delta_prime[2:]
        ):
            raise PreconditionError(
                "composing with d/dx on the right needs second-derivative data"
            )
        return JetOperator(
            (Scalar(0), Scalar(0)) + self.row_delta[:2],
            (Scalar(0), Scalar(0)) + self.row_delta_prime[:2],
        )

    def postcompose_derivative(self):
        """d/dx applied after the operator; the delta part moves up to
        delta' and any existing delta' part would become delta''."""
        if any(not c.is_zero for c in self.row_delta_prime):
            raise PreconditionError(
                "differentiating this operator would create a delta'' term"
            )
        return JetOperator(_ZERO4, self.row_delta)


def _combo_op(coeffs):
    """c1*(left delta) + c2*(right delta) + b1*(left delta')
    + b2*(right delta') as a JetOperator: the one place the four
    sided-delta actions are encoded."""
    c1, c2, b1, b2 = coeffs
    return JetOperator((c1, c2, -b1, -b2), (b1, b2, _ZERO, _ZERO))


def sided_delta_op(side, order):
    """JetOperator form of a sided delta at the origin (order 0 or 1)."""
    sd = SidedDelta(side, order)  # validates side and order
    if sd.order > 1:
        raise PreconditionError(
            "order-%d action needs derivatives beyond the jet" % sd.order
        )
    unit = [0, 0, 0, 0]
    unit[2 * sd.order + (sd.side == "right")] = 1
    return _combo_op(unit)


def delta_diff(order):
    """right minus left sided delta: samples the jump across 0."""
    return sided_delta_op("right", order) - sided_delta_op("left", order)


_JUMP = delta_diff(0)
# minus the free part 2 (jump o D) + delta' jump left by integrating
# -psi'' by parts, negated once so that a spec's rows cost additions only
_MINUS_FREE_PART = -(2 * _JUMP.precompose_derivative() + delta_diff(1))


# --------------------------------------------------------------------------
# operator specifications: singular perturbations of -d^2/dx^2


class PointPotential(Record):
    """c1*(left delta) + c2*(right delta) + b1*(left delta') + b2*(right delta').

    The purely multiplicative point perturbations: no composition with
    d/dx anywhere.
    """

    c1: Scalar
    c2: Scalar
    b1: Scalar
    b2: Scalar


class PseudoPotential(Record):
    """General point perturbation direct + after_dx o D + D o dx_after_dx o D.

    Each block is a coefficient 4-vector over the basis
    (left delta, right delta, left delta', right delta'); the two blocks
    composed with D must be order 0 (their last two entries zero), since
    anything else would read second derivatives or create delta''.
    """

    direct: tuple
    after_dx: tuple
    dx_after_dx: tuple

    def __post_init__(self):
        for name in ("direct", "after_dx", "dx_after_dx"):
            object.__setattr__(self, name, _row(getattr(self, name)))
        for name in ("after_dx", "dx_after_dx"):
            row = getattr(self, name)
            if not (row[2].is_zero and row[3].is_zero):
                raise PreconditionError(
                    "%s must be order 0 (no delta' coefficients)" % name
                )


class DeltaPrimeFamily(Record):
    """c*(right delta') + d*(left delta') + e*D o jump + f*jump o D,

    where jump is the order-0 delta difference.  A four-parameter family
    of delta'-type point perturbations.
    """

    c: Scalar
    d: Scalar
    e: Scalar
    f: Scalar


def to_jet_operator(spec):
    """The perturbation itself as a map on jets."""
    if isinstance(spec, PointPotential):
        return _combo_op((spec.c1, spec.c2, spec.b1, spec.b2))
    if isinstance(spec, PseudoPotential):
        out = _combo_op(spec.direct)
        out = out + _combo_op(spec.after_dx).precompose_derivative()
        out = out + (
            _combo_op(spec.dx_after_dx)
            .precompose_derivative()
            .postcompose_derivative()
        )
        return out
    if isinstance(spec, DeltaPrimeFamily):
        return (
            _combo_op((0, 0, spec.d, spec.c))
            + spec.e * _JUMP.postcompose_derivative()
            + spec.f * _JUMP.precompose_derivative()
        )
    raise TypeError("unknown operator spec %r" % (spec,))


def apply_operator(spec, jet):
    return to_jet_operator(spec).apply(jet)


def constraint_operator(spec):
    """The jet operator whose kernel is the perturbed operator's domain.

    Integrating the eigenvalue problem by parts against a jet leaves,
    beyond the free part, the combination

        spec - 2 * (jump o D) - (delta' jump)

    whose delta and delta' coefficients must both vanish for psi to be in
    the domain.
    """
    return to_jet_operator(spec) + _MINUS_FREE_PART


def constraint_rows(spec):
    """Boundary-condition rows over (p, q, r, s).

    Convention: the first row is the *negated* delta-coefficient
    functional and the second is the delta'-coefficient functional, so a
    plain PointPotential(c1, c2, b1, b2) yields

        [-c1, -c2, b1-1, b2+1]   and   [b1+1, b2-1, 0, 0].
    """
    op = constraint_operator(spec)
    return tuple(map(neg, op.row_delta)), op.row_delta_prime
