"""Boundary conditions of point-perturbed 1D Schrodinger operators.

Everything here works on the two coefficient rows over the boundary jet
(p, q, r, s) = (psi(0-), psi(0+), psi'(0-), psi'(0+)) produced by
``boundary_ops.constraint_rows``: the pair of linear conditions cutting
the operator's domain out of the maximal one.  Conditions are compared as
row spaces (exact reduced row echelon form), since two sets of conditions
with the same kernel describe the same operator.  A rank-2 row space is
also fixed, up to one common factor, by the six 2x2 minors of any two rows
spanning it (its Pluecker coordinates, ``minors``); self-adjointness, the
classification, the special-form matchers and the spectral polynomials of
``numerics`` are all read off them.

``classify`` decides, exactly and from the rows alone, whether an
operator spec gives a self-adjoint operator and of which kind:

  * InteractingSA(a, b, c): conditions couple the two half-lines,

        (1 - b) psi'(0+) - (1 + b) psi'(0-) = c (psi(0+) + psi(0-))/ ...
        written row-wise as [-c, -c, b-1, b+1; conj(b)+1, conj(b)-1, a, a]

  * SeparatingSA: one Dirichlet/Robin condition on each half-line, stored
    normalized per side as (a, b) meaning a psi' = b psi, with (1, t) for
    Robin and (0, 1) for Dirichlet;

  * NotSelfAdjoint(bc): anything else (the operator is a proper
    restriction of the maximal one).

The ``represent_*`` functions invert that: given target conditions they
produce the potentials (or, where no potential exists, a PseudoPotential)
that realize them.
"""

from __future__ import annotations

from .boundary_ops import (
    DeltaPrimeFamily,
    JetOperator,
    PointPotential,
    PreconditionError,
    PseudoPotential,
    Record,
    _MINUS_FREE_PART,
    _row,
    constraint_rows,
)
from .dist_core import Scalar, as_scalar

_ZERO = Scalar(0)
_ONE = Scalar(1)
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _rref(rows):
    """Exact reduced row echelon form; zero rows dropped.

    Entries left of the pivot column are already zero in the pivot row,
    so scaling and elimination touch only the columns right of it.
    """
    work = [list(r) for r in rows]
    lead = 0
    for col in range(4):
        pivot = next((k for k in range(lead, len(work)) if work[k][col]), None)
        if pivot is None:
            continue
        work[lead], work[pivot] = work[pivot], work[lead]
        top = work[lead]
        inv = top[col]
        top[col] = _ONE
        rest = [m for m in range(col + 1, 4) if top[m]]
        for m in rest:
            top[m] = top[m] / inv
        for k, row in enumerate(work):
            factor = row[col]
            if k != lead and factor:
                row[col] = _ZERO
                for m in rest:
                    row[m] = row[m] - factor * top[m]
        lead += 1
        if lead == len(work):
            break
    return tuple(tuple(row) for row in work if any(row))


def _lagrangian(minors):
    """Kostrykin-Schrader criterion (J. Phys. A 32 (1999) 595), read off
    the minors: the row space must have rank 2 and equal its own
    annihilator under the boundary form, i.e. be Lagrangian (Harmer,
    J. Phys. A 33 (2000) 9193).  That annihilator's Pluecker vector is the
    Hodge dual of the conjugate, so the test is that some minor is nonzero
    and (m01, m03, m12, m23, m02, m13) is a multiple of the conjugate of
    (m01, m03, m12, m23, m13, m02).
    """
    m01, m02, m03, m12, m13, m23 = minors
    lhs = (m01, m03, m12, m23, m02, m13)
    rhs = (m01, m03, m12, m23, m13, m02)
    k = next((k for k, m in enumerate(lhs) if m), None)
    if k is None or not rhs[k]:
        return False
    scale = lhs[k] / rhs[k].conjugate()
    return all(x == scale * y.conjugate() for x, y in zip(lhs, rhs))


class BCMatrix:
    """Boundary conditions as rows over (p, q, r, s).

    Zero rows are dropped on construction; the originally supplied
    (nonzero) rows are kept for display.  Equality and hashing go through
    the reduced row echelon form, i.e. two matrices are equal when they
    cut out the same domain.  The minors and self-adjointness are
    computed on construction, the reduced rows at most once.
    """

    __slots__ = ("rows", "_reduced", "_minors", "self_adjoint")

    def __init__(self, rows):
        self.rows = tuple(row for row in map(_row, rows) if any(row))
        # the rows themselves when there are two, else the reduced rows;
        # two zero rows, whose minors all vanish, unless that leaves two
        self._reduced = None if len(self.rows) == 2 else _rref(self.rows)
        pair = self.rows if len(self.rows) == 2 else self._reduced
        r1, r2 = pair if len(pair) == 2 else ((_ZERO,) * 4,) * 2
        self._minors = tuple(r1[i] * r2[j] - r1[j] * r2[i] for i, j in _PAIRS)
        self.self_adjoint = _lagrangian(self._minors)

    def reduced(self):
        if self._reduced is None:
            self._reduced = _rref(self.rows)
        return self._reduced

    @property
    def rank(self):
        return len(self.reduced())

    def row_equivalent(self, other):
        return self.reduced() == other.reduced()

    def __eq__(self, other):
        if not isinstance(other, BCMatrix):
            return NotImplemented
        return self.reduced() == other.reduced()

    def __hash__(self):
        return hash(self.reduced())

    def kernel_basis(self):
        """Jets satisfying the conditions, one 4-tuple per free column."""
        red = self.reduced()
        pivots = []
        for row in red:
            pivots.append(next(j for j in range(4) if not row[j].is_zero))
        basis = []
        for j in range(4):
            if j in pivots:
                continue
            vec = [_ZERO] * 4
            vec[j] = _ONE
            for i, pc in enumerate(pivots):
                vec[pc] = -red[i][j]
            basis.append(tuple(vec))
        return basis

    def as_complex(self):
        return [[complex(e) for e in row] for row in self.rows]

    def __repr__(self):
        return "BCMatrix(%s)" % (
            [[e.token() for e in row] for row in self.rows],
        )


def minors(bc):
    """(m01, m02, m03, m12, m13, m23), m_ij = r1_i r2_j - r1_j r2_i.

    r1, r2 are two rows spanning the conditions, so the minors fix the
    row space up to one common factor.  All six are zero unless the
    conditions have rank 2.  Computed once, when bc is built.
    """
    return bc._minors


def extract_bc(spec):
    """Boundary-condition matrix of an operator.

    spec is an operator spec (its constraint_rows), a self-adjoint
    classification (the two rows it stands for), a NotSelfAdjoint
    classification (the BCMatrix it carries), or a BCMatrix, which is
    returned as it is.  A spec or classification is frozen, so its matrix
    is built on the first read and stored on it, outside its record
    fields: equality, hash, repr and encoding do not see it.
    """
    if isinstance(spec, BCMatrix):
        return spec
    if isinstance(spec, NotSelfAdjoint):
        return spec.bc
    bc = getattr(spec, "_bc", None)
    if bc is None:
        if isinstance(spec, (InteractingSA, SeparatingSA)):
            bc = BCMatrix(_classification_rows(spec))
        else:
            bc = BCMatrix(constraint_rows(spec))
        object.__setattr__(spec, "_bc", bc)
    return bc


# --------------------------------------------------------------------------
# classification


class InteractingSA(Record):
    """Self-adjoint with conditions coupling the half-lines."""

    a: Scalar
    b: Scalar
    c: Scalar


class SeparatingSA(Record):
    """Self-adjoint with one condition per half-line.

    Each side is normalized: (1, t) means psi' = t psi on that side
    (Robin; t = 0 is Neumann), (0, 1) means psi = 0 (Dirichlet).
    """

    a_minus: Scalar
    b_minus: Scalar
    a_plus: Scalar
    b_plus: Scalar


class NotSelfAdjoint(Record):
    """Proper restriction of the maximal operator; conditions attached."""

    bc: BCMatrix


def _classification_rows(k):
    """Two rows spanning the conditions a self-adjoint classification
    stands for: the module docstring's, the interacting first row
    negated.  Zero rows are kept."""
    if isinstance(k, InteractingSA):
        bb = k.b.conjugate()
        return (k.c, k.c, 1 - k.b, -1 - k.b), (bb + 1, bb - 1, k.a, k.a)
    return ((_ZERO, -k.b_plus, _ZERO, k.a_plus),
            (-k.b_minus, _ZERO, k.a_minus, _ZERO))


def normalize_side(a, b):
    """Normalize one side condition a psi' = b psi to (1, b/a) or (0, 1)."""
    a, b = as_scalar(a), as_scalar(b)
    if not a.is_zero:
        return (_ONE, b / a)
    if not b.is_zero:
        return (_ZERO, _ONE)
    raise PreconditionError("a side condition needs a nonzero coefficient")


def separating_sa(a_minus, b_minus, a_plus, b_plus):
    """SeparatingSA with both sides normalized."""
    am, bm = normalize_side(a_minus, b_minus)
    ap, bp = normalize_side(a_plus, b_plus)
    return SeparatingSA(am, bm, ap, bp)


def classify(spec):
    """Exact self-adjointness classification of any operator spec, or of
    the conditions of a BCMatrix or a classification (extract_bc).

    Reads the minors m_ij of the boundary-condition rows: NotSelfAdjoint
    when the rows fail the Kostrykin-Schrader criterion; SeparatingSA when
    m02 = m13 = 0, i.e. the rows span a left-only row (., 0, ., 0) and a
    right-only row (0, ., 0, .); and otherwise InteractingSA(a, b, c),
    the solution for the jumps w = q - p and d = s - r in terms of the
    sums u = p + q and m = r + s,

        w = conj(b) u + a m,        d = c u - b m,

    which is (a, b, c) = (-2 m23, m12 + m13 - m02 - m03, 2 m01) / det with
    det = m02 + m13 - m03 - m12.  Self-adjoint coupling conditions with
    det = 0 (theta = -1, DeltaPrimeFamily(c, c, 1, 1), is one) have no
    InteractingSA form and raise PreconditionError.
    """
    bc = extract_bc(spec)
    if not bc.self_adjoint:
        return NotSelfAdjoint(bc)
    m01, m02, m03, m12, m13, m23 = minors(bc)
    # self-adjoint rows have m02 = scale * conj(m13), scale != 0
    # (_lagrangian), so m02 = 0 exactly when m13 = 0
    if not m02:
        # rows (p, 0, r, 0) and (0, q, 0, s) up to scale; each side is
        # r psi' = -p psi or s psi' = -q psi, read off two of the minors
        left = (-m12, -m01) if m12 or m01 else (m23, -m03)
        right = (-m03, m01) if m03 or m01 else (-m23, -m12)
        return separating_sa(*left, *right)
    det = m02 + m13 - m03 - m12
    if not det:
        raise PreconditionError(
            "the conditions do not fix the jumps from the sums: "
            "no InteractingSA form"
        )
    return InteractingSA(-2 * m23 / det, (m12 + m13 - m02 - m03) / det,
                         2 * m01 / det)


# --------------------------------------------------------------------------
# realization: interacting conditions


class ConjugatePairFamily(Record):
    """Potentials with b2 = conj(b1) realizing InteractingSA(0, b, c).

    The coupling strength c may be split as c = k1 + k2 between the two
    sides: c1 = k1/x1, c2 = k2/x2.  Any real split works; spec() defaults
    to the symmetric one.
    """

    b: Scalar
    c: Scalar
    b1: Scalar
    b2: Scalar
    x1: Scalar
    x2: Scalar

    def spec(self, k1=None):
        k1 = self.c / 2 if k1 is None else as_scalar(k1)
        if not k1.is_real:
            raise PreconditionError("the coupling split must be real")
        k2 = self.c - k1
        return PointPotential(k1 / self.x1, k2 / self.x2, self.b1, self.b2)

    default = spec


class OppositeSignFamily(Record):
    """Potentials with b2 = -b1 realizing InteractingSA(0, 0, c).

    b1 is a free complex parameter away from +-1; the two couplings only
    need c1 + c2 = 2 c (1 - b1).  spec() defaults to b1 = 0 and the even
    split c1 = c2.
    """

    c: Scalar

    def spec(self, b1=0, c1=None):
        b1 = as_scalar(b1)
        if b1 == _ONE or b1 == -_ONE:
            raise PreconditionError("b1 = +-1 leaves the family")
        total = 2 * self.c * (_ONE - b1)
        c1 = total / 2 if c1 is None else as_scalar(c1)
        return PointPotential(c1, total - c1, b1, -b1)

    default = spec


class NotRepresentable(Record):
    """No plain potential realizes the conditions; a PseudoPotential does."""

    reason: str
    pseudo: PseudoPotential


def interacting_pseudo(a, b, c):
    """PseudoPotential realizing the general interacting conditions.

    represent_from_bc of the rows [c, c, 1-b, -1-b] and
    [conj(b)+1, conj(b)-1, a, a]: that is c*sum - b*(sum o D) +
    a*(D o sum o D) + conj(b)*(D o sum), where sum is the order-0
    sided-delta sum.
    """
    return represent_from_bc(*_classification_rows(InteractingSA(a, b, c)))


def represent_interacting(a, b, c):
    """Potentials realizing InteractingSA(a, b, c), or NotRepresentable.

    a and c must be real and the conditions must couple the half-lines:
    (1 + conj(b))(1 - b) != a c.  Equality makes the minors m02 and m13
    of the rows vanish, so the conditions separate the half-lines; the
    PreconditionError then names the SeparatingSA that classify gives.
    Plain potentials exist exactly when a = 0 and b is neither +-1 nor
    purely imaginary nonzero.
    """
    a, b, c = as_scalar(a), as_scalar(b), as_scalar(c)
    if not (a.is_real and c.is_real):
        raise PreconditionError("a and c must be real")
    if ((_ONE + b.conjugate()) * (_ONE - b) - a * c).is_zero:
        raise PreconditionError(
            "the conditions separate the half-lines: %r"
            % (classify(InteractingSA(a, b, c)),))
    if not a.is_zero:
        return NotRepresentable(
            "a second-derivative coefficient cannot come from a potential",
            interacting_pseudo(a, b, c),
        )
    if b.is_zero:
        return OppositeSignFamily(c)
    if (b + b.conjugate()).is_zero:
        return NotRepresentable(
            "purely imaginary coupling slope has no potential realization",
            interacting_pseudo(a, b, c),
        )
    bb = b.conjugate()
    s = b + bb
    b1 = (2 * b * bb + b - bb) / s
    b2 = (2 * b * bb - b + bb) / s
    x1 = -s / 4 + s / (4 * bb)
    x2 = s / 4 + s / (4 * bb)
    return ConjugatePairFamily(b, c, b1, b2, x1, x2)


# --------------------------------------------------------------------------
# realization: separating conditions


class SeparatingFamily(Record):
    """Potentials realizing a pair of one-sided conditions.

    c1/c2 hold the default couplings; names in ``free`` may be overridden
    in spec().  For the double-Dirichlet case the only constraint is
    c1 + c2 != 0.
    """

    b1: Scalar
    b2: Scalar
    c1: Scalar
    c2: Scalar
    free: tuple

    def spec(self, c1=None, c2=None):
        vals = {"c1": self.c1, "c2": self.c2}
        for name, given in (("c1", c1), ("c2", c2)):
            if given is None:
                continue
            if name not in self.free:
                raise PreconditionError("%s is fixed in this family" % name)
            vals[name] = as_scalar(given)
        if self.free == ("c1", "c2") and (vals["c1"] + vals["c2"]).is_zero:
            raise PreconditionError(
                "c1 + c2 = 0 drops the rank of the conditions"
            )
        return PointPotential(vals["c1"], vals["c2"], self.b1, self.b2)

    default = spec


def separating_pseudo(a_minus, b_minus, a_plus, b_plus):
    """PseudoPotential realizing arbitrary one-sided conditions
    a psi'(0-/+) = b psi(0-/+)."""
    sides = SeparatingSA(a_minus, b_minus, a_plus, b_plus)
    return represent_from_bc(*_classification_rows(sides))


def represent_separating(a_minus, b_minus, a_plus, b_plus):
    """Potentials realizing separated conditions, or NotRepresentable.

    Inputs are the raw side conditions a psi' = b psi (real, each side
    nonzero).  A plain potential exists only when at most one side
    constrains the derivative trace.
    """
    am, bm = as_scalar(a_minus), as_scalar(b_minus)
    ap, bp = as_scalar(a_plus), as_scalar(b_plus)
    for v in (am, bm, ap, bp):
        if not v.is_real:
            raise PreconditionError("separated conditions must be real")
    if am.is_zero and bm.is_zero:
        raise PreconditionError("left side condition is empty")
    if ap.is_zero and bp.is_zero:
        raise PreconditionError("right side condition is empty")

    if am.is_zero and ap.is_zero:
        return SeparatingFamily(_ONE, -_ONE, _ONE, _ONE, ("c1", "c2"))
    if am.is_zero:
        return SeparatingFamily(_ONE, _ONE, _ZERO, 2 * bp / ap, ("c1",))
    if ap.is_zero:
        return SeparatingFamily(-_ONE, -_ONE, -2 * bm / am, _ZERO, ("c2",))
    return NotRepresentable(
        "both sides constrain the derivative trace",
        separating_pseudo(am, bm, ap, bp),
    )


# --------------------------------------------------------------------------
# realization: arbitrary two-row conditions


def represent_from_bc(f1, f2):
    """PseudoPotential whose conditions are exactly rows f1 and f2.

    The construction cancels the free part, then adds f1 against psi and
    the derivative of f2 against psi, so extract_bc returns rows
    (-f1, f2) — the same row space as [f1; f2].
    """
    t = JetOperator(f1, f2) - _MINUS_FREE_PART
    (u0, u1, u2, u3), (v0, v1, v2, v3) = t.row_delta, t.row_delta_prime
    return PseudoPotential((u0, u1, v0, v1), (u2 + v0, u3 + v1, _ZERO, _ZERO),
                           (v2, v3, _ZERO, _ZERO))


class NoGoCertificate(Record):
    """Why no realization with a vanishing D-sandwich block exists.

    With that block zero, one condition row is forced to read only the
    value traces (p, q).  When the 2x2 block of derivative columns of the
    reduced conditions is invertible, every nonzero row combination still
    reads a derivative trace, so no such realization exists; the block
    and its determinant are the certificate.
    """

    derivative_block: tuple
    det: Scalar


def check_potential_representable_B3_zero(bc):
    """Can rank-2 conditions be realized with no D-sandwich block?

    Returns (True, PseudoPotential) with a realizing spec whose
    dx_after_dx block is zero, or (False, NoGoCertificate).  Read off the
    minors of two spanning rows r1, r2: the derivative block is
    invertible exactly when m23 != 0.  Otherwise r2[2] r1 - r1[2] r2 =
    (m02, m12, 0, 0) is a row reading only the values, or
    r2[3] r1 - r1[3] r2 = (m03, m13, 0, 0) when that one is zero; when
    both are zero, no row reads a derivative.
    """
    if bc.rank != 2:
        raise PreconditionError("needs two independent conditions")
    _, m02, m03, m12, m13, m23 = minors(bc)
    r1, r2 = bc.reduced()
    if m23:
        d1 = (r1[2], r1[3])
        d2 = (r2[2], r2[3])
        det = d1[0] * d2[1] - d1[1] * d2[0]
        return False, NoGoCertificate((d1, d2), det)
    if m02 or m12:
        values = (m02, m12, _ZERO, _ZERO)
    elif m03 or m13:
        values = (m03, m13, _ZERO, _ZERO)
    else:
        return True, represent_from_bc(r1, r2)
    # a row reading a derivative completes the values-only row to a basis
    return True, represent_from_bc(r1 if r1[2] or r1[3] else r2, values)


# --------------------------------------------------------------------------
# special-form recognizers


def match_continuity_jump(bc):
    """If the conditions say psi continuous with psi'(0+) - psi'(0-) =
    a psi(0), return a; otherwise None.

    Their kernel is spanned by (0, 0, 1, 1) and (1, 1, 0, a), whose
    minors are m23 = 0, m13 = m02 = -m03 = -m12 and m01 = a m02; the
    Pluecker relation m01 m23 - m02 m13 + m03 m12 = 0 then fixes m12.
    """
    m01, m02, m03, _, m13, m23 = minors(bc)
    if m23 or not m02 or not m13 == m02 == -m03:
        return None
    return m01 / m02


def match_theta_jump(bc):
    """If the conditions say psi(0+) = theta psi(0-) and
    psi'(0+) = psi'(0-)/theta, return theta; otherwise None.

    Their kernel is spanned by (1, theta, 0, 0) and (0, 0, theta, 1),
    whose minors are m01 = m23 = 0 and m13 = m02 = -theta m12; the
    Pluecker relation then gives m02 m13 = m03 m12, so m12 != 0.
    """
    m01, m02, _, m12, m13, m23 = minors(bc)
    if m01 or m23 or not m02 or m13 != m02:
        return None
    return -m02 / m12


# --------------------------------------------------------------------------
# sesquilinear boundary forms


def boundary_form_raw(psi, phi):
    """conj(phi(0+)) psi'(0+) - conj(phi(0-)) psi'(0-): the boundary term
    of the maximal operator's quadratic form."""
    return (
        phi.psi_plus.conjugate() * psi.dpsi_plus
        - phi.psi_minus.conjugate() * psi.dpsi_minus
    )


def sesquilinear_form(spec_or_classification, psi, phi):
    """Boundary part of the operator's sesquilinear form on jets.

    Accepts whatever extract_bc does: an operator spec, a classification
    or a BCMatrix.  Defined only for self-adjoint conditions; on jets
    satisfying them the form is the boundary term boundary_form_raw.
    """
    if not extract_bc(spec_or_classification).self_adjoint:
        raise PreconditionError(
            "the boundary form is only defined for self-adjoint conditions"
        )
    return boundary_form_raw(psi, phi)


# --------------------------------------------------------------------------
# named operators


def unconstrained_spec():
    """The perturbation whose constraint rows vanish identically: it
    cancels the boundary term of the maximal operator exactly, which is
    represent_from_bc of two zero rows."""
    return represent_from_bc((0,) * 4, (0,) * 4)


def delta_well(a):
    """Continuity plus derivative jump a psi(0): the textbook delta
    interaction of strength a."""
    a = as_scalar(a)
    return PointPotential(a / 2, a / 2, _ZERO, _ZERO)


def delta_prime_interaction(theta):
    """Value and derivative scaling by theta across 0 (theta != -1, 0).

    Realized by PointPotential(0, 0, cc, cc) with cc = (theta-1)/(theta+1);
    theta = -1 is reachable only through DeltaPrimeFamily(c, c, 1, 1).
    """
    theta = as_scalar(theta)
    if theta.is_zero:
        raise PreconditionError("theta must be nonzero")
    if theta == -_ONE:
        raise PreconditionError(
            "theta = -1 needs DeltaPrimeFamily(c, c, 1, 1), not a potential"
        )
    cc = (theta - _ONE) / (theta + _ONE)
    return PointPotential(_ZERO, _ZERO, cc, cc)


def dirichlet_specs():
    """Two realizations of double-Dirichlet conditions psi(0-)=psi(0+)=0:
    a PseudoPotential built from the condition rows, and a plain
    potential."""
    return (separating_pseudo(0, 1, 0, 1),
            represent_separating(0, 1, 0, 1).default())
