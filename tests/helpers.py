"""Shared random generators for the property tests.

Everything takes an explicit random.Random so each test controls its own
seed (``oracle_corpus`` seeds its own, so every test reads the same specs);
coefficients are exact rationals (optionally with an imaginary
part) so all comparisons downstream stay exact.  Two helpers are
references sharing no code with what they check: ``self_adjoint_by_definition``
for ``classify``, and the float ``even_ground_state`` for the grid
Hamiltonian.  ``scattering_by_polys`` redoes ``numerics.scattering`` from
the same minors in exact ``Poly`` and ``Scalar`` arithmetic, rounding once
at the end; ``exact_bound_energies`` gives the exact energies behind
``numerics.bound_states`` from the same ``Poly``, and ``correctly_rounded``
checks a float against one of them without taking a square root.
``reference_tokens`` is the expression tokenizer as one match per token
or run of whitespace, every number read by ``Scalar`` from its text.
"""

import math
import random
import re
import struct
from fractions import Fraction

from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from deltastar import DeltaTerm, PiecewiseDist, Poly, Scalar
from deltastar.boundary_ops import (
    BoundaryJet,
    DeltaPrimeFamily,
    PointPotential,
    PreconditionError,
    PseudoPotential,
)
from deltastar.expr_io import ExprError
from deltastar.numerics import ScatteringData
from deltastar.schrodinger import (
    boundary_form_raw,
    extract_bc,
    interacting_pseudo,
    minors,
    separating_pseudo,
)


def rand_frac(rng, span=3, dens=(1, 2, 3, 4)):
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def rand_scalar(rng, span=3, imag_rate=0.3):
    im = rand_frac(rng, span) if rng.random() < imag_rate else 0
    return Scalar(rand_frac(rng, span), im)


def rand_poly(rng, max_deg=3, imag_rate=0.3):
    return Poly(
        [rand_scalar(rng, imag_rate=imag_rate)
         for _ in range(rng.randint(0, max_deg) + 1)]
    )


def rand_dist(rng, n=1, points=(-1, 0, 1), max_deg=3, max_order=None,
              imag_rate=0.3, delta_rate=0.5):
    """Random element with breakpoints and delta points inside ``points``."""
    if max_order is None:
        max_order = n
    pts = sorted(rng.sample(points, rng.randint(0, len(points))))
    pieces = [rand_poly(rng, max_deg, imag_rate) for _ in range(len(pts) + 1)]
    deltas = [
        DeltaTerm(Fraction(p), rng.randint(0, max_order),
                  rand_scalar(rng, imag_rate=imag_rate))
        for p in points
        if rng.random() < delta_rate
    ]
    return PiecewiseDist(n, [Fraction(p) for p in pts], pieces, deltas)


# whitespace is a match of its own, and a number token's text goes to Scalar
_REFERENCE_TOKEN = re.compile(
    r"\s+|(?P<num>\d+(?:\.\d+)?(?:/\d+)?i?)|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>[()+\-*^,:'])|(?P<bad>\S)"
)


def _scalar_at(pos, *args):
    try:
        return Scalar(*args)
    except ValueError as exc:
        raise ExprError(str(exc), pos) from exc


def reference_tokens(text):
    """The (kind, value, offset) tokens of an expression, then ("end",
    None, len(text)), or the ExprError of its first bad token."""
    toks = []
    for m in _REFERENCE_TOKEN.finditer(text):
        kind, word, pos = m.lastgroup, m.group(), m.start()
        if kind == "num":
            if word[-1] == "i":
                toks.append(("imag", _scalar_at(pos, 0, word[:-1]), pos))
            else:
                toks.append(("num", _scalar_at(pos, word), pos))
        elif kind == "name":
            toks.append(("imag", Scalar(0, 1), pos) if word == "i" else ("name", word, pos))
        elif kind == "op":
            toks.append((word, word, pos))
        elif kind == "bad":
            raise ExprError("unexpected character %r" % word, pos)
    toks.append(("end", None, len(text)))
    return toks


def rand_jet(rng, span=4):
    return BoundaryJet(
        rand_scalar(rng, span),
        rand_scalar(rng, span),
        rand_scalar(rng, span),
        rand_scalar(rng, span),
    )


def jet_from_vector(v):
    return BoundaryJet(v[0], v[1], v[2], v[3])


def constrained_jets(bc, rng, count):
    """count jets satisfying the conditions of bc: seeded random
    combinations of its kernel basis."""
    basis = bc.kernel_basis()
    jets = []
    for _ in range(count):
        vec = [Scalar(0)] * 4
        for v in basis:
            c = rand_scalar(rng)
            vec = [a + c * b for a, b in zip(vec, v)]
        jets.append(jet_from_vector(vec))
    return jets


def oracle_corpus():
    """Seeded specs of every kind, with self-adjoint cases of each."""
    rng = random.Random(612)
    slopes = [Scalar(x) for x in (1, -1, 0, Fraction(1, 3), -2)] + [Scalar(1, 1)]

    def small():
        return rng.choice((-1, 0, 1, 2, Fraction(1, 2)))

    specs = [PointPotential(0, 3, -1, -1)]  # Neumann-Dirichlet: right row first
    for _ in range(60):
        b1 = rng.choice(slopes)
        b2 = rng.choice((b1, -b1, b1.conjugate(), rng.choice(slopes)))
        c1 = rand_scalar(rng, imag_rate=0.15)
        c2 = rng.choice((c1, -c1, rand_scalar(rng, imag_rate=0.15)))
        specs.append(PointPotential(c1, c2, b1, b2))
    for _ in range(30):
        a, c = rand_frac(rng), rand_frac(rng)
        if rng.random() < 0.3:
            a = Scalar(a, 1)  # a complex a breaks self-adjointness
        specs.append(interacting_pseudo(a, rand_scalar(rng), c))
        am, bm = rng.choice((0, 1, 2)), rand_frac(rng)
        ap, bp = rng.choice((0, 1)), rand_frac(rng)
        if (am or bm) and (ap or bp):
            specs.append(separating_pseudo(am, bm, ap, bp))
    for _ in range(30):
        specs.append(PseudoPotential(
            [rand_scalar(rng) for _ in range(4)],
            [rand_scalar(rng), rand_scalar(rng), 0, 0],
            [rand_scalar(rng), rand_scalar(rng), 0, 0],
        ))
    for _ in range(80):
        specs.append(DeltaPrimeFamily(small(), small(), small(), small()))
    return specs


def self_adjoint_by_definition(bc):
    """Self-adjointness of boundary conditions, straight from the definition.

    The conditions cut out a self-adjoint restriction of the maximal
    operator exactly when they are two independent rows (half of the
    four boundary values) and the Lagrange boundary term vanishes on the
    domain they leave, i.e. boundary_form_raw is Hermitian there.  It is
    checked on kernel_basis(), which spans that domain.
    """
    if bc.rank != 2:
        return False
    basis = [jet_from_vector(v) for v in bc.kernel_basis()]
    return all(
        boundary_form_raw(u, v) == boundary_form_raw(v, u).conjugate()
        for u in basis
        for v in basis
    )


def spectral_polys(bc, rank_error):
    """D and the numerators of r_left, t_left, r_right, t_right as exact
    polynomials in kappa whose coefficients are the minors of the rows
    (see numerics._spectral_ints)."""
    m01, m02, m03, m12, m13, m23 = minors(extract_bc(bc))
    if not any((m01, m02, m03, m12, m13, m23)):
        raise PreconditionError(rank_error)
    return (
        Poly((m01, -m03 - m12, -m23)),
        Poly((-m01, m03 - m12, -m23)),
        Poly((0, 2 * m02)),
        Poly((-m01, m12 - m03, -m23)),
        Poly((0, 2 * m13)),
    )


def scattering_by_polys(bc, k):
    """numerics.scattering, with every amplitude the exact Scalar N(kappa)
    / D(kappa) at kappa = -ik, k as an exact Fraction, rounded by complex()."""
    det, *nums = spectral_polys(
        bc, "scattering needs a rank-2 boundary condition")
    if not k > 0:
        raise PreconditionError("wavenumber must be positive")
    if k == math.inf:
        raise PreconditionError("wavenumber must be finite")
    # Fraction keeps a numpy integer's fixed-width numerator; int() makes
    # it exact
    k_exact = Fraction(k)
    kappa = Scalar(0, -Fraction(int(k_exact.numerator), int(k_exact.denominator)))
    det = det.eval(kappa)
    if not det:
        return ScatteringData(k, singular=True)
    return ScatteringData(k, *(complex(n.eval(kappa) / det) for n in nums))


def _sign(x):
    return (x > 0) - (x < 0)


def _surd_sign(a, b, d):
    """Sign of a + b sqrt(d) for rationals a, b and d >= 0, by squaring."""
    sa, sb = _sign(a), _sign(b) * (d > 0)
    if sa * sb >= 0:
        return sa or sb
    return sa * _sign(a * a - b * b * d)


def exact_bound_energies(bc):
    """The energies -kappa^2 of numerics.bound_states, exact and ascending.

    kappa runs over the positive real roots of the Poly D of spectral_polys,
    made monic: kappa^2 + p kappa + q (or kappa + q) with Scalar p and q.
    With a non-real p or q only the root of the imaginary part can be real,
    and D is evaluated there.  A real quadratic's roots are
    (-p +- sqrt(disc)) / 2, each kept by the sign of that surd.  Each
    energy is a triple (a, b, d) of rationals, the value a + b sqrt(d).
    """
    D = spectral_polys(bc, "bound states need a rank-2 boundary condition")[0]
    coeffs = list(D.coeffs)
    if len(coeffs) < 2:
        return []
    lead = coeffs.pop()
    c = [x / lead for x in coeffs]
    if not all(x.is_real for x in c):
        if len(c) < 2 or not c[1].im:
            return []
        kappa = -c[0].im / c[1].im
        return [(-kappa * kappa, 0, 0)] if kappa > 0 and not D.eval(kappa) else []
    if len(c) == 1:
        kappa = -c[0].re
        return [(-kappa * kappa, 0, 0)] if kappa > 0 else []
    q, p = c[0].re, c[1].re
    disc = p * p - 4 * q
    if disc < 0:
        return []
    signs = [s for s in ((1, -1) if disc else (1,)) if _surd_sign(-p, s, disc) > 0]
    # kappa^2 = (p^2 + disc - 2 s p sqrt(disc)) / 4
    return [(-(p * p + disc) / 4, s * p / 2, disc) for s in signs]


def correctly_rounded(x, energy):
    """Whether the float x is the negative surd energy (a, b, d) of
    exact_bound_energies rounded to nearest, ties to even, sign bit included.

    The energy must lie between the midpoints from x to its math.nextafter
    neighbours; below the largest float's negative, the gap mirrors the
    one above.  No square root is taken: surds are compared by squaring.
    """
    a, b, d = energy
    f = Fraction(x)
    down, up = (math.nextafter(x, t) for t in (-math.inf, math.inf))
    gap_down = f - Fraction(down) if down > -math.inf else Fraction(up) - f
    below = _surd_sign(a - f + gap_down / 2, b, d)  # energy - lower midpoint
    above = _surd_sign(a - f - (Fraction(up) - f) / 2, b, d)
    even = not struct.unpack("<q", struct.pack("<d", x))[0] & 1
    return (math.copysign(1.0, x) < 0 and below >= 0 >= above
            and (even or (below and above)))


def even_ground_state(potential, a):
    """Ground state energy of -d²/dx² + V for an even V vanishing off [-a, a].

    Shooting: the even solution psi(0) = 1, psi'(0) = 0 is integrated
    across [0, a], and kappa is the root of psi'(a) + kappa psi(a) = 0, the
    condition that joins it to the exact decaying tail exp(-kappa x).  The
    bracket ends where kappa**2 reaches the sampled depth of the well,
    where the solution is convex and the mismatch positive.  Only a
    solution without a node on [0, a] is accepted: that is the ground
    state.
    """
    kappa_max = math.sqrt(-min(potential(a * k / 64) for k in range(65)))

    def shoot(kappa):
        return solve_ivp(
            lambda x, y: (y[1], (potential(x) + kappa * kappa) * y[0]),
            (0.0, a), (1.0, 0.0), method="DOP853", rtol=1e-11, atol=1e-13,
        )

    def mismatch(kappa):
        psi, dpsi = shoot(kappa).y[:, -1]
        return dpsi + kappa * psi

    kappa = brentq(mismatch, 1e-9, kappa_max, xtol=1e-14, rtol=1e-14)
    if not min(shoot(kappa).y[0]) > 0:
        raise ValueError("the even state found has a node; not the ground state")
    return -kappa * kappa
