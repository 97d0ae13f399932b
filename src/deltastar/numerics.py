"""Floating-point lab for the exact layer.

Three independent checks live here:

* mollified one-sided limits — pair a piecewise polynomial against the
  shifted bump kernel v_eps^(n)(x -+ eps) by tanh-sinh quadrature and
  compare with the exact one-sided jet value;
* scattering and bound states of a rank-2 boundary condition, read off
  quadratics in kappa whose coefficients are the minors of the rows over
  their common denominator, as Gaussian integers: the determinant D(kappa)
  of the rows on decaying jets, whose positive roots give the energies,
  and the Cramer numerators, evaluated with D at kappa = -ik; each float
  of an energy or an amplitude is the exact value correctly rounded;
* a Dirichlet finite-difference Hamiltonian on [-L, L] whose low
  eigenvalues can be compared against the bound-state energies of the
  operator the regularized potential approximates.

Results here are floats; the exact reference values come from the
symbolic modules.  Only the grid needs numpy and scipy, and imports them
when it runs.
"""

from __future__ import annotations

import math
import sys

from .boundary_ops import (
    PreconditionError,
    Record,
    SidedDelta,
    apply_shifting_delta_dist,
)
from .dist_core import as_poly, gaussian_integers, pair_polynomial_test
from .schrodinger import extract_bc, minors


# --------------------------------------------------------------------------
# tanh-sinh quadrature

_TS_TOL = 1e-12
_TS_LEVELS = 12
# a few roundings in each value of f and in the sum, relative to |f|
_TS_ROUNDING = 8 * sys.float_info.epsilon


def _tanh_sinh(f, a, b):
    """(integral of f over (a, b), error estimate); f may be complex.

    The double-exponential rule of Takahasi & Mori, Publ. RIMS 9 (1974)
    721: x = c + r tanh(pi/2 sinh t) clusters the nodes at the ends, where
    the bump is flat, and the trapezoid rule in t on |t| <= 4 (weights
    below 1e-35 past it) halves its step, reusing the old nodes.  The
    estimate is the larger of the difference between the last two levels
    and the rounding, _TS_ROUNDING * integral of |f|.  The rule
    stops once the difference is within _TS_TOL * max(1, |value|) or the
    rounding, or is not finite, or after _TS_LEVELS halvings.
    """
    r = (b - a) / 2

    def level(ts):  # sums of f and |f| times the weight at the nodes +-t
        s = m = 0.0
        for t in ts:
            e = math.exp(-math.pi * math.sinh(t))  # exp(-2u) keeps the
            d = 2 * r * e / (1 + e)  # distance to the ends exact
            w = 2 * math.pi * r * math.cosh(t) * e / (1 + e) ** 2
            lo, hi = f(a + d), f(b - d)
            s += w * (lo + hi)
            m += w * (abs(lo) + abs(hi))
        return s, m

    h = 1.0
    (s, m), (total, mass) = level((0.0,)), level((1, 2, 3, 4))
    total, mass = total + s / 2, mass + m / 2  # t = 0 is one node, not two
    value = total
    for _ in range(_TS_LEVELS):
        s, m = level((j + 0.5) * h for j in range(int(4 / h)))
        total, mass, h = total + s, mass + m, h / 2
        diff, value = abs(h * total - value), h * total
        rounding = _TS_ROUNDING * h * mass
        if not diff > max(rounding, _TS_TOL * max(1.0, abs(value))):
            break  # NaN stops too
    return value, max(diff, rounding)


# --------------------------------------------------------------------------
# the bump kernel


# 1 / integral of exp(-1/(1-x^2)) over (-1, 1), 1/0.44399381616807943...
_BUMP_NORM = 2.252283621043581
_bump_poly_cache = [[1]]


def _bump_poly(order):
    """Integer coefficients of the numerator in the order-th derivative.

    d^k/dx^k exp(-1/(1-x^2)) = P_k(x)/(1-x^2)^(2k) * exp(-1/(1-x^2)),
    with P_{k+1} = (1-x^2)^2 P_k' + ((4k-2)x - 4k x^3) P_k, whose x^j
    coefficient is (j+1) p_{j+1} + (4k-2j) p_{j-1} + (j-3-4k) p_{j-3}.
    """
    while len(_bump_poly_cache) <= order:
        k = len(_bump_poly_cache) - 1
        p = [0] * 3 + _bump_poly_cache[-1] + [0] * 4  # p[j + 3] is p_j
        nxt = [
            (j + 1) * p[j + 4] + (4 * k - 2 * j) * p[j + 2]
            + (j - 3 - 4 * k) * p[j]
            for j in range(len(p) - 4)
        ]
        while len(nxt) > 1 and not nxt[-1]:
            nxt.pop()
        _bump_poly_cache.append(nxt)
    return _bump_poly_cache[order]


def _check_order(order):
    """The rule for a bump derivative's order, in bump and SmoothingKernel."""
    if not isinstance(order, int) or order < 0:
        raise PreconditionError("order must be a nonnegative integer")


def bump(x, order=0):
    """order-th derivative of the unit-mass bump at a float point; order
    must be a nonnegative integer, else PreconditionError."""
    # a plain nonnegative int, as at every grid point, skips the call
    if order.__class__ is not int or order < 0:
        _check_order(order)
    t = 1.0 - x * x
    if t < 1e-6:  # exp(-1/t) underflows long before this
        return 0.0
    num = 0.0
    for c in reversed(_bump_poly(order)):
        num = num * x + float(c)
    return _BUMP_NORM * math.exp(-1.0 / t) * num / t ** (2 * order)


class SmoothingKernel(Record):
    """Shifted, scaled bump derivative v_eps^(order)(x -+ eps).

    side "right" shifts the support to (0, 2*eps); side "left" to
    (-2*eps, 0).  As eps -> 0 pairing against the kernel converges to the
    corresponding one-sided jet sample.  eps must be positive and finite,
    with eps**(1 + order) inside the float range, and order a nonnegative
    integer; anything else raises PreconditionError.
    """

    eps: float
    order: int = 0
    side: str = "right"

    def __post_init__(self):
        if not self.eps > 0:
            raise PreconditionError("eps must be positive")
        if self.eps == math.inf:
            raise PreconditionError("eps must be finite")
        _check_order(self.order)
        try:
            scale = self.eps ** (1 + self.order)
        except OverflowError:
            raise PreconditionError(
                "eps=%g overflows the kernel's scale eps**%d"
                % (self.eps, 1 + self.order)) from None
        if not scale:
            raise PreconditionError(
                "eps=%g underflows the kernel's scale eps**%d"
                % (self.eps, 1 + self.order))
        if self.side not in ("left", "right"):
            raise PreconditionError("side must be 'left' or 'right'")

    @property
    def support(self):
        if self.side == "right":
            return (0.0, 2.0 * self.eps)
        return (-2.0 * self.eps, 0.0)

    def __call__(self, x):
        center = self.eps if self.side == "right" else -self.eps
        return bump((x - center) / self.eps, self.order) / self.eps ** (
            1 + self.order
        )

    def mass(self):
        """Quadrature of the kernel over its support (1 for order 0, else
        0 by cancellation between lobes of size eps**-order)."""
        return _tanh_sinh(self, *self.support)[0]


# --------------------------------------------------------------------------
# weak one-sided limits


def weak_limit_value(F, t=1, order=0, side="right"):
    """Exact limit of the mollified pairing, via the sided-delta action."""
    combo = apply_shifting_delta_dist(SidedDelta(side, order), F)
    return pair_polynomial_test(combo, t)


def mollified_pairing_with_error(F, t=1, order=0, side="right", eps=0.1):
    """(<v_eps^(order)(. -+ eps) F, t>, error estimate) by tanh-sinh.

    F must be purely piecewise-polynomial (no delta terms); the integrand
    is split at breakpoints of F inside the kernel support, and the
    estimate sums the rule's estimates over the pieces.
    """
    if F.deltas:
        raise PreconditionError("mollified pairing needs a delta-free F")
    tp = as_poly(t)
    kern = SmoothingKernel(eps, order, side)
    lo, hi = kern.support
    cuts = [lo] + [
        float(b) for b in F.breakpoints if lo < float(b) < hi
    ] + [hi]

    def integrand(x):
        return F.eval_float(x) * tp.eval_float(x) * kern(x)

    parts = [_tanh_sinh(integrand, a, b) for a, b in zip(cuts, cuts[1:])]
    total = sum(v for v, _ in parts)
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise PreconditionError(
            "mollified pairing at eps=%g is not finite" % eps)
    return total, sum(e for _, e in parts)


def mollified_pairing(F, t=1, order=0, side="right", eps=0.1):
    """<v_eps^(order)(. -+ eps) F, t>; see mollified_pairing_with_error."""
    return mollified_pairing_with_error(F, t, order, side, eps)[0]


def weak_limit_check(F, t=1, order=0, side="right",
                     eps_list=(0.1, 0.05, 0.025)):
    """Absolute quadrature-vs-exact errors, one per eps.

    Exercises the convergence of the mollified one-sided action for jet
    orders 0 and 1; errors should decrease (not necessarily strictly, an
    exact-zero limit can hit quadrature noise) as eps shrinks.
    """
    exact = complex(weak_limit_value(F, t, order, side))
    return [
        abs(mollified_pairing(F, t, order, side, eps) - exact)
        for eps in eps_list
    ]


# --------------------------------------------------------------------------
# scattering and bound states

_NAN = complex(float("nan"), float("nan"))


class ScatteringData(Record):
    """Reflection/transmission amplitudes at one wavenumber.

    singular means the jet system was degenerate at this k, D(-ik) = 0
    exactly (a bound state embedded at the sampling energy or a rank
    defect); the amplitudes are NaN in that case.
    """

    k: float
    r_left: complex = _NAN
    t_left: complex = _NAN
    r_right: complex = _NAN
    t_right: complex = _NAN
    singular: bool = False


def _spectral_ints(bc, rank_error):
    """D and the numerators of r_left, t_left, r_right, t_right, in integers.

    The jets (1, 0, kappa, 0) and (0, 1, 0, -kappa) decay on the two
    half-lines for Re kappa > 0; the conditions have a solution on them
    where D(kappa) = 0.  Expanded, D and the Cramer numerators of the
    plane-wave amplitudes at kappa = -ik are polynomials of degree <= 2
    whose coefficients are the minors m_ij of the rows
    (schrodinger.minors).  Each comes as its three coefficients, of
    kappa^0, kappa^1 and kappa^2, each a Gaussian integer (x, y) = x + iy:
    the minors times their least common denominator L > 0, which scales
    all five by L and so changes neither their ratios nor the roots of D.
    Below rank 2 every minor is zero.
    """
    ms = minors(extract_bc(bc))
    if not any(ms):
        raise PreconditionError(rank_error)
    (x01, y01), (x02, y02), (x03, y03), (x12, y12), (x13, y13), (x23, y23) = (
        gaussian_integers(ms))
    return (
        ((x01, y01), (-x03 - x12, -y03 - y12), (-x23, -y23)),
        ((-x01, -y01), (x03 - x12, y03 - y12), (-x23, -y23)),
        ((0, 0), (2 * x02, 2 * y02), (0, 0)),
        ((-x01, -y01), (x12 - x03, y12 - y03), (-x23, -y23)),
        ((0, 0), (2 * x13, 2 * y13), (0, 0)),
    )


def scattering(bc, k):
    """Plane-wave amplitudes for a rank-2 boundary condition.

    The decaying jets at kappa = -ik are the outgoing waves, at +ik the
    incoming ones.  Cramer's rule on e^{ikx} + r e^{-ikx} | t e^{ikx}
    (left incidence) and its mirror gives each amplitude as its numerator
    N over D, both evaluated at kappa = -ik.  With k = p/q exactly (as
    int, float, Fraction, Decimal and a real Scalar give it), q^2 N(-ik)
    and q^2 D(-ik) are Gaussian integers, and N/D = N conj(D) / |D|^2:
    each real and imaginary part is one int true division, which Python
    rounds correctly, so each float is the exact value correctly rounded.
    singular means D(-ik) = 0.
    """
    det, *nums = _spectral_ints(
        bc, "scattering needs a rank-2 boundary condition")
    if not k > 0:
        raise PreconditionError("wavenumber must be positive")
    if k == math.inf:
        raise PreconditionError("wavenumber must be finite")
    # a numbers.Rational without as_integer_ratio (a numpy integer) has
    # numerator and denominator, as fixed-width ints that int() makes exact
    ratio = getattr(k, "as_integer_ratio", None)
    p, q = ratio() if ratio else (int(k.numerator), int(k.denominator))
    pp, pq, qq = p * p, p * q, q * q

    def at(c):  # q^2 (c0 + c1 kappa + c2 kappa^2) at kappa = -ip/q: (re, im)
        (x0, y0), (x1, y1), (x2, y2) = c
        return x0 * qq + y1 * pq - x2 * pp, y0 * qq - x1 * pq - y2 * pp

    dx, dy = at(det)
    norm = dx * dx + dy * dy
    if not norm:
        return ScatteringData(k, singular=True)
    amps = []
    for c in nums:
        x, y = at(c)
        amps.append(complex((x * dx + y * dy) / norm, (y * dx - x * dy) / norm))
    return ScatteringData(k, *amps)


def _rounded(a, b, n, c):
    """(a + b sqrt(n)) / c, c > 0, rounded once: sqrt(n) 2^g is bracketed by
    r = isqrt(n << 2g) and r + 1, and g doubles until both ends, two int
    divisions that Python rounds correctly, round alike.  The lower end is
    returned, since -0.0 == 0.0 and an energy that rounds to zero is -0.0."""
    r = math.isqrt(n)
    if r * r == n:
        return (a + b * r) / c
    g = 64
    while True:
        x = (a << g) + b * math.isqrt(n << 2 * g)
        lo, hi = (y / (c << g) for y in sorted((x, x + b)))
        if lo == hi:
            return lo
        g *= 2


def bound_states(bc):
    """Negative-energy eigenvalues E = -kappa^2, ascending, over the positive
    real roots kappa of D (see _spectral_ints) times the conjugate of its
    leading coefficient: a2 kappa^2 + a1 kappa + a0 + i (b1 kappa + b0) in
    ints, a2 > 0.  A non-real D can vanish only at -b0/b1; for a real one
    E = (2 a2 a0 - a1^2 +- a1 sqrt(disc)) / (2 a2^2), rounded once."""
    det = list(_spectral_ints(bc, "bound states need a rank-2 boundary condition")[0])
    while det and det[-1] == (0, 0):
        det.pop()
    if len(det) < 2:
        return []  # D is zero or a nonzero constant
    u, v = det.pop()
    a2 = u * u + v * v
    (a0, b0), *rest = [(x * u + y * v, y * u - x * v) for x, y in det]
    if not rest:  # a2 kappa + a0 + i b0
        return [-(a0 * a0) / (a2 * a2)] if a0 < 0 and not b0 else []
    ((a1, b1),) = rest
    if b0 or b1:
        real = a2 * b0 * b0 - a1 * b0 * b1 + a0 * b1 * b1 == 0
        return [-(b0 * b0) / (b1 * b1)] if real and b0 * b1 < 0 else []
    disc = a1 * a1 - 4 * a2 * a0
    # with disc >= 0, the larger root is positive if the product a0 / a2 of
    # the roots is negative or their sum -a1 / a2 positive, the smaller (if
    # distinct) if the product and the sum are both positive
    signs = [1] * (a0 < 0 or a1 < 0 <= disc) + [-1] * (a0 > 0 > a1 and disc > 0)
    return [_rounded(2 * a2 * a0 - a1 * a1, s * a1, disc, 2 * a2 * a2) for s in signs]


# --------------------------------------------------------------------------
# grid Hamiltonian

_GRID_NEEDS = "spectrum --grid needs numpy and scipy"
_GRID_MAX_N = 10 ** 6  # 8 MB per array of samples


class GridHamiltonian:
    """Central-difference -psi'' + V psi on [-L, L], Dirichlet at the ends.

    diag/offdiag form the symmetric tridiagonal matrix over the N interior
    points x_j = -L + (j+1) h, h = 2L/(N+1).  A plain object: its numpy
    arrays have no value equality, so two grids compare by identity.
    """

    __slots__ = ("L", "N", "x", "diag", "offdiag")

    def __init__(self, L, N, x, diag, offdiag):
        self.L, self.N, self.x, self.diag, self.offdiag = L, N, x, diag, offdiag


class GridWell:
    """strength * bump(x / eps) / eps on (-eps, eps): as eps -> 0, the delta
    well of that strength (Albeverio et al., Solvable Models in QM, I.3)."""

    __slots__ = ("strength", "eps", "support")

    def __init__(self, strength, eps):
        self.strength, self.eps, self.support = strength, eps, (-eps, eps)

    def __call__(self, x):
        return self.strength * bump(x / self.eps) / self.eps


def grid_hamiltonian(L, N, potential=None):
    # N is checked before numpy allocates anything of its size
    if not (isinstance(N, int) and 3 <= N <= _GRID_MAX_N):
        raise PreconditionError("need a whole number of grid points "
                                "3 <= N <= %d, got N=%s" % (_GRID_MAX_N, N))
    h = 2.0 * L / (N + 1)
    # only the support is sampled; at eps = h the ground state is ~30% off
    lo, hi = getattr(potential, "support", (-math.inf, math.inf))
    if not (hi - lo >= 4.0 * h or math.isnan(h)):  # a NaN L is refused below
        raise PreconditionError(
            "--grid kernel width eps=%g is below twice the grid "
            "spacing h=%g; raise N or eps" % ((hi - lo) / 2, h))
    if not L > 0:
        raise PreconditionError("half-width must be positive")
    try:
        import numpy as np
    except ImportError:
        raise PreconditionError(_GRID_NEEDS) from None

    # the stencil's 2/h^2 and -1/h^2 must be finite nonzero floats
    if not (0.0 < h * h < math.inf and 2.0 / (h * h) < math.inf):
        raise PreconditionError(
            "the grid over [-%g, %g] with N=%d has spacing h=%g, whose "
            "1/h^2 is not a finite nonzero float" % (L, L, N, h))
    x = -L + h * (np.arange(N) + 1)
    diag = np.full(N, 2.0 / (h * h))
    if potential is not None:
        i, j = np.searchsorted(x, (lo, hi))
        diag[i:j] += [float(potential(xi)) for xi in x[i:j].tolist()]
    if not np.isfinite(diag).all():
        raise PreconditionError("the potential is not finite on the grid")
    offdiag = np.full(N - 1, -1.0 / (h * h))
    return GridHamiltonian(L, N, x, diag, offdiag)


def grid_eigenvalues(H, m):
    """m smallest eigenvalues of the grid Hamiltonian, ascending."""
    if not 1 <= m <= H.N:
        raise PreconditionError("need 1 <= m <= N eigenvalues")
    try:
        from scipy.linalg import LinAlgError, eigvalsh_tridiagonal
    except ImportError:
        raise PreconditionError(_GRID_NEEDS) from None

    try:
        vals = eigvalsh_tridiagonal(
            H.diag, H.offdiag, select="i", select_range=(0, m - 1)
        )
    except LinAlgError as exc:
        raise PreconditionError(
            "the eigensolver failed on the grid over [-%g, %g] with N=%d: %s"
            % (H.L, H.L, H.N, exc)) from None
    return [float(v) for v in vals]
