"""Floating-point lab for the exact layer.

Three independent checks live here:

* mollified one-sided limits — pair a piecewise polynomial against the
  shifted bump kernel v_eps^(n)(x -+ eps) by tanh-sinh quadrature and
  compare with the exact one-sided jet value;
* scattering and bound states of a rank-2 boundary condition, read off
  exact polynomials in kappa whose coefficients are minors of the rows:
  the determinant D(kappa) of the rows on decaying jets, with its positive
  roots, and the Cramer numerators, evaluated with D at kappa = -ik;
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
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .boundary_ops import PreconditionError, SidedDelta, apply_shifting_delta_dist
from .dist_core import Poly, Scalar, as_poly, pair_polynomial_test
from .schrodinger import extract_bc, minors

if TYPE_CHECKING:
    import numpy as np


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


@dataclass(frozen=True)
class SmoothingKernel:
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


@dataclass(frozen=True)
class ScatteringData:
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


def _spectral_polys(bc, rank_error):
    """D and the numerators of r_left, t_left, r_right, t_right, exactly.

    The jets (1, 0, kappa, 0) and (0, 1, 0, -kappa) decay on the two
    half-lines for Re kappa > 0; the conditions have a solution on them
    where D(kappa) = 0.  Expanded, D and the Cramer numerators of the
    plane-wave amplitudes at kappa = -ik are polynomials of degree <= 2
    whose coefficients are the minors m_ij of the rows
    (schrodinger.minors).  Below rank 2 every minor is zero.
    """
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


def scattering(bc, k):
    """Plane-wave amplitudes for a rank-2 boundary condition.

    The decaying jets at kappa = -ik are the outgoing waves, at +ik the
    incoming ones.  Cramer's rule on e^{ikx} + r e^{-ikx} | t e^{ikx}
    (left incidence) and its mirror gives each amplitude as its numerator
    over D, both evaluated exactly at kappa = -i Fraction(k); singular
    means D(-ik) = 0.
    """
    det, *nums = _spectral_polys(
        bc, "scattering needs a rank-2 boundary condition")
    if not k > 0:
        raise PreconditionError("wavenumber must be positive")
    if k == math.inf:
        raise PreconditionError("wavenumber must be finite")
    kappa = Scalar(0, -Fraction(k))
    det = det.eval(kappa)
    if not det:
        return ScatteringData(k, singular=True)
    return ScatteringData(k, *(complex(n.eval(kappa) / det) for n in nums))


def bound_states(bc):
    """Negative-energy eigenvalues E = -kappa^2, ascending.

    kappa runs over the positive real roots of D (see _spectral_polys),
    made monic.  With a non-real coefficient the only candidate is the
    root of the imaginary part, checked exactly; otherwise the real
    quadratic is solved by the stable formula.
    """
    D = _spectral_polys(bc, "bound states need a rank-2 boundary condition")[0]
    coeffs = list(D.coeffs)
    if len(coeffs) < 2:
        return []  # D is zero or a nonzero constant
    lead = coeffs.pop()
    c = [x / lead for x in coeffs]  # D / lead = kappa^n + ... + c[0]
    if not all(x.is_real for x in c):
        im = [x.im for x in c]
        kappas = [-im[0] / im[1]] if len(c) == 2 and im[1] else []
        kappas = [x for x in kappas if not D.eval(x)]
    elif len(c) == 1:
        kappas = [-c[0].re]
    else:
        q, p = c[0].re, c[1].re
        disc = p * p - 4 * q
        kappas = [-p / 2] if disc == 0 else []
        if disc > 0:
            s = -(float(p) + math.copysign(math.sqrt(disc), p)) / 2
            kappas = [s, float(q) / s]
    return sorted(float(-x ** 2) for x in kappas if x > 0)


# --------------------------------------------------------------------------
# grid Hamiltonian

_GRID_NEEDS = "spectrum --grid needs numpy and scipy"
_GRID_MAX_N = 10 ** 6  # 8 MB per array of samples


@dataclass(frozen=True)
class GridHamiltonian:
    """Central-difference -psi'' + V psi on [-L, L], Dirichlet at the ends.

    diag/offdiag form the symmetric tridiagonal matrix over the N interior
    points x_j = -L + (j+1) h, h = 2L/(N+1).
    """

    L: float
    N: int
    x: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray


def grid_hamiltonian(L, N, potential=None):
    # N is checked before numpy allocates anything of its size
    if not (isinstance(N, int) and 3 <= N <= _GRID_MAX_N):
        raise PreconditionError("need a whole number of grid points "
                                "3 <= N <= %d, got N=%s" % (_GRID_MAX_N, N))
    if not L > 0:
        raise PreconditionError("half-width must be positive")
    try:
        import numpy as np
    except ImportError:
        raise PreconditionError(_GRID_NEEDS) from None

    h = 2.0 * L / (N + 1)
    # the stencil's 2/h^2 and -1/h^2 must be finite nonzero floats
    if not (0.0 < h * h < math.inf and 2.0 / (h * h) < math.inf):
        raise PreconditionError(
            "the grid over [-%g, %g] with N=%d has spacing h=%g, whose "
            "1/h^2 is not a finite nonzero float" % (L, L, N, h))
    x = -L + h * (np.arange(N) + 1)
    v = np.zeros(N) if potential is None else np.array(
        [float(potential(float(xi))) for xi in x]
    )
    diag = 2.0 / (h * h) + v
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
