import math
import random
import re
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad

from deltastar import Poly, Scalar, add, delta_dist, heaviside, indicator, numerics
from deltastar.boundary_ops import PreconditionError, PseudoPotential
from deltastar.numerics import (
    _BUMP_NORM,
    _TS_TOL,
    _tanh_sinh,
    GridHamiltonian,
    GridWell,
    ScatteringData,
    SmoothingKernel,
    bound_states,
    bump,
    grid_eigenvalues,
    grid_hamiltonian,
    mollified_pairing,
    mollified_pairing_with_error,
    scattering,
    weak_limit_check,
    weak_limit_value,
)
from deltastar.schrodinger import (
    BCMatrix,
    DeltaPrimeFamily,
    PointPotential,
    classify,
    delta_prime_interaction,
    delta_well,
    dirichlet_specs,
    extract_bc,
    match_continuity_jump,
    match_theta_jump,
    represent_from_bc,
)
from helpers import (
    correctly_rounded,
    exact_bound_energies,
    oracle_corpus,
    rand_frac,
    rand_scalar,
    scattering_by_polys,
)


# -- the kernel ----------------------------------------------------------------


def test_kernel_mass():
    for eps in (0.1, 0.05):
        assert abs(SmoothingKernel(eps, 0).mass() - 1.0) < 1e-10
        for order in (1, 2):
            assert abs(SmoothingKernel(eps, order).mass()) < 1e-10


def test_kernel_support():
    k = SmoothingKernel(0.1, 0, "right")
    assert k.support == (0.0, 0.2)
    assert k(-0.01) == 0.0 and k(0.21) == 0.0
    assert k(0.1) > 0.0
    k = SmoothingKernel(0.1, 0, "left")
    assert k.support == (-0.2, 0.0)
    assert k(-0.1) > 0.0 and k(0.05) == 0.0


def test_kernel_validation():
    with pytest.raises(PreconditionError):
        SmoothingKernel(0.0, 0)
    with pytest.raises(PreconditionError):
        SmoothingKernel(0.1, 0, "up")
    with pytest.raises(PreconditionError, match="positive"):
        SmoothingKernel(float("nan"), 0)
    with pytest.raises(PreconditionError, match="finite"):
        SmoothingKernel(math.inf, 0)
    with pytest.raises(PreconditionError, match="underflows"):
        SmoothingKernel(1e-200, 1)  # eps**2 is zero
    with pytest.raises(PreconditionError, match=r"overflows.*eps\*\*2"):
        SmoothingKernel(1e300, 1)  # eps**2 is out of range
    # a negative order read the last cached bump derivative, and a
    # fractional one failed later with a TypeError
    for order in (-1, 1.5, 1.0, "1", None):
        with pytest.raises(PreconditionError, match="nonnegative integer"):
            SmoothingKernel(0.1, order)
    # which the pairing took as a value with a tiny error estimate
    F = indicator(-1, None, Poly([1, 1]), n=1)
    with pytest.raises(PreconditionError, match="nonnegative integer"):
        mollified_pairing_with_error(F, 1, -1, "right", 0.1)


def test_bump_norm_constant_matches_quad():
    raw, err = quad(lambda x: math.exp(-1.0 / (1.0 - x * x)), -1.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-13
    assert abs(_BUMP_NORM - 1.0 / raw) < 1e-15


def test_bump_derivatives_match_finite_differences():
    h = 1e-6
    for order in (1, 2):
        for x in (-0.7, -0.2, 0.1, 0.5, 0.9):
            fd = (bump(x + h, order - 1) - bump(x - h, order - 1)) / (2 * h)
            assert abs(bump(x, order) - fd) < 1e-4 * max(1.0, abs(fd))


def test_bump_vanishes_outside():
    assert bump(1.0) == 0.0 and bump(-1.2) == 0.0 and bump(0.999999) == 0.0


def test_bump_order_validation(monkeypatch):
    # a negative order read the cache's last entry, so its value depended
    # on which orders had been asked for before; a fractional one failed
    # with a TypeError from list indexing
    monkeypatch.setattr(numerics, "_bump_poly_cache", [[1]])
    fresh = [bump(x, order) for order in (0, 1, 2) for x in (-0.5, 0.3)]
    bump(0.5, 5)  # grows the cache
    assert [bump(x, order) for order in (0, 1, 2) for x in (-0.5, 0.3)] == fresh
    for cache in ([[1]], numerics._bump_poly_cache):
        monkeypatch.setattr(numerics, "_bump_poly_cache", cache)
        for order in (-1, -3, 1.5, 1.0, 0.0, "1", None):
            for x in (0.5, 2.0):
                with pytest.raises(PreconditionError, match="nonnegative integer"):
                    bump(x, order)
    assert bump(0.5, True) == bump(0.5, 1)  # the kernel takes bools too


# -- weak one-sided limits -------------------------------------------------------


def test_weak_limit_exact_values():
    H = heaviside(0)
    assert weak_limit_value(H) == 1
    assert weak_limit_value(H, side="left") == 0
    assert weak_limit_value(H, t=Poly([0, 1]), order=1) == -1
    F = indicator(0, None, Poly([1, 1]), n=1)
    assert weak_limit_value(F, order=1) == -1
    assert weak_limit_value(F, order=1, side="left") == 0


def test_mollified_pairing_converges():
    F = indicator(0, None, Poly([1, 1]), n=0)
    errs = weak_limit_check(F, t=Poly([1, -1]))
    assert len(errs) == 3
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_mollified_pairing_complex_and_two_sided():
    F = indicator(None, 0, Poly([Scalar(0, 2)]), n=0)  # 2i on the left
    exact = complex(weak_limit_value(F, side="left"))
    got = mollified_pairing(F, side="left", eps=0.05)
    assert abs(got - exact) < 1e-8
    assert abs(exact - 2j) < 1e-15


def test_mollified_pairing_rejects_deltas():
    with pytest.raises(PreconditionError):
        mollified_pairing(add(heaviside(0), delta_dist(0, 0)), eps=0.1)


def test_mollified_pairing_rejects_overflow():
    # at eps=1e300 (1+x)(1-x) overflows on the kernel's support
    F = indicator(0, None, Poly([1, 1]), n=0)
    with pytest.raises(PreconditionError, match="not finite"):
        mollified_pairing(F, t=Poly([1, -1]), eps=1e300)


def test_tanh_sinh_closed_forms():
    value, est = _tanh_sinh(lambda x: 1.0 / (1.0 + x * x), -1.0, 1.0)
    assert abs(value - math.pi / 2) < 1e-14 and est <= _TS_TOL
    # an integrable endpoint singularity, and a complex integrand
    value, est = _tanh_sinh(lambda x: 1.0 / math.sqrt(x), 0.0, 4.0)
    assert abs(value - 4.0) < 1e-12 and est <= 4 * _TS_TOL
    value, est = _tanh_sinh(lambda x: complex(math.cos(x), math.sin(x)),
                            0.0, math.pi)
    assert abs(value - 2j) < 1e-14 and est <= 2 * _TS_TOL


# three distributions with breakpoints inside every support below
_QUAD_DISTS = (
    add(indicator(Fraction(1, 50), None, Poly([1, 1])),
        indicator(None, Fraction(-1, 30), Poly([2, 0, -1]))),
    add(indicator(Fraction(1, 100), Fraction(1, 25), Poly([Scalar(1, 2), 3])),
        indicator(Fraction(-3, 80), Fraction(-1, 100), Poly([-1, 0, 0, 5]))),
    add(indicator(Fraction(1, 40), None, Poly([Fraction(1, 3), Scalar(0, 1)])),
        indicator(None, Fraction(-1, 70), Poly([4, -2]))),
)


def _quad_pairing(F, t, order, side, eps):
    """The same pairing by scipy's adaptive quad, real and imaginary.

    quad is asked for 1e-14 and warns where roundoff stops it short.
    """
    kern = SmoothingKernel(eps, order, side)
    lo, hi = kern.support
    cuts = [lo] + [float(b) for b in F.breakpoints if lo < b < hi] + [hi]
    total = 0j
    for unit, part in ((1, lambda z: z.real), (1j, lambda z: z.imag)):
        def f(x):
            return part(F.eval_float(x) * t.eval_float(x) * kern(x))
        for a, b in zip(cuts, cuts[1:]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                val, _ = quad(f, a, b, epsabs=1e-14, epsrel=1e-14,
                              limit=200)
            total += unit * val
    return total


def test_mollified_pairing_matches_quad():
    t = Poly([1, -1, Fraction(1, 2)])
    cases = 0
    for F in _QUAD_DISTS:
        for order in (0, 1, 2):
            for eps in (0.1, 0.05, 0.025):
                for side in ("left", "right"):
                    lo, hi = SmoothingKernel(eps, order, side).support
                    assert any(lo < b < hi for b in F.breakpoints)
                    got, est = mollified_pairing_with_error(
                        F, t, order, side, eps)
                    assert est <= _TS_TOL * max(1.0, abs(got))
                    want = _quad_pairing(F, t, order, side, eps)
                    # order 2 reaches |value| ~ 1e4 at eps=0.025, and
                    # both sums round at that scale
                    slack = 1e-12 * (max(1.0, abs(want)) if order == 2 else 1)
                    assert abs(got - want) <= est + slack, (
                        F, order, eps, side, got, want, est)
                    cases += 1
    assert cases == 54


# -- scattering -------------------------------------------------------------------


def test_delta_well_scattering_formula():
    # r = a / (2ik - a), t = 2ik / (2ik - a)
    for a in (-2.0, -0.5, 1.5):
        for k in (0.5, 1.0, 3.0):
            d = scattering(delta_well(Fraction(a)), k)
            den = 2j * k - a
            assert abs(d.t_left - 2j * k / den) < 1e-12
            assert abs(d.r_left - a / den) < 1e-12
            assert abs(d.t_right - d.t_left) < 1e-12
            assert abs(d.r_right - d.r_left) < 1e-12


def test_free_and_dirichlet_scattering():
    free = scattering(delta_well(0), 1.0)
    assert abs(free.t_left - 1) < 1e-14 and abs(free.r_left) < 1e-14
    dd = scattering(dirichlet_specs()[1], 2.0)
    assert abs(dd.r_left + 1) < 1e-14 and abs(dd.t_left) < 1e-14
    assert abs(dd.r_right + 1) < 1e-14


def test_theta_jump_scattering_split():
    d = scattering(PointPotential(0, 0, Fraction(1, 3), Fraction(1, 3)), 1.0)
    assert abs(abs(d.r_left) ** 2 - 0.36) < 1e-12
    assert abs(abs(d.t_left) ** 2 - 0.64) < 1e-12


def test_scattering_unitarity_randomized():
    rng = random.Random(701)
    for _ in range(25):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        spec = delta_well(a) if rng.random() < 0.5 else PointPotential(
            a, a, 0, 0
        )
        for k in (0.1, 1.0, 10.0):
            d = scattering(spec, k)
            assert abs(abs(d.r_left) ** 2 + abs(d.t_left) ** 2 - 1) < 1e-12
            assert abs(abs(d.r_right) ** 2 + abs(d.t_right) ** 2 - 1) < 1e-12


def test_scattering_singular_only_when_exactly_degenerate():
    # free motion at a tiny k: D(-ik) is ~k, small but not zero
    d = scattering(delta_well(0), 1e-13)
    assert not d.singular
    assert d.r_left == 0 and d.t_left == 1


def test_scattering_singular_conditions_flagged():
    bc = BCMatrix([[1, 0, 0, 0], [0, 0, 1, 0]])  # both rows read one side
    d = scattering(bc, 1.0)
    assert d.singular
    assert math.isnan(d.t_left.real)


def test_scattering_is_the_s_matrix_of_the_rows():
    # with A the value columns (p, q) and B the outward-derivative columns
    # (-r, s), the rows read A(a + b) + ik B(b - a) = 0 for incoming
    # amplitudes a and outgoing b, so S = -(A + ikB)^-1 (A - ikB): a 2x2
    # inverse, not the minors _spectral_ints reads
    entries = singular = 0
    for spec in oracle_corpus():
        bc = extract_bc(spec)
        if bc.rank != 2:
            continue
        for k in (Fraction(1, 8), Fraction(1, 2), 1, Fraction(5, 2), 3):
            ik = Scalar(0, k)
            plus, minus = (
                [[p + sign * ik * -r, q + sign * ik * s] for p, q, r, s in bc.rows]
                for sign in (1, -1))
            det = plus[0][0] * plus[1][1] - plus[0][1] * plus[1][0]
            d = scattering(bc, float(k))
            assert d.singular == (not det), spec
            if not det:
                singular += 1
                continue
            inv = ((plus[1][1] / det, -plus[0][1] / det),
                   (-plus[1][0] / det, plus[0][0] / det))
            S = [[complex(-(inv[i][0] * minus[0][j] + inv[i][1] * minus[1][j]))
                  for j in range(2)] for i in range(2)]
            assert S == [[d.r_left, d.t_right], [d.t_left, d.r_right]], (spec, k)
            entries += 4
    assert entries > 4000 and singular > 0


# -- bound states ------------------------------------------------------------------


def test_delta_well_bound_state():
    for a in (-0.5, -1.0, -2.0, -4.0):
        E = bound_states(delta_well(Fraction(a)))
        assert len(E) == 1
        assert abs(E[0] - (-a * a / 4)) < 1e-10


def test_no_bound_states():
    assert bound_states(delta_well(2)) == []
    assert bound_states(dirichlet_specs()[1]) == []
    assert bound_states(BCMatrix([[0, 0, 1, 0], [0, 0, 0, 1]])) == []
    assert bound_states(delta_prime_interaction(3)) == []


def test_separated_robin_bound_state():
    bc = BCMatrix([[-1, 0, 1, 0], [0, 1, 0, 0]])  # psi'(0-) = psi(0-); Dirichlet right
    E = bound_states(bc)
    assert len(E) == 1 and abs(E[0] + 1.0) < 1e-10


def test_bound_states_beyond_the_old_kappa_grid():
    # kappa = 100 and kappa = 1/2000 lay outside the bracketing grid
    # (0.005, 50] the determinant used to be searched on
    assert bound_states(delta_well(-200)) == [-10000.0]
    (E,) = bound_states(delta_well(Fraction(-1, 1000)))
    assert abs(E + 2.5e-7) <= 1e-12 * 2.5e-7


def test_bound_states_below_the_float_range():
    # psi'(0-) = a psi(0-) and psi'(0+) = -b psi(0+): kappa = a and kappa = b,
    # each a bound state when positive.  With |a|, |b| near 1e-400 the
    # stable formula's larger root is 0.0; every energy rounds to -0.0
    tiny = Fraction(1, 10 ** 400)
    for a, b, count in ((3, 1, 2), (3, -1, 1), (-3, 1, 1), (-3, -1, 0),
                        (0, 1, 1), (0, -1, 0)):
        E = bound_states(BCMatrix([[-a * tiny, 0, 1, 0], [0, b * tiny, 0, 1]]))
        assert E == [0.0] * count, (a, b)
        assert all(math.copysign(1, e) == -1 for e in E)


def test_bound_states_when_the_product_or_the_discriminant_underflows():
    # kappa = a and kappa = b, as above, with the product q = a b of the
    # roots below the float range: the small root is q / s, exactly.  With
    # a = 3e-200 and b = 1e-200 the discriminant (a - b)^2 underflows too,
    # and its root comes from the exact rational
    for a, b, want in ((Fraction(3, 10 ** 200), Fraction(1, 10 ** 200), [-0.0, -0.0]),
                       (Fraction(3, 10 ** 130), Fraction(1, 10 ** 200), [-9e-260, -0.0])):
        E = bound_states(BCMatrix([[-a, 0, 1, 0], [0, b, 0, 1]]))
        assert E == want, (a, b)
        assert all(math.copysign(1, e) == -1 for e in E)


def test_a_root_below_the_float_range_beside_one_inside_it():
    # D = 1 - 2e400 kappa + 1e400 kappa^2 has kappa near 2 and 5e-401, and
    # D = 1 - 1e170 kappa + 1e160 kappa^2 near 1e10 and 1e-170: each small
    # energy rounds to -0.0.  In the second its surd cancels so far that
    # the bracket of the root puts one end on each side of zero
    for s, p, big in ((2 * 10 ** 400, 10 ** 400, -4.0), (10 ** 170, 10 ** 160, -1e20)):
        E = bound_states(BCMatrix([[1, 0, 0, 1], [0, 1, p, s]]))
        assert E == [big, -0.0] and math.copysign(1, E[1]) == -1, (s, p)


def test_complex_rows_bound_state():
    # psi'(0-) = psi(0-) and psi'(0+) = -i psi(0+): the determinant
    # (kappa - 1)(i - kappa) has non-real coefficients; the root of its
    # imaginary part, kappa = 1, is checked exactly
    i = Scalar(0, 1)
    assert bound_states(BCMatrix([[-1, 0, 1, 0], [0, i, 0, 1]])) == [-1.0]
    # psi'(0-) = i psi(0-), Dirichlet on the right: the root kappa = i
    # is not real
    assert bound_states(BCMatrix([[-i, 0, 1, 0], [0, 1, 0, 0]])) == []
    # monic D = kappa^2 + i/4 kappa - i/4: the imaginary part vanishes at
    # kappa = 1, where D = 1
    assert bound_states(BCMatrix([[1, 1, -i, 2], [i, 1 + i, i, 2]])) == []


def test_scattering_rejects_non_finite_wavenumber():
    with pytest.raises(PreconditionError, match="finite"):
        scattering(delta_well(-2), float("inf"))
    with pytest.raises(PreconditionError, match="positive"):
        scattering(delta_well(-2), float("nan"))
    d = scattering(delta_well(-2), 1e308)
    assert not d.singular
    assert abs(d.r_left) ** 2 + abs(d.t_left) ** 2 == 1.0


def _seeded_specs(rng, count):
    """Specs of three kinds and bare matrices of one to three rows, some
    with four-digit entries, some sparse or of rank below 2."""
    specs = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            span = rng.choice((3, 1000))
            specs.append(PointPotential(
                *(rand_scalar(rng, span, imag_rate=0.2) for _ in range(4))))
        elif kind == 1:
            specs.append(DeltaPrimeFamily(*(rand_frac(rng) for _ in range(4))))
        elif kind == 2:
            specs.append(delta_well(
                Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))))
        else:
            fill = rng.choice((1, 0.6))
            specs.append(BCMatrix([
                [rand_scalar(rng, imag_rate=0.4) if rng.random() < fill else 0
                 for _ in range(4)]
                for _ in range(rng.choice((1, 2, 2, 3)))]))
    return specs


def _outcome_or_error(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:  # the error's type and message must agree too
        return type(exc), str(exc)


def test_scattering_is_bitwise_the_exact_ratio():
    # every float, signed zero, singular flag and error (an amplitude past
    # the float range included) equals exact Poly/Scalar arithmetic
    # rounded once, down to subnormal and up to the largest finite k
    rng = random.Random(2001)
    specs = oracle_corpus() + _seeded_specs(rng, 240)
    ks = [5e-324, 1e-320, 1e-300, 1e-13, 0.1, 1 / 3, 1, 2.5, 1e308,
          sys.float_info.max, math.nan, 0, -1, math.inf]
    ks += [10 ** rng.uniform(-300, 300) for _ in range(4)]
    # numpy integers, some whose products pass 2**63
    ks += [np.int64(3), np.int64(10 ** 10), np.int64(2 ** 63 - 1), np.uint8(200)]
    singular, errors = 0, set()
    for spec in specs:
        for k in ks:
            got = _outcome_or_error(scattering, spec, k)
            assert got == _outcome_or_error(scattering_by_polys, spec, k), (spec, k)
            if isinstance(got, str):
                singular += "singular=True" in got
            else:
                errors.add(got)
    assert singular > 0
    assert errors == {
        (PreconditionError, "scattering needs a rank-2 boundary condition"),
        (PreconditionError, "wavenumber must be positive"),
        (PreconditionError, "wavenumber must be finite"),
        (OverflowError, "integer division result too large for a float"),
    }
    # the rank is refused before the wavenumber
    for k in (math.nan, 0, -1, math.inf):
        with pytest.raises(PreconditionError, match="rank-2"):
            scattering(BCMatrix([[1, 0, 0, 0]]), k)


def _amplitudes(d):
    return repr((d.r_left, d.t_left, d.r_right, d.t_right, d.singular))


def test_scattering_takes_any_exact_real_wavenumber():
    assert Scalar("-6/4").as_integer_ratio() == (-3, 2)
    with pytest.raises(TypeError, match="non-real"):
        Scalar(1, 1).as_integer_ratio()
    for spec in oracle_corpus() + _seeded_specs(random.Random(2003), 40):
        bc = extract_bc(spec)
        if bc.rank != 2:
            continue
        for exact, plain in ((Scalar(1), 1), (Scalar("1/3"), Fraction(1, 3)),
                             (np.int64(3), 3), (np.int64(10 ** 10), 10 ** 10),
                             (np.uint64(2 ** 64 - 1), 2 ** 64 - 1),
                             (Decimal("0.1"), Fraction(1, 10))):
            got, want = scattering(bc, exact), scattering(bc, plain)
            assert got.k == plain
            assert _amplitudes(got) == _amplitudes(want), spec
    with pytest.raises(TypeError):
        scattering(delta_well(-2), Scalar(1, 1))


def test_bound_states_match_the_polynomial_reference():
    # each energy is the exact -kappa^2 of a positive root of the Poly D,
    # correctly rounded, its sign bit set also where it rounds to zero.
    # Real integer rows give the real quadratics whose roots are surds
    specs = oracle_corpus() + _seeded_specs(random.Random(2002), 400)
    rng = random.Random(2004)
    specs += [BCMatrix([[rng.randint(-1000, 1000) for _ in range(4)] for _ in range(2)])
              for _ in range(300)]
    specs.append(BCMatrix([[1, 0, 0, 1], [0, 1, 1, 2]]))  # D = (1 - kappa)^2
    surds = 0
    for spec in specs:
        try:
            want = exact_bound_energies(spec)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError, match=re.escape(str(exc))):
                bound_states(spec)
            continue
        got = bound_states(spec)
        assert len(got) == len(want), spec
        assert all(map(correctly_rounded, got, want)), (spec, got)
        surds += sum(b != 0 for _, b, _ in want)
    assert surds > 200


def test_bound_states_where_the_float_formula_misrounded():
    # the float quadratic formula gave -0.17276513474746988, -4.392647998261772,
    # -20.823534652867252, -8.249843678088324e-05 and -19.615411982286016,
    # -0.04028074748078989, off by up to 2 ulps
    i = Scalar(0, 1)
    third, half, quarter = Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)
    cases = [
        (BCMatrix([[1, 0, half, 1], [-2, 1, 0, 3 * quarter]]), [-0.1727651347474699]),
        (PseudoPotential([2 * third, 2 * third, -2 * third + i, -2 * third + i],
                         [2 * i, 2 * i, 0, 0], [-1, -1, 0, 0]),
         [-4.392647998261771]),
        (PseudoPotential([1, 1, 3 * quarter - i, 3 * quarter - i],
                         [-2 * i, -2 * i, 0, 0], [-half, -half, 0, 0]),
         [-20.823534652867256]),
        (PseudoPotential([3 * half, third, 3, 2], [-3 * half, -2 * third, 0, 0],
                         [3 * half, -quarter, 0, 0]),
         [-8.249843678088323e-05]),
        (PseudoPotential([0, -1, -2 * third, -quarter], [-3 * half, 2 * third, 0, 0],
                         [-3 * half, -3 * half, 0, 0]),
         [-19.615411982286012, -0.04028074748078991]),
    ]
    for spec, want in cases:
        assert bound_states(spec) == want, spec
        assert all(map(correctly_rounded, want, exact_bound_energies(spec)))


def test_rounding_a_surd_within_2_to_the_minus_400_of_a_midpoint():
    # -(2^147 + sqrt(4^200 + 1)) / 2^200 = -(1 + 2^-53) - ~2^-401: 64 guard
    # bits bracket it by the midpoint itself, which ties to even at -1.0,
    # and by the next integer, so _rounded doubles them to 256
    n, c = 4 ** 200 + 1, 1 << 200
    x = numerics._rounded(-(1 << 147), -1, n, c)
    assert x == -(1 + 2.0 ** -52)
    assert correctly_rounded(x, (Fraction(-(1 << 147), c), Fraction(-1, c), n))


# -- the determinant, property-based ------------------------------------------------

_PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_PROPS
@given(a=st.fractions(min_value=Fraction(-10**4), max_value=Fraction(-1, 10**4),
                      max_denominator=10**6))
def test_delta_well_bound_state_closed_form(a):
    assert bound_states(delta_well(a)) == [float(-a * a / 4)]


@_PROPS
@given(am=st.fractions(-50, 50, max_denominator=1000),
       ap=st.fractions(-50, 50, max_denominator=1000))
def test_separated_robin_closed_form(am, ap):
    # psi'(0-) = am psi(0-) and psi'(0+) = -ap psi(0+): each half-line
    # binds -alpha^2 for a positive alpha
    bc = BCMatrix([[-am, 0, 1, 0], [0, ap, 0, 1]])
    assert bound_states(bc) == sorted({float(-a * a) for a in (am, ap) if a > 0})


_small = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 5))
_gauss = st.builds(Scalar, _small, st.one_of(st.just(0), _small))
_rows = st.lists(st.lists(_gauss, min_size=4, max_size=4), min_size=2, max_size=2)


@_PROPS
@given(rows=_rows, k=st.floats(1e-3, 1e3))
def test_scattering_solves_the_row_equations(rows, k):
    # left: e^{ikx} + r e^{-ikx} | t e^{ikx}; right: its mirror image
    bc = BCMatrix(rows)
    assume(bc.rank == 2)
    d = scattering(bc, k)
    if d.singular:
        return
    ik = 1j * k
    jets = (
        (1 + d.r_left, d.t_left, ik * (1 - d.r_left), ik * d.t_left),
        (d.t_right, 1 + d.r_right, -ik * d.t_right, -ik * (1 - d.r_right)),
    )
    for row in bc.as_complex():
        scale = sum(abs(c) for c in row) * max(1.0, k)
        for jet in jets:
            amp = max(1.0, *(abs(x) for x in jet))
            assert abs(sum(c * x for c, x in zip(row, jet))) <= 1e-12 * scale * amp


def _outcome(f, *args):
    try:
        return f(*args)
    except PreconditionError as exc:
        return str(exc)


# random rows, and the conditions each matcher and classify recognize
_conditions = st.one_of(
    _rows,
    st.builds(lambda a: [[1, -1, 0, 0], [-a, 0, -1, 1]], _gauss),
    st.builds(lambda t: [[-t, 1, 0, 0], [0, 0, 1, -t]], _gauss),
    st.builds(lambda a, b, c: [[-c, -c, b - 1, b + 1],
                               [b.conjugate() + 1, b.conjugate() - 1, a, a]],
              _small, _gauss, _small),
    st.builds(lambda p, q, r, s: [[p, 0, r, 0], [0, q, 0, s]],
              _small, _small, _small, _small),
)


@_PROPS
@given(rows=_conditions, m=st.lists(_gauss, min_size=4, max_size=4),
       pad=st.lists(_gauss, min_size=2, max_size=2), k=st.floats(1e-3, 1e3))
def test_spectral_data_invariant_under_row_operations(rows, m, pad, k):
    # rows scaled and mixed by an invertible m, or padded with a third row
    # in their span, state the same conditions
    assume(m[0] * m[3] - m[1] * m[2])
    mixed = [[m[i] * x + m[i + 1] * y for x, y in zip(*rows)] for i in (0, 2)]
    padded = mixed + [[pad[0] * x + pad[1] * y for x, y in zip(*rows)]]
    bc = BCMatrix(rows)
    kind = _outcome(classify, represent_from_bc(*rows))
    assert _outcome(classify, represent_from_bc(*mixed)) == kind
    for other in (BCMatrix(mixed), BCMatrix(padded)):
        assert _outcome(classify, other) == kind
        for match in (match_continuity_jump, match_theta_jump):
            assert match(other) == match(bc)
        if bc.rank != 2:
            for f in (bound_states, lambda b: scattering(b, k)):
                with pytest.raises(PreconditionError):
                    f(other)
            continue
        assert bound_states(other) == bound_states(bc)
        got, want = scattering(other, k), scattering(bc, k)
        assert got.singular == want.singular
        if not want.singular:
            assert got == want


# -- the grid ----------------------------------------------------------------------


def test_grid_box_modes():
    H = grid_hamiltonian(10.0, 800)
    lo = grid_eigenvalues(H, 2)
    for got, exact in zip(lo, [(math.pi / 20) ** 2, (math.pi / 10) ** 2]):
        assert abs(got - exact) < 1e-4 * exact + 1e-8


def test_grids_compare_by_identity():
    # numpy arrays have no value equality: two grids from the same inputs
    # are two objects, each hashable, with the same eigenvalues
    well = GridWell(-2.0, 0.05)
    H, twin = grid_hamiltonian(12.0, 1500, well), grid_hamiltonian(12.0, 1500, well)
    assert H != twin and H == H
    assert hash(H) != hash(twin) and hash(H) == hash(H)
    assert grid_eigenvalues(H, 2) == grid_eigenvalues(twin, 2)


def test_grid_potential_and_validation():
    kern = SmoothingKernel(0.05, 0)
    H = grid_hamiltonian(10.0, 400, potential=lambda x: -2.0 * kern(x))
    assert isinstance(H, GridHamiltonian)
    assert H.diag.shape == (400,) and H.offdiag.shape == (399,)
    assert grid_eigenvalues(H, 1)[0] < 0  # the well binds
    # N is a whole number up to 1e6, checked before numpy allocates N
    # samples; a non-finite sample was scipy's ValueError in the solver
    for N in (2, 10 ** 6 + 1, 10 ** 13, 400.0, 400.5, True):
        with pytest.raises(PreconditionError, match="3 <= N <= 1000000"):
            grid_hamiltonian(10.0, N)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match="not finite"):
            grid_hamiltonian(10.0, 100, potential=lambda x: value * (x > 0))
    with pytest.raises(PreconditionError):
        grid_hamiltonian(-1.0, 100)
    with pytest.raises(PreconditionError):
        grid_eigenvalues(H, 0)


def test_grid_well_is_sampled_on_its_support_only():
    # bump is exactly 0.0 off (-1, 1) and 2/h^2 + (+-0.0) is 2/h^2, so
    # sampling only the support gives full sampling's diagonal bit for bit:
    # on the grids of 9(b), its N = 16000 limit, perfbench and cli-mix,
    # then on 300 seeded wells at least two spacings wide
    grids = [(-2.0, 0.05, 20.0, 4000), (-2.0, 0.0125, 20.0, 16000),
             (-2.0, 0.025, 4.0, 3000), (-2.0, 0.05, 12.0, 1500)]
    rng, log_eps = random.Random(2021), (math.log(1e-3), math.log(2.0))
    checked = 0
    while checked < 304:
        strength, eps, L, N = grids.pop() if grids else (
            rng.uniform(-5.0, 5.0), math.exp(rng.uniform(*log_eps)),
            rng.uniform(1.0, 30.0), int(20000 ** rng.random()))
        well = GridWell(strength, eps)
        calls = []

        def sampled(x):
            calls.append(x)
            return well(x)

        sampled.support = well.support
        try:
            diag = grid_hamiltonian(L, N, sampled).diag
        except PreconditionError:
            continue  # narrower than two spacings, or N < 3
        inside, calls = calls, []
        del sampled.support  # now sampled at every point
        full = grid_hamiltonian(L, N, sampled).diag
        assert diag.view(np.int64).tolist() == full.view(np.int64).tolist()
        assert len(calls) == N and inside == [x for x in calls if -eps <= x < eps]
        checked += 1


def test_grid_refuses_a_well_narrower_than_two_spacings():
    message = ("--grid kernel width eps=0.01 is below twice the grid "
               "spacing h=0.0099975; raise N or eps")
    with pytest.raises(PreconditionError, match="^%s$" % re.escape(message)):
        grid_hamiltonian(20.0, 4000, GridWell(-2.0, 0.01))
    grid_hamiltonian(10.0, 399, GridWell(-2.0, 0.1))  # eps = 2h exactly
    with pytest.raises(PreconditionError, match="below twice"):
        grid_hamiltonian(10.0, 399, GridWell(-2.0, math.nextafter(0.1, 0)))
    # a callable without a support reads the whole line: never refused
    narrow = GridWell(-2.0, 0.01)
    grid_hamiltonian(20.0, 4000, lambda x: narrow(x))


def test_grid_well_tracks_exact_energy():
    # halving eps at fixed resolution h/eps moves the lowest eigenvalue
    # toward the exact -1 of the strength -2 well
    devs = []
    for eps, N in ((0.2, 1000), (0.1, 2000)):
        kern = SmoothingKernel(eps, 0)
        H = grid_hamiltonian(10.0, N, potential=lambda x: -2.0 * kern(x))
        devs.append(abs(grid_eigenvalues(H, 1)[0] + 1.0))
    assert devs[1] < devs[0]
