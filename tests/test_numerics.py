import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad

from deltastar import Poly, Scalar, add, delta_dist, heaviside, indicator, numerics
from deltastar.boundary_ops import PreconditionError
from deltastar.numerics import (
    _BUMP_NORM,
    _TS_TOL,
    _tanh_sinh,
    GridHamiltonian,
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
from helpers import oracle_corpus


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
    # inverse, not the minors _spectral_polys reads
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


# -- the determinant, property-based ------------------------------------------------

_PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _rel_close(got, want, tol=1e-12):
    return len(got) == len(want) and all(
        abs(g - w) <= tol * abs(w) for g, w in zip(got, want)
    )


@_PROPS
@given(a=st.fractions(min_value=Fraction(-10**4), max_value=Fraction(-1, 10**4),
                      max_denominator=10**6))
def test_delta_well_bound_state_closed_form(a):
    assert _rel_close(bound_states(delta_well(a)), [float(-a * a / 4)])


@_PROPS
@given(am=st.fractions(-50, 50, max_denominator=1000),
       ap=st.fractions(-50, 50, max_denominator=1000))
def test_separated_robin_closed_form(am, ap):
    # psi'(0-) = am psi(0-) and psi'(0+) = -ap psi(0+): each half-line
    # binds -alpha^2 for a positive alpha
    bc = BCMatrix([[-am, 0, 1, 0], [0, ap, 0, 1]])
    want = sorted({float(-a * a) for a in (am, ap) if a > 0})
    assert _rel_close(bound_states(bc), want)


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


def test_grid_well_tracks_exact_energy():
    # halving eps at fixed resolution h/eps moves the lowest eigenvalue
    # toward the exact -1 of the strength -2 well
    devs = []
    for eps, N in ((0.2, 1000), (0.1, 2000)):
        kern = SmoothingKernel(eps, 0)
        H = grid_hamiltonian(10.0, N, potential=lambda x: -2.0 * kern(x))
        devs.append(abs(grid_eigenvalues(H, 1)[0] + 1.0))
    assert devs[1] < devs[0]
