"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Every exact claim is checked in rational arithmetic; the
numerical claims carry their stated tolerances and time budgets.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from scipy.integrate import dblquad
from scipy.optimize import brentq

from deltastar import (
    Poly,
    Scalar,
    add,
    delta_dist,
    derivative,
    heaviside,
    indicator,
    star,
    star_limit_oracle,
)
from deltastar.numerics import (
    GridWell,
    bound_states,
    bump,
    grid_eigenvalues,
    grid_hamiltonian,
    mollified_pairing,
    scattering,
    weak_limit_check,
)
from deltastar.boundary_ops import PreconditionError
from deltastar.schrodinger import (
    BCMatrix,
    DeltaPrimeFamily,
    InteractingSA,
    NoGoCertificate,
    NotSelfAdjoint,
    PointPotential,
    check_potential_representable_B3_zero,
    classify,
    delta_prime_interaction,
    delta_well,
    extract_bc,
    boundary_form_raw,
    match_continuity_jump,
    match_theta_jump,
    represent_from_bc,
    represent_interacting,
    sesquilinear_form,
)
from helpers import (
    constrained_jets,
    even_ground_state,
    rand_dist,
    rand_frac,
)


def sa_corpus():
    """30 self-adjoint point interactions covering every branch."""
    out = [delta_well(a) for a in (-4, -2, -1, Fraction(-1, 2), 1, 3)]
    out += [delta_prime_interaction(t) for t in (2, 3, Fraction(1, 2), -3)]
    out += [
        PointPotential(0, 5, 1, 1),      # Dirichlet left, Robin right
        PointPotential(0, -3, 1, 1),
        PointPotential(5, 0, -1, -1),    # Robin left, Dirichlet right
        PointPotential(1, 1, 1, -1),     # double Dirichlet
    ]
    rng = random.Random(901)
    while len(out) < 30:
        c1, c2 = rand_frac(rng), rand_frac(rng)
        b = rand_frac(rng)
        if b == 1 or b == -1:
            continue
        spec = PointPotential(c1, c2, b, b)
        if not isinstance(classify(spec), NotSelfAdjoint):
            out.append(spec)
    return out


def test_criterion_1_star_matches_limit_oracle():
    started = time.monotonic()
    rng = random.Random(11)
    for _ in range(200):
        F = rand_dist(rng, n=1, max_deg=3, max_order=1, imag_rate=0.0)
        G = rand_dist(rng, n=1, max_deg=3, max_order=1, imag_rate=0.0)
        assert star(F, G) == star_limit_oracle(F, G)
    assert time.monotonic() - started < 10.0


def test_criterion_2_algebra_laws():
    started = time.monotonic()
    rng = random.Random(12)
    for _ in range(100):
        F = rand_dist(rng, max_deg=2)
        G = rand_dist(rng, max_deg=2)
        K = rand_dist(rng, max_deg=2)
        assert star(star(F, G), K) == star(F, star(G, K))
        assert star(F, add(G, K)) == add(star(F, G), star(F, K))
        assert star(add(F, G), K) == add(star(F, K), star(G, K))
    for _ in range(100):
        F = rand_dist(rng, n=2, max_order=1)
        G = rand_dist(rng, n=2, max_order=1)
        lhs = derivative(star(F, G))
        rhs = add(star(derivative(F), G), star(F, derivative(G)))
        assert lhs == rhs
    assert time.monotonic() - started < 10.0


def test_criterion_3_fixed_value_table():
    H = heaviside(0, n=1)
    D = delta_dist(0, 0, 1, n=1)
    Dp = delta_dist(0, 1, 1, n=1)
    table = [
        (D, H, D),
        (H, D, None),
        (Dp, H, Dp),
        (H, Dp, None),
        (D, D, None),
    ]
    for F, G, expected in table:
        got = star(F, G)
        assert got == star_limit_oracle(F, G)
        if expected is None:
            assert got.is_zero
        else:
            assert got == expected


def test_criterion_4_bc_extraction_formulas():
    rng = random.Random(14)
    for _ in range(20):
        d, c = rand_frac(rng), rand_frac(rng)
        bc = extract_bc(PointPotential(d, c, 0, 0))
        a = c + d
        assert match_continuity_jump(bc) == a
        assert bc.row_equivalent(BCMatrix([[1, -1, 0, 0], [-a, 0, -1, 1]]))
    for _ in range(20):
        c = rand_frac(rng)
        if c == 1:
            continue
        bc = extract_bc(PointPotential(0, 0, c, c))
        theta = Fraction(c + 1, 1 - c)
        assert match_theta_jump(bc) == theta
        assert bc.row_equivalent(
            BCMatrix([[theta, -1, 0, 0], [0, 0, 1, -theta]])
        )
    drawn = 0
    while drawn < 20:
        c, e = rand_frac(rng), rand_frac(rng)
        if e == 1 - c:
            continue
        drawn += 1
        bc = extract_bc(DeltaPrimeFamily(c, c, e, e))
        theta = Fraction(1 - e + c, 1 - e - c)
        assert bc.row_equivalent(
            BCMatrix([[theta, -1, 0, 0], [0, 0, 1, -theta]])
        )
        if theta != 0:
            assert match_theta_jump(bc) == theta


def test_criterion_5_classification_round_trip():
    rng = random.Random(15)
    done = 0
    while done < 50:
        b = Scalar(rand_frac(rng), rand_frac(rng))
        if (b + b.conjugate()).is_zero or b == 1 or b == -1:
            continue
        done += 1
        c = Scalar(rand_frac(rng))
        fam = represent_interacting(0, b, c)
        assert classify(fam.default()) == InteractingSA(0, b, c)
    for _ in range(50):
        c1, c2 = rand_frac(rng), rand_frac(rng)
        b = rand_frac(rng)
        if b == 1 or b == -1:
            continue
        assert classify(PointPotential(c1, c2, b, b)) == InteractingSA(
            0, b, Fraction(c1 * (1 - b) + c2 * (1 + b), 2)
        )
        assert classify(PointPotential(c1, c2, b, -b)) == InteractingSA(
            0, 0, Fraction(c1 + c2) / (2 * (1 - b))
        )


def test_criterion_6_no_go_and_pseudo_realization():
    nn = BCMatrix([[0, 0, 1, 0], [0, 0, 0, 1]])
    ok, cert = check_potential_representable_B3_zero(nn)
    assert ok is False
    assert isinstance(cert, NoGoCertificate)
    assert not cert.det.is_zero
    pseudo = represent_from_bc([0, 0, 1, 0], [0, 0, 0, 1])
    assert extract_bc(pseudo).row_equivalent(nn)


def test_criterion_7_hermitian_boundary_forms():
    rng = random.Random(17)
    for spec in sa_corpus():
        bc = extract_bc(spec)
        jets = constrained_jets(bc, rng, 20)
        for psi in jets:
            for phi in jets:
                v = sesquilinear_form(spec, psi, phi)
                assert v == sesquilinear_form(spec, phi, psi).conjugate()
                assert v == boundary_form_raw(psi, phi)


def test_criterion_8_weak_limit_convergence():
    started = time.monotonic()
    H = heaviside(0)
    ramp = indicator(0, None, Poly([1, 1]))
    # the test polynomial is chosen per case so the quadrature error is
    # dominated by the kernel-width term rather than exact cancellations
    cases = [
        (H, Poly([1]), 0),
        (H, Poly([1]), 1),
        (ramp, Poly([1, -1]), 0),
        (ramp, Poly([1]), 1),
    ]
    floor = 1e-12
    for F, t, order in cases:
        for side in ("left", "right"):
            errs = weak_limit_check(
                F, t, order, side, eps_list=(0.1, 0.05, 0.025)
            )
            for a, b in zip(errs, errs[1:]):
                assert b < a or b < floor, (F, t, order, side, errs)
            assert errs[-1] < 1e-3, (F, t, order, side, errs)
    assert time.monotonic() - started < 30.0


def test_criterion_9a_bound_state_energies():
    for a in (Fraction(-1, 2), -1, -2, -4):
        E = bound_states(delta_well(a))
        assert len(E) == 1
        assert abs(E[0] - float(-Fraction(a) ** 2 / 4)) < 1e-10


def test_criterion_9b_grid_eigenvalue_match():
    """Lowest grid eigenvalue of the mollified strength -2 well, within 2%.

    The paper's -1 is the ground state of the delta well, the norm
    resolvent limit of -d²/dx² - 2 b(x/eps)/eps as eps -> 0.  At a fixed
    width the mollified well has its own ground state: -0.956558 at
    eps = 0.05, 4.34% above -1.  To first order E(eps) = -1 + 2 m eps with
    m = ∫∫ b(x)|x-y|b(y) dx dy ≈ 0.4575 for the unit bump b, so 2% from -1
    needs eps below about 0.022, whatever the grid.

    (a) At the stated eps = 0.05, L = 20, N = 4000 the grid is compared
        with the same well's ground state from the shooting reference
        (the grid gives -0.952077, 0.47% off).
    (b) -1 is checked as the eps -> 0 limit: the reference moves
        monotonically toward it as eps halves, its deviation is 2 m eps
        up to a remainder that shrinks fourfold per halving (O(eps²)),
        and at eps = 0.0125 with N = 16000, the same points per kernel
        width, the grid is within 2% of -1 (-0.98351, 1.65%).
    """
    L, strength, bound = 20.0, -2.0, 0.02

    def well(eps):
        return GridWell(strength, eps)

    def grid_ground_state(eps, N):
        return grid_eigenvalues(grid_hamiltonian(L, N, well(eps)), 1)[0]

    eps, N = 0.05, 4000
    lowest = grid_ground_state(eps, N)
    reference = even_ground_state(well(eps), eps)
    deviation = abs(lowest - reference) / abs(reference)
    assert deviation <= bound, (
        "grid ground state %.6f deviates %.2f%% from the mollified well's "
        "own %.6f at eps=%g" % (lowest, 100 * deviation, reference, eps)
    )

    m = 2 * dblquad(
        lambda y, x: bump(x) * bump(y) * (x - y), -1, 1, -1, lambda x: x,
        epsabs=1e-12, epsrel=1e-10,
    )[0]
    widths = (0.05, 0.025, 0.0125)
    energies = [reference] + [even_ground_state(well(e), e) for e in widths[1:]]
    assert energies[0] > energies[1] > energies[2] > -1, energies
    remainders = [E + 1 - 2 * m * e for E, e in zip(energies, widths)]
    for r, r_half in zip(remainders, remainders[1:]):
        assert 3 < r / r_half < 5, (m, energies, remainders)

    eps, N = widths[-1], 16000
    lowest = grid_ground_state(eps, N)
    deviation = abs(lowest + 1)
    assert deviation <= bound, (
        "grid ground state %.6f deviates %.2f%% from -1 at eps=%g"
        % (lowest, 100 * deviation, eps)
    )


def test_shooting_reference_matches_square_well():
    """The reference 9(b) relies on, against a closed form.

    The rectangular well -1/eps on (-eps, eps) has the mass of the
    strength -2 well; its even ground state -kappa**2 solves
    kappa = q tan(q eps) with q**2 = 1/eps - kappa**2.
    """
    for eps in (1.0, 0.05, 0.0125):
        def q(kappa):
            return math.sqrt(max(0.0, 1 / eps - kappa * kappa))

        kappa = brentq(lambda k: k - q(k) * math.tan(q(k) * eps),
                       0.0, math.sqrt(1 / eps), xtol=1e-14, rtol=1e-14)
        E = even_ground_state(lambda x: -1 / eps if abs(x) <= eps else 0.0,
                              eps)
        assert abs(E + kappa * kappa) <= 1e-10 * kappa * kappa, (eps, E)


def test_criterion_9c_scattering_unitarity():
    started = time.monotonic()
    for spec in sa_corpus():
        for k in (0.1, 1.0, 10.0):
            d = scattering(spec, k)
            assert not d.singular
            assert abs(abs(d.r_left) ** 2 + abs(d.t_left) ** 2 - 1) < 1e-12
            assert abs(abs(d.r_right) ** 2 + abs(d.t_right) ** 2 - 1) < 1e-12
    assert time.monotonic() - started < 120.0


# -- open claims: each passes once its gap closes, and must then become a
# plain test (README, "Claims of the abstract")


@pytest.mark.xfail(strict=True, raises=PreconditionError,
                   reason="classify has no form for det = m02 + m13 - m03 - m12 = 0")
def test_claim_classify_is_total_on_the_four_parameter_family():
    # self-adjoint coupling conditions, row-equivalent to theta = -1
    assert classify(DeltaPrimeFamily(1, 1, 1, 1)) is not None


@pytest.mark.xfail(strict=True, reason="tanh-sinh quadrature at eps=1e-150 "
                                       "gives 5.6e+133")
def test_claim_mollified_pairing_at_a_tiny_width():
    # <v_eps'(. - eps) F, t> with F t = 1 - x^2 right of 0 is exactly 2 eps
    eps = 1e-150
    got = mollified_pairing(indicator(-1, None, Poly([1, 1])), Poly([1, -1]),
                            1, "right", eps)
    assert abs(got - 2 * eps) <= 1e-9 * 2 * eps
