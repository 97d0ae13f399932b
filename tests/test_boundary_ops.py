import random
from fractions import Fraction

import pytest

from deltastar import (
    PiecewiseDist,
    Poly,
    Scalar,
    add,
    delta_dist,
    derivative,
    heaviside,
    indicator,
    scale,
    star,
    zero,
)
from deltastar.boundary_ops import (
    BoundaryJet,
    DeltaCombo,
    DeltaPrimeFamily,
    JetOperator,
    PointPotential,
    PreconditionError,
    PseudoPotential,
    SidedDelta,
    apply_operator,
    apply_shifting_delta,
    apply_shifting_delta_dist,
    constraint_operator,
    constraint_rows,
    delta_diff,
    sided_delta_op,
    to_jet_operator,
)
from deltastar.schrodinger import extract_bc
from helpers import (
    jet_from_vector,
    oracle_corpus,
    rand_frac,
    rand_jet,
    rand_poly,
    rand_scalar,
)


def dist_with_jet(jet):
    """A two-piece distribution whose first-order data at 0 is the jet."""
    left = Poly([jet.psi_minus, jet.dpsi_minus])
    right = Poly([jet.psi_plus, jet.dpsi_plus])
    return add(indicator(None, 0, left, n=1), indicator(0, None, right, n=1))


def test_sided_delta_on_heaviside():
    H = heaviside(0)
    right = apply_shifting_delta_dist(SidedDelta("right", 0), H)
    left = apply_shifting_delta_dist(SidedDelta("left", 0), H)
    assert right == DeltaCombo(1, 0).as_dist()
    assert left.is_zero


def test_jet_action_matches_dist_action():
    rng = random.Random(501)
    for _ in range(80):
        jet = rand_jet(rng)
        F = dist_with_jet(jet)
        for side in ("left", "right"):
            for order in (0, 1):
                sd = SidedDelta(side, order)
                combo = apply_shifting_delta(sd, jet)
                assert combo.as_dist() == apply_shifting_delta_dist(sd, F)


def test_shifting_delta_domain_limits():
    jet = BoundaryJet(1, 2, 3, 4)
    with pytest.raises(PreconditionError):
        apply_shifting_delta(SidedDelta("left", 2), jet)
    with pytest.raises(PreconditionError):
        apply_shifting_delta(SidedDelta("left", 0, 1), jet)
    with pytest.raises(ValueError):
        SidedDelta("up", 0)


def test_jet_operator_linearity():
    rng = random.Random(502)
    A = sided_delta_op("left", 1)
    B = sided_delta_op("right", 0)
    for _ in range(40):
        jet = rand_jet(rng)
        c = rand_scalar(rng)
        lhs = (A + c * B).apply(jet)
        rhs = A.apply(jet) + B.apply(jet).scaled(c)
        assert lhs == rhs
    assert A - A == JetOperator()
    assert hash(A + B) == hash(B + A)


def test_derivative_composition_identity():
    # D o (left delta) = (left delta') + (left delta) o D
    lhs = sided_delta_op("left", 0).postcompose_derivative()
    rhs = sided_delta_op("left", 1) + sided_delta_op(
        "left", 0
    ).precompose_derivative()
    assert lhs == rhs


def test_composition_preconditions():
    with pytest.raises(PreconditionError):
        sided_delta_op("left", 1).precompose_derivative()
    with pytest.raises(PreconditionError):
        sided_delta_op("left", 1).postcompose_derivative()
    with pytest.raises(PreconditionError):
        sided_delta_op("right", 2)


def test_point_potential_rows_pinned():
    rng = random.Random(503)
    for _ in range(20):
        c1, c2, b1, b2 = (rand_scalar(rng) for _ in range(4))
        rd, rdp = constraint_rows(PointPotential(c1, c2, b1, b2))
        assert rd == (-c1, -c2, b1 - 1, b2 + 1)
        assert rdp == (b1 + 1, b2 - 1, Scalar(0), Scalar(0))


def test_delta_prime_family_operator_pinned():
    op = to_jet_operator(DeltaPrimeFamily(1, 1, 3, 3))
    assert op.row_delta == (Scalar(0), Scalar(0), Scalar(-4), Scalar(2))
    assert op.row_delta_prime == (Scalar(-2), Scalar(4), Scalar(0), Scalar(0))


def test_pseudo_potential_blocks_validated():
    zero4 = (0, 0, 0, 0)
    with pytest.raises(PreconditionError):
        PseudoPotential(zero4, (0, 0, 1, 0), zero4)
    with pytest.raises(PreconditionError):
        PseudoPotential(zero4, zero4, (0, 0, 0, 1))
    ok = PseudoPotential((0, 0, 1, -1), (1, 2, 0, 0), (0, 1, 0, 0))
    assert isinstance(to_jet_operator(ok), JetOperator)


def test_apply_operator_matches_manual_sum():
    rng = random.Random(504)
    for _ in range(30):
        c1, c2, b1, b2 = (rand_scalar(rng) for _ in range(4))
        spec = PointPotential(c1, c2, b1, b2)
        jet = rand_jet(rng)
        manual = (
            apply_shifting_delta(SidedDelta("left", 0), jet).scaled(c1)
            + apply_shifting_delta(SidedDelta("right", 0), jet).scaled(c2)
            + apply_shifting_delta(SidedDelta("left", 1), jet).scaled(b1)
            + apply_shifting_delta(SidedDelta("right", 1), jet).scaled(b2)
        )
        assert apply_operator(spec, jet) == manual


def test_delta_diff_samples_jump():
    jet = BoundaryJet(2, 5, 0, 0)
    combo = delta_diff(0).apply(jet)
    assert combo == DeltaCombo(3, 0)


# -- the operator as the paper writes it ---------------------------------------


def _sided(side, order, F):
    """The left sided delta is star(F, delta), the right one star(delta, F)."""
    mass = delta_dist(0, order)
    return star(F, mass) if side == "left" else star(mass, F)


def _block(coeffs, F):
    """Coefficients over (left delta, right delta, left delta', right
    delta') applied to F."""
    out = zero()
    for c, side, order in zip(coeffs, ("left", "right") * 2, (0, 0, 1, 1)):
        out = add(out, scale(c, _sided(side, order, F)))
    return out


def _jump(F):
    return add(_sided("right", 0, F), scale(-1, _sided("left", 0, F)))


def hamiltonian(spec, psi):
    """-D(D psi) + V psi, with V psi read off each spec's docstring."""
    D = derivative
    if isinstance(spec, PointPotential):
        V = _block((spec.c1, spec.c2, spec.b1, spec.b2), psi)
    elif isinstance(spec, PseudoPotential):
        V = add(add(_block(spec.direct, psi), _block(spec.after_dx, D(psi))),
                D(_block(spec.dx_after_dx, D(psi))))
    else:
        V = add(add(_block((0, 0, spec.d, spec.c), psi),
                    scale(spec.e, D(_jump(psi)))),
                scale(spec.f, _jump(D(psi))))
    return add(scale(-1, D(D(psi))), V)


def _psi(rng, jet):
    """A piecewise quadratic with the jet at 0, sometimes with a second
    breakpoint away from 0."""
    pieces = [Poly([jet.psi_minus, jet.dpsi_minus, rand_scalar(rng)]),
              Poly([jet.psi_plus, jet.dpsi_plus, rand_scalar(rng)])]
    pts = [Fraction(0)]
    other = rng.choice((None, Fraction(-1, 2), Fraction(1)))
    if other is not None and other < 0:
        pts.insert(0, other)
        pieces.insert(0, rand_poly(rng, 2))
    elif other is not None:
        pts.append(other)
        pieces.append(rand_poly(rng, 2))
    return PiecewiseDist(0, pts, pieces)


def _at_origin(F):
    """The delta and delta' coefficients of F at 0."""
    got = {d.order: d.coeff for d in F.deltas if d.point == 0}
    assert set(got) <= {0, 1}, F
    return DeltaCombo(got.get(0, 0), got.get(1, 0))


def test_hamiltonian_from_the_product_gives_the_constraint_operator():
    # star, derivative, add and scale alone, not to_jet_operator: H's
    # delta and delta' at 0 are what constraint_operator reads off the
    # jet, and they vanish for the jets the conditions allow
    rng = random.Random(516)
    specs = oracle_corpus()
    for _ in range(30):
        specs.append(PointPotential(*(rand_scalar(rng) for _ in range(4))))
        specs.append(PseudoPotential(
            [rand_scalar(rng) for _ in range(4)],
            [rand_scalar(rng), rand_scalar(rng), 0, 0],
            [rand_scalar(rng), rand_scalar(rng), 0, 0],
        ))
        specs.append(DeltaPrimeFamily(*(rand_scalar(rng) for _ in range(4))))
    domain_jets = 0
    for spec in specs:
        jet = rand_jet(rng)
        H = hamiltonian(spec, _psi(rng, jet))
        assert _at_origin(H) == constraint_operator(spec).apply(jet), spec
        for v in extract_bc(spec).kernel_basis():
            H = hamiltonian(spec, _psi(rng, jet_from_vector(v)))
            assert not any(d.point == 0 for d in H.deltas), (spec, v)
            domain_jets += 1
    assert len(specs) > 300 and domain_jets > 600
