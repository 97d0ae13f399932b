import copy
import pickle
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
    Record,
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
from deltastar import numerics, schrodinger
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


# one record of each of the 16 classes, with its repr as the dataclass
# versions printed it
_RECORDS = (
    (lambda: BoundaryJet(1, Fraction(1, 2), "1i", 0),
     "BoundaryJet(psi_minus=1, psi_plus=1/2, dpsi_minus=1i, dpsi_plus=0)"),
    (lambda: DeltaCombo(2, "-1/3"),
     "DeltaCombo(coeff_delta=2, coeff_delta_prime=-1/3)"),
    (lambda: SidedDelta("left"), "SidedDelta(side='left', order=0, point=0)"),
    (lambda: SidedDelta("right", 1, Fraction(3, 4)),
     "SidedDelta(side='right', order=1, point=3/4)"),
    (lambda: PointPotential(1, 2, 3, 4), "PointPotential(c1=1, c2=2, b1=3, b2=4)"),
    (lambda: PseudoPotential((1, 0, 2, "1i"), (0, 1, 0, 0), (3, 0, 0, 0)),
     "PseudoPotential(direct=(1, 0, 2, 1i), after_dx=(0, 1, 0, 0), "
     "dx_after_dx=(3, 0, 0, 0))"),
    (lambda: DeltaPrimeFamily(1, 2, 3, 4), "DeltaPrimeFamily(c=1, d=2, e=3, f=4)"),
    (lambda: schrodinger.InteractingSA(1, Fraction(1, 2), 3),
     "InteractingSA(a=1, b=1/2, c=3)"),
    (lambda: schrodinger.SeparatingSA(1, 2, 0, 1),
     "SeparatingSA(a_minus=1, b_minus=2, a_plus=0, b_plus=1)"),
    (lambda: schrodinger.NotSelfAdjoint(schrodinger.BCMatrix([[1, 0, 2, 0], [0, 1, 0, 3]])),
     "NotSelfAdjoint(bc=BCMatrix([['1', '0', '2', '0'], ['0', '1', '0', '3']]))"),
    (lambda: schrodinger.ConjugatePairFamily(*map(Scalar, (1, 2, 3, 4, 5, 6))),
     "ConjugatePairFamily(b=1, c=2, b1=3, b2=4, x1=5, x2=6)"),
    (lambda: schrodinger.OppositeSignFamily(Scalar(-3)), "OppositeSignFamily(c=-3)"),
    (lambda: schrodinger.NotRepresentable("why", PseudoPotential((1, 0, 0, 0), (0,) * 4, (0,) * 4)),
     "NotRepresentable(reason='why', pseudo=PseudoPotential(direct=(1, 0, 0, 0), "
     "after_dx=(0, 0, 0, 0), dx_after_dx=(0, 0, 0, 0)))"),
    (lambda: schrodinger.SeparatingFamily(*map(Scalar, (1, -1, 1, 1)), ("c1", "c2")),
     "SeparatingFamily(b1=1, b2=-1, c1=1, c2=1, free=('c1', 'c2'))"),
    (lambda: schrodinger.NoGoCertificate(((Scalar(1), Scalar(0)), (Scalar(0), Scalar(1))), Scalar(1)),
     "NoGoCertificate(derivative_block=((1, 0), (0, 1)), det=1)"),
    (lambda: numerics.SmoothingKernel(0.1), "SmoothingKernel(eps=0.1, order=0, side='right')"),
    (lambda: numerics.ScatteringData(1.0, singular=True),
     "ScatteringData(k=1.0, r_left=(nan+nanj), t_left=(nan+nanj), r_right=(nan+nanj), "
     "t_right=(nan+nanj), singular=True)"),
    (lambda: numerics.ScatteringData(2.0, 1j, 0.5 + 0j, -1j, complex(0.25, -0.5)),
     "ScatteringData(k=2.0, r_left=1j, t_left=(0.5+0j), r_right=(-0-1j), "
     "t_right=(0.25-0.5j), singular=False)"),
)


def test_records_are_frozen_values():
    assert len({type(make()) for make, _ in _RECORDS}) == 16
    for make, text in _RECORDS:
        record, twin = make(), make()
        assert repr(record) == text
        assert record == twin and hash(record) == hash(twin)
        assert type(record).__match_args__ == record._fields
        name = record._fields[0]
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is value and not hasattr(record, "extra")
        # a NaN amplitude equals only itself, and unpickling makes a new one
        for back in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(back) is type(record) and repr(back) == text
            if "nan" not in text:
                assert back == record and hash(back) == hash(record)
    # equal values in another class are another value
    assert PointPotential(1, 2, 3, 4) != DeltaPrimeFamily(1, 2, 3, 4)
    assert BoundaryJet(1, 2, 3, 4) != (1, 2, 3, 4)
    assert PointPotential(1, 2, 3, 4) != PointPotential(1, 2, 3, 5)
    # keywords, defaults and the checks after construction
    assert SidedDelta("left") == SidedDelta(side="left", order=0, point=0)
    scattering = numerics.ScatteringData(1.0, singular=True)
    assert scattering.singular is True and scattering.r_left != scattering.r_left
    assert numerics.SmoothingKernel(0.1) == numerics.SmoothingKernel(side="right", eps=0.1)
    assert PointPotential(b2=4, b1=3, c2=2, c1=1) == PointPotential(1, 2, 3, 4)
    assert type(PointPotential(1, 2, 3, b2=Fraction(1, 2)).b2) is Scalar
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        SidedDelta(side="up")
    with pytest.raises(PreconditionError, match="eps must be positive"):
        numerics.SmoothingKernel(eps=0.0)
    for build in (lambda: PointPotential(1, 2, 3),
                  lambda: PointPotential(1, 2, 3, 4, 5),
                  lambda: SidedDelta(),
                  lambda: SidedDelta("left", sign=1),
                  lambda: SidedDelta("left", side="right"),
                  lambda: numerics.ScatteringData(k=1.0, phase=0.0)):
        with pytest.raises(TypeError):
            build()
    match PointPotential(1, 2, 3, 4):
        case PointPotential(c1, c2, b1, b2):
            assert (c1, c2, b1, b2) == (1, 2, 3, 4)
        case _:
            pytest.fail("PointPotential does not match positionally")
    # the conditions extract_bc stores on a spec travel with its copies
    spec = PointPotential(1, 2, Fraction(1, 3), 0)
    bc = extract_bc(spec)
    assert spec._bc is bc and "_bc" not in spec._fields
    assert copy.copy(spec)._bc is bc
    for back in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert back == spec and hash(back) == hash(spec)
        assert extract_bc(back) is back._bc and back._bc == bc
        assert back._bc.rows == bc.rows


def test_scalar_fields_hold_scalars():
    # every field annotated Scalar is coerced by the generated __init__;
    # the other fields get a fixed valid value
    others = {"side": "left", "order": 1, "free": ("c1",),
              "derivative_block": ((1, 2), (3, 4))}
    scalar_fields = {cls: [n for n in cls._fields if cls.__annotations__[n] == "Scalar"]
                     for cls in Record.__subclasses__()}
    scalar_fields = {cls: names for cls, names in scalar_fields.items() if names}
    assert sorted(cls.__name__ for cls in scalar_fields) == [
        "BoundaryJet", "ConjugatePairFamily", "DeltaCombo", "DeltaPrimeFamily",
        "InteractingSA", "NoGoCertificate", "OppositeSignFamily",
        "PointPotential", "SeparatingFamily", "SeparatingSA", "SidedDelta"]
    for cls, names in scalar_fields.items():
        for raw in (3, Fraction(-1, 2), "2/3"):
            record = cls(**{n: raw if n in names else others[n] for n in cls._fields})
            for name in names:
                value = getattr(record, name)
                assert value.__class__ is Scalar and value == Scalar(raw), (cls, name)
    for build in (lambda: schrodinger.OppositeSignFamily(0.5),
                  lambda: schrodinger.NoGoCertificate(((1, 2), (3, 4)), 0.5)):
        with pytest.raises(TypeError, match="cannot use 0.5 as an exact scalar"):
            build()
