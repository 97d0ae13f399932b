import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltastar import Poly, Scalar, schrodinger
from deltastar.boundary_ops import (
    PreconditionError,
    PseudoPotential,
    constraint_rows,
)
from deltastar.expr_io import encode
from deltastar.schrodinger import (
    BCMatrix,
    ConjugatePairFamily,
    DeltaPrimeFamily,
    InteractingSA,
    NoGoCertificate,
    NotRepresentable,
    NotSelfAdjoint,
    OppositeSignFamily,
    PointPotential,
    SeparatingFamily,
    SeparatingSA,
    boundary_form_raw,
    check_potential_representable_B3_zero,
    classify,
    delta_prime_interaction,
    delta_well,
    dirichlet_specs,
    extract_bc,
    interacting_pseudo,
    match_continuity_jump,
    match_theta_jump,
    minors,
    normalize_side,
    represent_from_bc,
    represent_interacting,
    represent_separating,
    separating_sa,
    sesquilinear_form,
    unconstrained_spec,
)
from deltastar.numerics import _spectral_ints
from helpers import (
    constrained_jets,
    jet_from_vector,
    oracle_corpus,
    rand_frac,
    rand_jet,
    rand_scalar,
    self_adjoint_by_definition,
)


def rand_real_nonunit(rng):
    while True:
        b = rand_frac(rng)
        if b != 1 and b != -1:
            return b


def rand_coupling_slope(rng):
    # complex b with b + conj(b) != 0 and b != +-1
    while True:
        b = Scalar(rand_frac(rng), rand_frac(rng))
        if not (b + b.conjugate()).is_zero and b != 1 and b != -1:
            return b


# -- classification ----------------------------------------------------------


def test_classify_delta_well():
    assert classify(delta_well(-2)) == InteractingSA(0, 0, -1)
    assert classify(PointPotential(1, 3, 0, 0)) == InteractingSA(0, 0, 2)


def test_classify_theta_family():
    cc = Fraction(1, 3)
    assert classify(PointPotential(0, 0, cc, cc)) == InteractingSA(0, cc, 0)


def test_classify_separating_branches():
    k = classify(PointPotential(0, 5, 1, 1))
    assert k == SeparatingSA(0, 1, 1, Fraction(5, 2))
    k = classify(PointPotential(5, 0, -1, -1))
    assert k == SeparatingSA(1, Fraction(-5, 2), 0, 1)
    k = classify(PointPotential(1, 1, 1, -1))
    assert k == SeparatingSA(0, 1, 0, 1)


def test_classify_not_self_adjoint():
    k = classify(PointPotential("1i", 0, 0, 0))
    assert isinstance(k, NotSelfAdjoint)
    assert k.bc == extract_bc(PointPotential("1i", 0, 0, 0))
    assert isinstance(classify(PointPotential(0, 0, 2, 3)), NotSelfAdjoint)
    assert isinstance(classify(PointPotential(0, 0, "1i", "1i")), NotSelfAdjoint)


def test_classify_reads_any_spec():
    k = classify(unconstrained_spec())
    assert isinstance(k, NotSelfAdjoint) and k.bc.rank == 0
    nn = represent_from_bc((0, 0, 1, 0), (0, 0, 0, 1))  # Neumann-Neumann
    assert classify(nn) == SeparatingSA(1, 0, 1, 0)
    assert classify(interacting_pseudo(1, 0, 0)) == InteractingSA(1, 0, 0)
    with pytest.raises(PreconditionError):
        classify(DeltaPrimeFamily(1, 1, 1, 1))  # theta = -1: no jump form


def classification_rows(k):
    """The documented conditions of a self-adjoint classification."""
    if isinstance(k, InteractingSA):
        bb = k.b.conjugate()
        return BCMatrix([[-k.c, -k.c, k.b - 1, k.b + 1],
                         [bb + 1, bb - 1, k.a, k.a]])
    return BCMatrix([[-k.b_minus, 0, k.a_minus, 0],
                     [0, -k.b_plus, 0, k.a_plus]])


def test_classify_matches_definition_oracle():
    seen = set()
    for spec in oracle_corpus():
        bc = extract_bc(spec)
        assert extract_bc(bc) is bc
        sa = self_adjoint_by_definition(bc)
        try:
            k = classify(spec)
        except PreconditionError:
            assert sa, spec  # only self-adjoint conditions without a jump form
            with pytest.raises(PreconditionError):
                classify(bc)
            seen.add((type(spec).__name__, "no-jump-form"))
            continue
        assert classify(bc) == k, spec
        seen.add((type(spec).__name__, type(k).__name__))
        if isinstance(k, NotSelfAdjoint):
            assert not sa, spec
            assert k.bc == bc
            assert extract_bc(k) is k.bc
            assert classify(k) == k
        else:
            assert sa, spec
            assert classification_rows(k).row_equivalent(bc), (spec, k)
            # the rows the classification stands for, and it classifies
            # as itself
            assert extract_bc(k).row_equivalent(classification_rows(k)), k
            assert classify(k) == k
    assert classify(PointPotential(0, 3, -1, -1)) == SeparatingSA(1, 0, 0, 1)
    for kind in ("PointPotential", "PseudoPotential", "DeltaPrimeFamily"):
        for outcome in ("InteractingSA", "SeparatingSA", "NotSelfAdjoint"):
            assert (kind, outcome) in seen, (kind, outcome)


def test_self_adjoint_matches_definition_at_every_rank():
    rng = random.Random(615)

    def row():
        return [rand_scalar(rng) for _ in range(4)]

    unit = [[int(i == j) for j in range(4)] for i in range(4)]
    r = row()
    specs = oracle_corpus()
    bcs = [extract_bc(spec) for spec in specs]
    # a spec's matrix is stored on it and decides self-adjointness once
    assert all(extract_bc(spec) is bc for spec, bc in zip(specs, bcs))
    assert [bc.self_adjoint for bc in bcs] == [
        BCMatrix(bc.rows).self_adjoint for bc in bcs]
    bcs += [BCMatrix([]), BCMatrix([r]), BCMatrix([r, [2 * e for e in r]]),
            BCMatrix(unit[:3]), BCMatrix(unit), BCMatrix([row() for _ in range(3)]),
            BCMatrix([row() for _ in range(4)])]
    assert [bc.rank for bc in bcs[-7:]] == [0, 1, 1, 3, 4, 3, 4]
    # invertible recombinations of two rows span the same space, and so
    # does the pair with a combination of it appended
    for bc in [bc for bc in bcs if len(bc.rows) == 2]:
        while True:
            m = [[rand_scalar(rng) for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
                break
        mixed = [[a * x + b * y for x, y in zip(*bc.rows)] for a, b in m]
        bcs += [BCMatrix(mixed), BCMatrix(mixed + [[x - y for x, y in zip(*mixed)]])]
    verdicts = [bc.self_adjoint for bc in bcs]
    assert verdicts == [self_adjoint_by_definition(bc) for bc in bcs]
    assert 150 < sum(verdicts) < len(bcs) - 150


def _abs2(z):
    return z * z.conjugate()


def spectral_identities(bc):
    """Unitarity on both sides, |D|^2 = |N_r|^2 + |N_t|^2 at kappa = -ik,
    and |m02| = |m13|, i.e. |t_left| = |t_right|, checked exactly.

    Unitarity is an identity of degree 4 in real k, so five distinct k
    prove it.  The quadratics come in Gaussian integers, all five scaled
    by one common denominator, which both sides share.
    """
    polys = [Poly(Scalar(x, y) for x, y in c)
             for c in _spectral_ints(bc, "rank 2")]
    unitary = True
    for k in (1, 2, Fraction(1, 3), Fraction(5, 2), 7):
        d, rl, tl, rr, tr = (_abs2(p.eval(Scalar(0, -k))) for p in polys)
        unitary = unitary and d == rl + tl and d == rr + tr
    _, m02, _, _, m13, _ = minors(bc)
    return unitary, _abs2(m02) == _abs2(m13)


def test_spectral_identities_on_the_oracle_corpus():
    checked = 0
    for spec in oracle_corpus():
        bc = extract_bc(spec)
        if self_adjoint_by_definition(bc):
            assert spectral_identities(bc) == (True, True), spec
            checked += 1
        elif bc.rank == 2:  # on this corpus every one breaks an identity
            assert spectral_identities(bc) != (True, True), spec
    assert checked == 91
    # negative controls: an absorbing coupling, unequal slopes and a
    # complex theta jump
    for spec in (PointPotential("1i", 0, 0, 0), PointPotential(0, 0, 2, 3),
                 delta_prime_interaction("1i")):
        assert not self_adjoint_by_definition(extract_bc(spec))
        assert spectral_identities(extract_bc(spec)) != (True, True), spec


_RATIONALS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(h00=_RATIONALS, h11=_RATIONALS, h01_re=_RATIONALS, h01_im=_RATIONALS)
def test_spectral_identities_on_cayley_rows(h00, h11, h01_re, h01_im):
    # Kostrykin-Schrader: for a unitary U the rows A = U - I, B = i(U + I),
    # written (A_i0, A_i1, B_i0, -B_i1), are self-adjoint conditions.  U is
    # the Cayley transform (I + iH)(I - iH)^-1 of a rational Hermitian H.
    i = Scalar(0, 1)
    h01 = Scalar(h01_re, h01_im)
    H = ((Scalar(h00), h01), (h01.conjugate(), Scalar(h11)))
    P = [[(j == k) + i * H[j][k] for k in range(2)] for j in range(2)]
    M = [[(j == k) - i * H[j][k] for k in range(2)] for j in range(2)]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    M_inv = ((M[1][1] / det, -M[0][1] / det), (-M[1][0] / det, M[0][0] / det))
    U = [[P[j][0] * M_inv[0][k] + P[j][1] * M_inv[1][k] for k in range(2)]
         for j in range(2)]
    rows = []
    for j in range(2):
        A = [U[j][k] - (j == k) for k in range(2)]
        B = [i * (U[j][k] + (j == k)) for k in range(2)]
        rows.append((A[0], A[1], B[0], -B[1]))
    bc = BCMatrix(rows)
    assert bc.self_adjoint
    assert self_adjoint_by_definition(bc)
    assert spectral_identities(bc) == (True, True)


def test_classify_real_case_formulas():
    rng = random.Random(601)
    for _ in range(50):
        c1, c2 = rand_frac(rng), rand_frac(rng)
        b = rand_real_nonunit(rng)
        k = classify(PointPotential(c1, c2, b, b))
        assert k == InteractingSA(0, b, Fraction(c1 * (1 - b) + c2 * (1 + b), 2))
        k = classify(PointPotential(c1, c2, b, -b))
        assert k == InteractingSA(0, 0, Fraction(c1 + c2) / (2 * (1 - b)))


# -- representation round trips ----------------------------------------------


def test_interacting_round_trip_conjugate_pair():
    rng = random.Random(602)
    for _ in range(50):
        b = rand_coupling_slope(rng)
        c = Scalar(rand_frac(rng))
        fam = represent_interacting(0, b, c)
        assert isinstance(fam, ConjugatePairFamily)
        assert classify(fam.default()) == InteractingSA(0, b, c)
        assert classify(fam.spec(k1=rand_frac(rng))) == InteractingSA(0, b, c)


def test_interacting_round_trip_opposite_sign():
    rng = random.Random(603)
    for _ in range(30):
        c = Scalar(rand_frac(rng))
        fam = represent_interacting(0, 0, c)
        assert isinstance(fam, OppositeSignFamily)
        assert classify(fam.default()) == InteractingSA(0, 0, c)
        b1 = Scalar(rand_frac(rng), rand_frac(rng))
        if b1 == 1 or b1 == -1:
            continue
        assert classify(fam.spec(b1=b1)) == InteractingSA(0, 0, c)
    for b1 in (1, -1):
        with pytest.raises(PreconditionError, match="leaves the family"):
            fam.spec(b1=b1)


def test_interacting_pseudo_fallbacks():
    out = represent_interacting(0, "1i", 1)
    assert isinstance(out, NotRepresentable)
    assert extract_bc(out.pseudo).row_equivalent(
        BCMatrix([[-1, -1, Scalar(0, 1) - 1, Scalar(0, 1) + 1],
                  [Scalar(0, -1) + 1, Scalar(0, -1) - 1, 0, 0]])
    )
    out = represent_interacting(2, 0, 0)
    assert isinstance(out, NotRepresentable)
    assert extract_bc(out.pseudo).rank == 2


def test_interacting_validation():
    # (1 + conj b)(1 - b) = a c: rank 2, but m02 = m13 = 0 separates
    for abc, sides in (((0, 1, 5), SeparatingSA(0, 1, 1, Fraction(5, 2))),
                       ((1, 0, 1), SeparatingSA(1, -1, 1, 1)),
                       ((0, -1, 2), SeparatingSA(1, -1, 0, 1))):
        assert classify(InteractingSA(*abc)) == sides
        named = "separate the half-lines: %r" % (sides,)
        with pytest.raises(PreconditionError, match=re.escape(named)):
            represent_interacting(*abc)
    with pytest.raises(PreconditionError):
        represent_interacting("1i", 0, 0)  # a must be real
    rng = random.Random(604)
    fam = represent_interacting(0, rand_coupling_slope(rng), 1)
    with pytest.raises(PreconditionError):
        fam.spec(k1="1i")


def test_default_is_spec_and_not_a_field():
    # the alias leaves the fields, so the CLI's params and records alone
    for cls in (ConjugatePairFamily, OppositeSignFamily, SeparatingFamily):
        assert cls.default is cls.spec
        assert "default" not in cls._fields


def test_separating_families():
    fam = represent_separating(0, 1, 0, 1)  # double Dirichlet
    assert isinstance(fam, SeparatingFamily) and fam.free == ("c1", "c2")
    assert classify(fam.default()) == SeparatingSA(0, 1, 0, 1)
    assert classify(fam.spec(c1=3, c2=4)) == SeparatingSA(0, 1, 0, 1)
    with pytest.raises(PreconditionError):
        fam.spec(c1=1, c2=-1)

    fam = represent_separating(0, 2, 1, 3)  # Dirichlet left, Robin right
    assert classify(fam.default()) == SeparatingSA(0, 1, 1, 3)
    with pytest.raises(PreconditionError):
        fam.spec(c2=1)  # c2 fixed in this family

    fam = represent_separating(2, 5, 0, 7)  # Robin left, Dirichlet right
    assert classify(fam.default()) == SeparatingSA(1, Fraction(5, 2), 0, 1)

    out = represent_separating(1, 0, 1, 0)  # Neumann-Neumann
    assert isinstance(out, NotRepresentable)


def test_separating_validation():
    with pytest.raises(PreconditionError, match="left side condition is empty"):
        represent_separating(0, 0, 1, 1)
    with pytest.raises(PreconditionError, match="right side condition is empty"):
        represent_separating(1, 1, 0, 0)
    with pytest.raises(PreconditionError):
        represent_separating(1, "1i", 1, 1)
    with pytest.raises(PreconditionError):
        normalize_side(0, 0)
    assert separating_sa(2, 6, 0, 5) == SeparatingSA(1, 3, 0, 1)


# -- bc extraction and matchers ----------------------------------------------


def test_continuity_jump_matcher():
    rng = random.Random(605)
    for _ in range(20):
        d, c = rand_frac(rng), rand_frac(rng)
        bc = extract_bc(PointPotential(d, c, 0, 0))
        assert match_continuity_jump(bc) == c + d
        if c + d != 0:
            assert match_theta_jump(bc) is None
    # psi continuous but psi'(0+) - 2 psi'(0-) = 5 psi(0)
    bc = BCMatrix([[1, -1, 0, 0], [-5, 0, -2, 1]])
    assert match_continuity_jump(bc) is None
    # one condition only: rank 1
    assert match_continuity_jump(BCMatrix([[-5, 0, -1, 1]])) is None
    # padded with a third row in their span, the conditions keep their match
    bc = BCMatrix([[1, -1, 0, 0], [-5, 0, -1, 1], [-4, -1, -1, 1]])
    assert match_continuity_jump(bc) == 5


def test_theta_matchers():
    rng = random.Random(606)
    for _ in range(20):
        c = rand_real_nonunit(rng)
        bc = extract_bc(PointPotential(0, 0, c, c))
        assert match_theta_jump(bc) == Fraction(c + 1, 1 - c)
    for _ in range(20):
        c, e = rand_frac(rng), rand_frac(rng)
        if e == 1 - c or e == 1 + c:  # theta undefined or zero
            continue
        bc = extract_bc(DeltaPrimeFamily(c, c, e, e))
        assert match_theta_jump(bc) == Fraction(1 - e + c, 1 - e - c)
    # psi(0+) = 2 psi(0-) but psi'(0+) = psi'(0-)/3
    assert match_theta_jump(BCMatrix([[-2, 1, 0, 0], [0, 0, 1, -3]])) is None


def test_free_operator_matches_trivially():
    bc = extract_bc(delta_well(0))
    assert match_continuity_jump(bc) == 0
    assert match_theta_jump(bc) == 1
    assert extract_bc(unconstrained_spec()).rank == 0


# -- row algebra ---------------------------------------------------------------


def test_bcmatrix_row_algebra():
    m = BCMatrix([[1, 1, 0, 0], [2, 2, 0, 0], [0, 0, 0, 0]])
    assert m.rank == 1
    assert m.row_equivalent(BCMatrix([[3, 3, 0, 0]]))
    assert m == BCMatrix([[-1, -1, 0, 0]])
    assert hash(m) == hash(BCMatrix([[5, 5, 0, 0]]))
    basis = m.kernel_basis()
    assert len(basis) == 3
    for vec in basis:
        assert sum((a * b for a, b in zip(m.rows[0], vec)), Scalar(0)).is_zero


def test_kernel_basis_satisfies_conditions():
    rng = random.Random(607)
    for _ in range(20):
        spec = delta_well(rand_frac(rng))
        bc = extract_bc(spec)
        for vec in bc.kernel_basis():
            for row in bc.rows:
                assert sum(
                    (a * b for a, b in zip(row, vec)), Scalar(0)
                ).is_zero


# -- the no-go direction -------------------------------------------------------


def test_neumann_neumann_no_go():
    nn = BCMatrix([[0, 0, 1, 0], [0, 0, 0, 1]])
    ok, cert = check_potential_representable_B3_zero(nn)
    assert ok is False
    assert isinstance(cert, NoGoCertificate)
    assert cert.det == 1
    pseudo = represent_from_bc([0, 0, 1, 0], [0, 0, 0, 1])
    assert extract_bc(pseudo).row_equivalent(nn)
    # the derivative block [[1, 2], [3, 4]] of the reduced rows, whose
    # off-diagonal product fixes the determinant's sign
    ok, cert = check_potential_representable_B3_zero(BCMatrix([[1, 0, 1, 2], [0, 1, 3, 4]]))
    assert ok is False
    assert cert.derivative_block == ((1, 2), (3, 4)) and cert.det == -2


def test_representable_when_derivative_block_degenerates():
    # rows reading no derivative; two rows reading only psi'(0-), whose
    # values-only row is (m02, m12, 0, 0); two reading only psi'(0+),
    # (m03, m13, 0, 0); and one row reading a derivative next to one not
    for rows in ([[1, 0, 0, 0], [0, 1, 0, 0]],
                 [[1, 0, 1, 0], [0, 1, 1, 0]],
                 [[1, 0, 0, 1], [0, 1, 0, 1]],
                 [[1, 0, 1, 0], [0, 1, 0, 0]]):
        bc = BCMatrix(rows)
        ok, spec = check_potential_representable_B3_zero(bc)
        assert ok is True
        assert all(e.is_zero for e in spec.dx_after_dx)
        assert extract_bc(spec).row_equivalent(bc)
    with pytest.raises(PreconditionError):
        check_potential_representable_B3_zero(BCMatrix([[1, 0, 0, 0]]))


def test_represent_from_bc_row_space():
    rng = random.Random(608)
    for _ in range(20):
        f1 = [rand_scalar(rng) for _ in range(4)]
        f2 = [rand_scalar(rng) for _ in range(4)]
        target = BCMatrix([f1, f2])
        if target.rank != 2:
            continue
        assert extract_bc(represent_from_bc(f1, f2)).row_equivalent(target)


def test_represent_from_bc_gives_the_rows_exactly():
    # the docstring's promise, entry by entry: constraint rows (-f1, f2)
    rng = random.Random(611)
    seen = set()
    for _ in range(60):
        f1 = [rand_scalar(rng) for _ in range(4)]
        f2 = [rand_scalar(rng) for _ in range(4)]
        rank = rng.randrange(3)
        if rank < 2:
            c = rand_scalar(rng)
            f2 = [c * e for e in f1]
        if rank < 1:
            f1 = f2 = [Scalar(0)] * 4
        seen.add(BCMatrix([f1, f2]).rank)
        rows = constraint_rows(represent_from_bc(f1, f2))
        assert rows == (tuple(-e for e in f1), tuple(f2))
    assert seen == {0, 1, 2}


def test_dirichlet_specs_agree():
    pseudo, plain = dirichlet_specs()
    dd = BCMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert extract_bc(pseudo).row_equivalent(dd)
    assert extract_bc(plain).row_equivalent(dd)
    assert classify(plain) == SeparatingSA(0, 1, 0, 1)


# -- boundary forms ------------------------------------------------------------


def corpus():
    out = [delta_well(a) for a in (-2, -1, 1, 3)]
    out += [delta_prime_interaction(t) for t in (2, 3, Fraction(1, 2))]
    out += [
        PointPotential(0, 5, 1, 1),
        PointPotential(5, 0, -1, -1),
        PointPotential(1, 1, 1, -1),
    ]
    rng = random.Random(609)
    while len(out) < 30:
        c1, c2 = rand_frac(rng), rand_frac(rng)
        b = rand_real_nonunit(rng)
        spec = PointPotential(c1, c2, b, b)
        if not isinstance(classify(spec), NotSelfAdjoint):
            out.append(spec)
    return out


def test_hermiticity_on_constrained_jets():
    rng = random.Random(610)
    for spec in corpus():
        bc = extract_bc(spec)
        jets = constrained_jets(bc, rng, 6)
        for psi in jets:
            for phi in jets:
                v = sesquilinear_form(spec, psi, phi)
                assert v == sesquilinear_form(spec, phi, psi).conjugate()


def test_form_agrees_with_raw_boundary_term():
    rng = random.Random(611)
    for spec in corpus():
        bc = extract_bc(spec)
        for psi in constrained_jets(bc, rng, 4):
            for phi in constrained_jets(bc, rng, 2):
                assert sesquilinear_form(spec, psi, phi) == boundary_form_raw(
                    psi, phi
                )


def test_form_accepts_classifications():
    psi, phi = jet_from_vector((1, 1, 2, 0)), jet_from_vector((1, 1, -3, -5))
    k = InteractingSA(0, 0, -1)  # delta well, a = -2
    assert sesquilinear_form(k, psi, phi) == sesquilinear_form(
        delta_well(-2), psi, phi
    )
    # a = 1: r = s and q - p = r + s; no plain potential realizes it
    k = InteractingSA(1, 0, 0)
    psi, phi = jet_from_vector((0, "2i", "1i", "1i")), jet_from_vector((1, 5, 2, 2))
    assert sesquilinear_form(k, psi, phi) == Scalar(0, 4)
    assert sesquilinear_form(k, phi, psi) == Scalar(0, -4)
    with pytest.raises(PreconditionError):
        sesquilinear_form(PointPotential("1i", 0, 0, 0), psi, phi)


def test_form_on_classifications_without_potential():
    # Neumann-Neumann and an imaginary coupling slope: self-adjoint, but no
    # plain potential realizes them
    rng = random.Random(613)
    cases = [
        (SeparatingSA(1, 0, 1, 0), BCMatrix([[0, 0, 1, 0], [0, 0, 0, 1]])),
        (InteractingSA(0, "1i", 0),
         BCMatrix([[0, 0, Scalar(-1, 1), Scalar(1, 1)],
                   [Scalar(1, -1), Scalar(-1, -1), 0, 0]])),
    ]
    for k, bc in cases:
        jets = constrained_jets(bc, rng, 4)
        for psi in jets:
            for phi in jets:
                v = sesquilinear_form(k, psi, phi)
                assert v == sesquilinear_form(k, phi, psi).conjugate()
                assert v == boundary_form_raw(psi, phi)
                assert v == sesquilinear_form(bc, psi, phi)


def _count_calls(monkeypatch, name):
    """Calls of the schrodinger module function name, as a list of their
    arguments."""
    calls = []
    real = getattr(schrodinger, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(schrodinger, name, counted)
    return calls


@pytest.mark.parametrize("make, builder", [
    (lambda: PointPotential(1, 2, Fraction(1, 3), Fraction(1, 3)), "constraint_rows"),
    (lambda: InteractingSA(1, Fraction(1, 2), 3), "_classification_rows"),
])
def test_a_spec_builds_its_conditions_once(monkeypatch, make, builder):
    spec = make()
    calls = _count_calls(monkeypatch, builder)
    bc = extract_bc(spec)
    assert isinstance(classify(spec), InteractingSA)
    jets = constrained_jets(bc, random.Random(620), 3)
    for psi in jets:
        for phi in jets:
            sesquilinear_form(spec, psi, phi)
    assert len(calls) == 1
    assert extract_bc(spec) is bc


def test_stored_conditions_change_nothing_visible():
    # the self-adjointness check still runs on every call
    spec = PointPotential("1i", 0, 0, 0)
    psi = phi = jet_from_vector((1, 1, 0, 0))
    for _ in range(10):
        with pytest.raises(PreconditionError, match="only defined for self-adjoint"):
            sesquilinear_form(spec, psi, phi)
    # a spec that has been read looks like one that has not
    specs = [
        lambda: PointPotential(1, 2, Fraction(1, 3), 0),
        lambda: PseudoPotential((1, 0, 2, "1i"), (0, 1, 0, 0), (3, 0, 0, 0)),
        lambda: DeltaPrimeFamily(1, 2, 0, Fraction(1, 2)),
        lambda: InteractingSA(1, Fraction(1, 2), 3),
        lambda: SeparatingSA(1, 2, 0, 1),
    ]
    for make in specs:
        read, fresh = make(), make()
        extract_bc(read)
        classify(read)
        assert read == fresh and fresh == read
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert encode(read) == encode(fresh)
        assert read._fields == fresh._fields
        values = tuple(getattr(read, name) for name in read._fields)
        assert values == tuple(getattr(fresh, name) for name in fresh._fields)
        for copied in (copy.copy(read), pickle.loads(pickle.dumps(read))):
            assert copied == fresh and hash(copied) == hash(fresh)
            assert repr(copied) == repr(fresh)
            assert encode(copied) == encode(fresh)
    with pytest.raises(TypeError, match="unknown operator spec 5"):
        extract_bc(5)


def test_bcmatrix_reduces_its_rows_at_most_once(monkeypatch):
    calls = _count_calls(monkeypatch, "_rref")
    two = BCMatrix([[1, 0, 2, 0], [0, 1, 0, 3]])
    assert not calls  # two rows give the minors without reducing
    three = BCMatrix([[1, 0, 2, 0], [0, 1, 0, 3], [1, 1, 2, 3]])
    assert len(calls) == 1
    for _ in range(2):
        for bc in (two, three):
            bc.reduced()
            assert bc.rank == 2
            bc.kernel_basis()
            hash(bc)
            assert bc == three and bc.row_equivalent(two)
    assert len(calls) == 2


def test_named_operator_validation():
    with pytest.raises(PreconditionError):
        delta_prime_interaction(0)
    with pytest.raises(PreconditionError):
        delta_prime_interaction(-1)
    theta = Fraction(-3)
    spec = delta_prime_interaction(theta)
    assert match_theta_jump(extract_bc(spec)) == theta
