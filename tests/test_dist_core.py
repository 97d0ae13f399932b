import bisect
import functools
import math
import operator
import random
import sys
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from deltastar import (
    AlgebraError,
    DeltaTerm,
    DisjointnessError,
    DivergentIntegralError,
    PiecewiseDist,
    Poly,
    RegularityError,
    Scalar,
    add,
    canonicalize,
    constant,
    delta_dist,
    delta_times_smooth,
    derivative,
    heaviside,
    hormander_product,
    indicator,
    n_sing_supp,
    order_of,
    pair_polynomial_test,
    parse_scalar,
    restrict,
    scale,
    star,
    zero,
)
from deltastar.dist_core import _build, reindex
from deltastar.limit_oracle import star_limit_oracle
from deltastar.expr_io import decode, encode, format_dist, parse_dist
from helpers import rand_dist, rand_poly, rand_scalar


def test_canonical_drops_removable_breakpoint():
    F = PiecewiseDist(0, [0], [Poly([1]), Poly([1])], [])
    assert F.breakpoints == ()
    assert F == constant(1)


def test_canonical_keeps_jump():
    H = heaviside(0)
    assert H.breakpoints == (0,)
    assert H.pieces[0].is_zero and H.pieces[1] == Poly([1])


def test_canonical_merges_and_drops_deltas():
    F = PiecewiseDist(
        1,
        [],
        [Poly([1])],
        [
            DeltaTerm(Fraction(0), 1, Scalar(2)),
            DeltaTerm(Fraction(0), 1, Scalar(-2)),
            DeltaTerm(Fraction(1), 0, Scalar(1)),
        ],
    )
    assert len(F.deltas) == 1
    assert F.deltas[0].point == 1
    # the delta point becomes a breakpoint with equal pieces on both sides
    assert F.breakpoints == (1,)


def test_zero_is_canonical():
    z = zero()
    assert z.is_zero
    assert z.breakpoints == () and len(z.pieces) == 1
    assert add(z, z) == z


def test_delta_order_beyond_regularity_rejected():
    with pytest.raises(RegularityError):
        delta_dist(0, 2, 1, n=1)


def test_equality_ignores_regularity_index():
    a = heaviside(0)
    b = PiecewiseDist(3, [0], [Poly(), Poly([1])], [])
    assert a == b
    assert hash(a) == hash(b)


def test_add_and_scale_linear():
    rng = random.Random(201)
    for _ in range(60):
        F = rand_dist(rng)
        G = rand_dist(rng)
        assert add(F, G) == add(G, F)
        assert scale(2, add(F, G)) == add(scale(2, F), scale(2, G))
        assert add(F, scale(-1, F)).is_zero


def test_operators_are_add_scale_and_star():
    rng = random.Random(203)
    for _ in range(60):
        F, G = rand_dist(rng), rand_dist(rng)
        c = rand_scalar(rng)
        assert F - G == add(F, scale(-1, G))
        assert -F == scale(-1, F)
        assert c * F == F * c == scale(c, F)
        assert F * G == star(F, G)
        assert canonicalize(F.n, F.breakpoints, F.pieces, F.deltas) == F
    for bad in (lambda: F - 1, lambda: F * 0.5):
        with pytest.raises(TypeError):
            bad()


def test_constructor_refuses_disordered_breakpoints_and_missing_pieces():
    for pts in ([1, 0], [0, 0]):
        with pytest.raises(AlgebraError, match="breakpoints must be strictly increasing"):
            PiecewiseDist(0, pts)
    with pytest.raises(AlgebraError, match="need 3 pieces for 2 breakpoints, got 2"):
        PiecewiseDist(0, [0, 1], [Poly([1]), Poly([2])])


def test_scale_and_reindex_give_canonical_results():
    # both skip the constructor: rebuilding their results changes nothing
    rng = random.Random(202)
    for _ in range(100):
        F = rand_dist(rng, n=2, max_order=2)
        c = rand_scalar(rng)
        out = [reindex(F, 2), reindex(F, 5), parse_dist(format_dist(F), 2)]
        if c:
            out.append(scale(c, F))
        for G in out:
            H = PiecewiseDist(G.n, G.breakpoints, G.pieces, G.deltas)
            assert type(G.pieces) is type(G.deltas) is tuple
            assert (H.n, H.breakpoints, H.pieces, H.deltas) == (
                G.n, G.breakpoints, G.pieces, G.deltas)
        assert scale(0, F) == zero() and scale(0, F).n == F.n
        if order_of(F) > 1:
            with pytest.raises(RegularityError):
                reindex(F, order_of(F) - 2)
    with pytest.raises(AlgebraError, match="nonnegative integer"):
        reindex(zero(), -1)


def test_order_of():
    assert order_of(constant(5)) == 0
    assert order_of(heaviside(0)) == 0
    assert order_of(delta_dist(0, 0)) == 1
    assert order_of(delta_dist(0, 1)) == 2


def test_n_sing_supp_jump_vs_smooth():
    H = heaviside(0)
    assert n_sing_supp(H, 0) == (0,)
    # x on both sides with a kink at 0: continuous, but first jets differ
    kink = PiecewiseDist(1, [0], [Poly([0, -1]), Poly([0, 1])], [])
    assert n_sing_supp(kink, 0) == ()
    assert n_sing_supp(kink, 1) == (0,)
    assert n_sing_supp(delta_dist(1, 0), 0) == (1,)


def test_delta_times_smooth_reduction():
    # delta'(x) * f = f(0) delta' - f'(0) delta
    f = Poly([2, 3])  # 2 + 3x
    out = delta_times_smooth(1, Fraction(0), f)
    assert sorted((d.order, complex(d.coeff)) for d in out) == [
        (0, -3 + 0j),
        (1, 2 + 0j),
    ]


def test_delta_times_smooth_vanishing_factor():
    # x * delta = 0, x * delta' = -delta (zero terms stay in the raw expansion)
    out = delta_times_smooth(0, Fraction(0), Poly([0, 1]))
    assert all(d.coeff == 0 for d in out)
    out = delta_times_smooth(1, Fraction(0), Poly([0, 1]))
    live = [(d.order, complex(d.coeff)) for d in out if d.coeff != 0]
    assert live == [(0, -1 + 0j)]


def test_delta_times_smooth_takes_only_an_int_order():
    for j in (numpy.int64(1), Fraction(1), 1.0):
        with pytest.raises(AlgebraError, match="delta order must be a nonnegative integer"):
            delta_times_smooth(j, 0, Poly([0, 1]))
    # a negative order has no terms
    assert delta_times_smooth(-1, 0, Poly([0, 1])) == []
    assert [type(d.order) for d in delta_times_smooth(2, 0, Poly([1, 1]))] == [int, int]


def test_hormander_product_disjoint():
    F = heaviside(0)
    G = heaviside(1)
    P = hormander_product(F, G)
    assert P == indicator(1, None)


def test_hormander_product_overlap_rejected():
    with pytest.raises(DisjointnessError):
        hormander_product(heaviside(0), delta_dist(0, 0))


def test_derivative_of_jump_and_delta():
    assert derivative(heaviside(0)) == delta_dist(0, 0)
    assert derivative(delta_dist(0, 0, n=1)) == delta_dist(0, 1)
    # product rule on the regular part
    F = indicator(0, None, Poly([0, 0, 1]))  # x^2 on (0, inf)
    dF = derivative(F)
    assert dF == indicator(0, None, Poly([0, 2]))


def test_derivative_raises_regularity_when_needed():
    d = derivative(delta_dist(0, 1, n=1))
    assert d.n == 2
    assert d.deltas[0].order == 2


def test_fundamental_theorem_on_random_pieces():
    """d/dx then pair against t == -(pair against t') plus boundary jumps."""
    rng = random.Random(202)
    for _ in range(40):
        F = rand_dist(rng, n=1, max_order=0, delta_rate=0.3)
        t = rand_poly(rng, max_deg=2)
        lhs = pair_polynomial_test(derivative(F), t, (-2, 2))
        rhs = -pair_polynomial_test(F, t.deriv(), (-2, 2))
        # t is not compactly supported inside (-2, 2): account for ends
        rhs = rhs + F.piece_left_of(Fraction(2)).eval(2) * t.eval(2)
        rhs = rhs - F.piece_right_of(Fraction(-2)).eval(-2) * t.eval(-2)
        assert lhs == rhs


def test_restrict():
    F = add(constant(1), delta_dist(0, 0))
    left = restrict(F, (None, 0))
    assert left == indicator(None, 0)
    mid = restrict(F, (-1, 1))
    assert mid == add(indicator(-1, 1), delta_dist(0, 0))
    # by the definition, on seeded cases: ends on breakpoints and delta
    # points (-1, 0, 1), between them, outside them, or infinite
    rng = random.Random(199)
    ends = [Fraction(x) for x in ("-3", "-1", "-1/2", "0", "1/3", "1", "5/2")]
    for _ in range(400):
        F = rand_dist(rng, n=rng.randint(0, 3))
        lo, hi = sorted(rng.sample(ends, 2))
        lo, hi = rng.choice(((lo, hi), (None, hi), (lo, None), (None, None)))
        R = restrict(F, (lo, hi))

        def inside(x):
            return (lo is None or lo < x) and (hi is None or x < hi)

        assert R.n == F.n
        assert list(R.deltas) == [d for d in F.deltas if inside(d.point)]
        finite = [e for e in (lo, hi) if e is not None]
        cuts = sorted(set(F.breakpoints + R.breakpoints + tuple(finite)))
        probes = [x + d for x in cuts for d in (Fraction(-1, 7), Fraction(1, 7))]
        probes += [(a + b) / 2 for a, b in zip(cuts, cuts[1:])] or [Fraction(0)]
        for x in probes:
            if x in cuts:
                continue
            want = F.piece_right_of(x) if inside(x) else Poly()
            assert R.piece_right_of(x) == want, (F, lo, hi, x)
        for a in finite:
            for empty in ((a, a), (a + 1, a)):
                with pytest.raises(AlgebraError, match="empty interval"):
                    restrict(F, empty)


def test_pair_polynomial_test_values():
    H = heaviside(0)
    assert pair_polynomial_test(H, Poly([1]), (-1, 1)) == 1
    assert pair_polynomial_test(H, Poly([0, 1]), (-1, 1)) == Fraction(1, 2)
    assert pair_polynomial_test(delta_dist(0, 1), Poly([0, 1]), (-1, 1)) == -1
    with pytest.raises(DivergentIntegralError):
        pair_polynomial_test(constant(1), Poly([1]))
    assert pair_polynomial_test(zero(), Poly([1])) == 0


def test_pair_excludes_masses_outside_interval():
    F = delta_dist(2, 0)
    assert pair_polynomial_test(F, Poly([1]), (-1, 1)) == 0
    assert pair_polynomial_test(F, Poly([1]), (1, 3)) == 1


def test_eval_float_between_breakpoints():
    F = PiecewiseDist(0, [0], [Poly([0]), Poly([1, 1])], [])
    assert F.eval_float(-1.0) == 0
    assert F.eval_float(0.5) == 1.5


def test_float_points_rejected():
    with pytest.raises((TypeError, AlgebraError)):
        delta_dist(0.5, 0)
    with pytest.raises(AlgebraError):
        delta_dist(Scalar(0, 1), 0)


# -- Scalar against a reference model of (Fraction, Fraction) pairs -----------

_rats = st.one_of(
    st.fractions(max_denominator=12),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**12)),
)
_scalars = st.one_of(
    st.builds(Scalar, _rats, _rats),
    st.builds(Scalar, st.integers(-50, 50), st.integers(-50, 50)),
    st.builds(Scalar, _rats),
    st.builds(Scalar, st.just(0), _rats),
)
_operands = st.one_of(_scalars, st.integers(-10**6, 10**6), _rats)


def _pair(x):
    if isinstance(x, Scalar):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def _pair_div(p, q):
    d = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / d, (p[1] * q[0] - p[0] * q[1]) / d)


_OPS = {
    "+": (operator.add, lambda p, q: (p[0] + q[0], p[1] + q[1])),
    "-": (operator.sub, lambda p, q: (p[0] - q[0], p[1] - q[1])),
    "*": (operator.mul, lambda p, q: (p[0] * q[0] - p[1] * q[1],
                                      p[0] * q[1] + p[1] * q[0])),
    "/": (operator.truediv, _pair_div),
}


def _pair_token(re, im):
    if not im:
        return str(re)
    if not re:
        return str(im) + "i"
    return "%s%s%si" % (re, "+" if im > 0 else "-", abs(im))


# deterministic and bounded: a fixed example sequence, no stored database
_MODEL = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@_MODEL
@given(x=_scalars, y=_operands, op=st.sampled_from(sorted(_OPS)), swap=st.booleans())
def test_scalar_binary_ops_match_fraction_pairs(x, y, op, swap):
    a, b = (y, x) if swap else (x, y)
    fn, model = _OPS[op]
    if op == "/" and _pair(b) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            fn(a, b)
        return
    r = fn(a, b)
    assert type(r) is Scalar
    assert _pair(r) == model(_pair(a), _pair(b))
    # equal values have one form: compare with a scalar built from parts
    assert r == Scalar(*model(_pair(a), _pair(b)))
    assert (a == b) == (_pair(a) == _pair(b))
    assert (a != b) == (_pair(a) != _pair(b))


@_MODEL
@given(x=_scalars)
def test_scalar_unary_ops_match_fraction_pairs(x):
    re, im = _pair(x)
    assert _pair(-x) == (-re, -im)
    assert _pair(x.conjugate()) == (re, -im)
    assert bool(x) == bool(re or im)
    assert x.is_zero == (not re and not im)
    assert x.is_real == (not im)
    assert complex(x) == complex(float(re), float(im))
    n = re.numerator
    assert (x == n) == (n == x) == (re == n and not im)
    if not im:
        assert x == re and re == x
        assert hash(x) == hash(re)
    assert hash(x) == hash(Scalar(re, im))
    assert x.token() == _pair_token(re, im)
    assert repr(x) == x.token()
    assert parse_scalar(x.token()) == x


@settings(_MODEL, max_examples=50)
@given(x=_scalars)
def test_scalar_rejects_floats(x):
    for fn in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            fn(x, 0.5)
        with pytest.raises(TypeError):
            fn(1.5, x)
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(x.re, 0.25)
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        x / Scalar(0, 0)


# -- order and hash of real scalars against Fraction, int and float -----------

_ORDER = (operator.lt, operator.le, operator.gt, operator.ge)
_MODULUS = sys.hash_info.modulus
# the denominator has no inverse modulo the hash modulus: hash_info.inf
_real_rats = st.one_of(_rats, st.sampled_from(
    [Fraction(1, _MODULUS), Fraction(-3, 2 * _MODULUS), Fraction(_MODULUS, 7)]))
_edge_floats = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 53 - 1, -(2.0 ** 53),
                math.inf, -math.inf, math.nan]
_floats = st.one_of(st.floats(), st.sampled_from(_edge_floats))
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_edge_floats[:9]))


@_MODEL
@given(x=_real_rats, y=st.one_of(_real_rats, st.integers(-10**20, 10**20)))
def test_real_scalar_order_and_hash_match_fraction(x, y):
    s, t = Scalar(x), Scalar(y)
    for op in _ORDER + (operator.eq,):
        for a, b, ra, rb in ((s, t, x, y), (s, y, x, y), (y, s, y, x)):
            assert op(a, b) == op(ra, rb)
    assert hash(s) == hash(x) and hash(t) == hash(y)
    assert float(s) == float(x)


@_MODEL
@given(f=_floats, x=st.one_of(_real_rats, st.builds(
    lambda f, k: Fraction(f) + Fraction(k, 2 ** 1080), _finite, st.integers(-2, 2))))
def test_real_scalar_order_against_floats_matches_fraction(f, x):
    # a value one ulp-fraction away from a float, and the float itself
    for q in (x, Fraction(f) if math.isfinite(f) else x):
        s = Scalar(q)
        for op in _ORDER:
            assert op(s, f) == op(q, f) and op(f, s) == op(f, q)


@settings(_MODEL, max_examples=100)
@given(x=_scalars, y=st.one_of(_scalars, _operands, _floats))
def test_non_real_scalars_have_no_order(x, y):
    if x.is_real:
        x = x + Scalar(0, 1)
    for op in _ORDER:
        with pytest.raises(TypeError):
            op(x, y)
        with pytest.raises(TypeError):
            op(y, x)
    with pytest.raises(TypeError):
        float(x)
    assert hash(x) == hash((x.re, x.im))


# -- reflected products: s * X is X * s for a scalar s -------------------------


@_MODEL
@given(seed=st.integers(0, 2 ** 32 - 1), s=_operands, token=st.booleans())
def test_reflected_products_match_right_products(seed, s, token):
    rng = random.Random(seed)
    if token:
        s = Scalar(*_pair(s)).token()  # a scalar given as its token text
    S = parse_scalar(s) if token else Scalar(*_pair(s))
    P, F = rand_poly(rng), rand_dist(rng)
    for X, want in ((P, Poly([c * S for c in P.coeffs])), (F, scale(S, F))):
        assert s * X == X * s == want
        assert type(s * X) is type(X)
    # a left operand that is no scalar has no product with either
    for left in (0.5, 1j, [1], object(), P):
        with pytest.raises(TypeError):
            left * F
    for left in (0.5, 1j, [1], object(), F):
        with pytest.raises(TypeError):
            left * P


# -- canonical form from raw constructor input ---------------------------------

# few points, pieces and coefficients, so that deltas pile up at one place,
# cancel, miss the breakpoints, and neighbouring pieces are often equal
_POINTS = [Fraction(k, 2) for k in range(-4, 5)]
_PIECES = [Poly(), Poly([1]), Poly([0, 1]), Poly([Scalar(1, 1)])]
_COEFFS = [Scalar(c) for c in (0, 1, -1, 2, "1/2")] + [Scalar(0, 1)]
_raw_deltas = st.lists(
    st.tuples(st.sampled_from(_POINTS), st.integers(0, 2),
              st.sampled_from(_COEFFS), st.booleans()),
    max_size=12,
)


@st.composite
def _raw_parts(draw):
    pts = sorted(draw(st.sets(st.sampled_from(_POINTS), max_size=6)))
    pieces = draw(st.lists(st.sampled_from(_PIECES),
                           min_size=len(pts) + 1, max_size=len(pts) + 1))
    raw = draw(_raw_deltas)
    # the negation of some of them: places whose sum is zero
    if raw:
        raw += [(p, o, -c, t) for p, o, c, t in
                draw(st.lists(st.sampled_from(raw), max_size=3))]
    return pts, pieces, raw


def _given(raw):
    """Deltas as the constructor takes them: a tuple or a DeltaTerm."""
    return [(p, o, c) if as_tuple else DeltaTerm(p, o, c)
            for p, o, c, as_tuple in raw]


def _piece_at(pts, pieces, x):
    return pieces[bisect.bisect_right(pts, x)]


@_MODEL
@given(parts=_raw_parts(), data=st.data())
def test_constructor_gives_the_canonical_form_of_raw_parts(parts, data):
    pts, pieces, raw = parts
    F = PiecewiseDist(2, pts, pieces, _given(raw))
    got_pts = [p.re for p in F.breakpoints]
    assert all(a < b for a, b in zip(got_pts, got_pts[1:]))
    places = [(d.point.re, d.order) for d in F.deltas]
    assert places == sorted(set(places))
    assert all(d.coeff for d in F.deltas)
    held = {p for p, _ in places}
    assert held <= set(got_pts)
    for k, p in enumerate(got_pts):
        assert p in held or F.pieces[k] != F.pieces[k + 1]
    # the same coefficient sums per (point, order) as the raw deltas
    sums = {}
    for p, o, c, _ in raw:
        sums[p, o] = sums.get((p, o), Scalar(0)) + c
    assert {k: c for k, c in sums.items() if c} == {
        (d.point.re, d.order): d.coeff for d in F.deltas}
    # the same pieces as the raw input: sample every gap between the raw
    # and the canonical points, which is inside one piece of each
    marks = sorted(set(pts) | set(got_pts) | {p for p, _, _, _ in raw})
    samples = [(a + b) / 2 for a, b in zip(marks, marks[1:])]
    samples += [marks[0] - 1, marks[-1] + 1] if marks else [0]
    for x in samples:
        assert _piece_at(F.breakpoints, F.pieces, x) == _piece_at(pts, pieces, x)
    # the builder under the constructor gives the same object from the
    # typed parts
    typed = [DeltaTerm(p, o, c) for p, o, c, _ in raw]
    assert _fields(_build(2, [Scalar(p) for p in pts], pieces, typed)) == _fields(F)
    # the order of the deltas and how a coefficient is split do not matter
    shuffled = data.draw(st.permutations(raw))
    assert PiecewiseDist(2, pts, pieces, _given(shuffled)) == F
    if raw:
        k = data.draw(st.integers(0, len(raw) - 1))
        s = data.draw(st.sampled_from(_COEFFS))
        p, o, c, as_tuple = raw[k]
        split = raw[:k] + [(p, o, c - s, as_tuple), (p, o, s, not as_tuple)] + raw[k + 1:]
        assert PiecewiseDist(2, pts, pieces, _given(split)) == F


def _fields(F):
    """Every field of F, with the type of each part."""
    return (
        type(F), F.n, F.breakpoints, F.pieces, F.deltas,
        [type(p) for p in F.breakpoints], [type(p) for p in F.pieces],
        [(type(d), type(d.point), type(d.coeff)) for d in F.deltas],
    )


def _fields_or_error(build):
    try:
        return _fields(build())
    except RegularityError as exc:
        return str(exc)


def test_atoms_are_the_constructor_of_their_raw_parts():
    # indicator, heaviside and delta_dist skip the builder where their
    # parts are canonical as they stand; with zero and nonzero parts they
    # give the constructor's object, or its error, all the same
    half = Fraction(1, 2)
    for p in (Poly(), Poly([2]), Poly([0, half, Scalar(0, -1)])):
        for n in (0, 2):
            for lo, hi in ((None, None), (-1, None), (None, half), (-1, half)):
                pts = [b for b in (lo, hi) if b is not None]
                pieces = [Poly()] * (lo is not None) + [p] + [Poly()] * (hi is not None)
                assert _fields(indicator(lo, hi, p, n)) == _fields(
                    PiecewiseDist(n, pts, pieces)), (p, n, lo, hi)
    for n in (0, 2):
        assert _fields(heaviside(-half, n)) == _fields(PiecewiseDist(n, [-half], [0, 1]))
    for coeff in (0, 3, Scalar(half, -2)):
        for order, n in ((0, None), (2, None), (1, 1), (1, 2), (2, 1)):
            want = _fields_or_error(lambda: PiecewiseDist(
                order if n is None else n, [half], None, [(half, order, coeff)]))
            assert _fields_or_error(lambda: delta_dist(half, order, coeff, n)) == want
            # a nonzero delta above the index is refused
            assert isinstance(want, str) == bool(coeff and n == 1 and order == 2)


_summands = st.lists(st.tuples(st.integers(0, 2 ** 32 - 1), st.booleans()),
                     min_size=1, max_size=7)


@_MODEL
@given(summands=_summands)
def test_add_of_many_is_the_fold_of_add(summands):
    # with some negated copies, so that pieces and deltas cancel
    Fs = []
    for seed, negate in summands:
        F = rand_dist(random.Random(seed), n=seed % 3, points=(-1, 0, 1, 2))
        Fs.append(F)
        if negate:
            Fs.append(scale(-1, F))
    fold = functools.reduce(add, Fs)
    assert _fields(add(*Fs)) == _fields(fold)
    # and a sum of parsed terms is the fold of the terms parsed one by one
    rng = random.Random(len(Fs))
    signs = [rng.choice((1, -1)) for _ in Fs]
    texts = ["(%s)" % format_dist(F) for F in Fs]
    text = "".join("%s %s " % ("+" if k > 0 else "-", t) for k, t in zip(signs, texts))
    terms = [parse_dist(t) if k > 0 else scale(-1, parse_dist(t)) for k, t in zip(signs, texts)]
    assert _fields(parse_dist(text)) == _fields(functools.reduce(add, terms))


def test_add_of_wide_pieces_is_the_sum_over_each_interval():
    # 9 to 16 summands with pieces over many merged intervals, which add
    # goes through its running sum; the reference adds each piece into
    # every merged interval it covers, and the constructor builds the sum
    rng = random.Random(2808)
    for _ in range(30):
        Fs = []
        for _ in range(rng.randint(9, 16)):
            lo = Fraction(rng.randint(-12, 12), rng.choice((1, 2)))
            lo, hi = rng.choice(((lo, None), (None, lo), (lo, lo + rng.randint(1, 12))))
            F = indicator(lo, hi, rand_poly(rng), rng.randint(0, 2))
            if rng.random() < 0.3:
                F = add(F, delta_dist(rng.randint(-6, 6), rng.randint(0, 2), rand_scalar(rng)))
            Fs.append(F)
        Fs += [scale(-1, F) for F in rng.sample(Fs, 3)]
        pts = sorted({p for F in Fs for p in F.breakpoints})
        pieces = [functools.reduce(operator.add, col)
                  for col in zip(*(F.pieces_over(pts) for F in Fs))]
        want = PiecewiseDist(max(F.n for F in Fs), pts, pieces, [d for F in Fs for d in F.deltas])
        assert _fields(add(*Fs)) == _fields(want)


def test_the_exact_path_hashes_no_scalar(monkeypatch):
    # canonical form is built from the order of points, never their hash
    def refuse(self):
        raise AssertionError("Scalar %s was hashed" % self.token())

    monkeypatch.setattr(Scalar, "__hash__", refuse)
    rng = random.Random(303)
    texts = [
        "delta(1/3) + piece(0,1/2: x) - delta(1/3) + 2*delta'(1/3)"
        " + piece(1/2,1: x) + delta(1/3)*piece(-inf,inf: 1+x)",
        "D(heaviside(-1/2)*piece(-1,1: 1 + 2i*x^2)) - 3*delta^2(0)*heaviside(0)",
        "(1/2 - i)*(delta'(1) + heaviside(1)*delta(1)) + 0.25*piece(-inf,1: x)",
    ]
    outcomes = set()
    for _ in range(40):
        F = rand_dist(rng, n=2, max_order=2)
        G = rand_dist(rng, n=1)
        P = star(F, G)
        assert star_limit_oracle(F, G) == P
        S = add(derivative(P), F)
        for H in (P, S, scale(rand_scalar(rng) or 1, S), reindex(S, 5)):
            text = format_dist(H)
            texts.append(text)
            assert parse_dist(text) == H
            assert decode(encode(H)) == H
        # singular supports, and the restriction and pairing on intervals
        # whose ends are breakpoints or not
        for k in (-1, 0, 1, 3, 10 ** 9):
            n_sing_supp(S, k)
        try:
            hormander_product(F, G)
            outcomes.add("product")
        except DisjointnessError:
            outcomes.add("disjointness")
        for interval in ((-1, 1), (Fraction(-1, 2), 0), (0, Fraction(3, 2))):
            restrict(S, interval)
            pair_polynomial_test(S, rand_poly(rng), interval)
    assert outcomes == {"product", "disjointness"}
    for text in texts:
        F = parse_dist(text)
        assert decode(encode(F)) == F
        assert parse_dist(format_dist(F)) == F
    with pytest.raises(AssertionError, match="was hashed"):
        hash(Scalar(1, 2))
