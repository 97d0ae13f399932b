import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import deltastar
from deltastar import (
    AlgebraError,
    Poly,
    Scalar,
    add,
    constant,
    delta_dist,
    heaviside,
    indicator,
    parse_scalar,
    scale,
    star,
    zero,
)
from deltastar.expr_io import (
    ExprError,
    _tokenize,
    decode,
    encode,
    format_dist,
    parse_dist,
    parse_poly,
)
from deltastar import schrodinger as s
from deltastar.boundary_ops import SidedDelta
from helpers import rand_dist, rand_scalar, reference_tokens


def test_parse_basic_atoms():
    assert parse_dist("delta(0)") == delta_dist(0, 0)
    assert parse_dist("delta'(1)") == delta_dist(1, 1)
    assert parse_dist("delta^2(-1)") == delta_dist(-1, 2)
    assert parse_dist("heaviside(0)") == heaviside(0)
    assert parse_dist("piece(-1,1: 1+x)") == indicator(-1, 1, Poly([1, 1]))
    assert parse_dist("piece(0,inf: x^2)") == indicator(0, None, Poly([0, 0, 1]))
    assert parse_dist("0").is_zero
    assert parse_dist("3/4i") == constant(Scalar(0, Fraction(3, 4)))


def test_parse_combinations():
    assert parse_dist("2*delta(0)") == delta_dist(0, 0, 2)
    assert parse_dist("D(heaviside(0))") == delta_dist(0, 0)
    assert parse_dist("heaviside(0) - delta(0)") == add(
        heaviside(0), delta_dist(0, 0, -1)
    )
    # products follow the one-sided rule
    assert parse_dist("delta(0)*heaviside(0)") == delta_dist(0, 0)
    assert parse_dist("heaviside(0)*delta(0)").is_zero
    assert parse_dist("piece(-inf,inf: 1+x)*delta(0)") == delta_dist(0, 0)
    assert parse_dist("(delta(0) + heaviside(0))*delta(0)").is_zero


def test_zero_factor_zeroes_the_product_where_it_stands():
    # constant factors are applied after the stars, so a zero one must
    # zero the product at once: x^5 * x^5 is past the degree cap
    for text in ("0*piece(0,1: x^5)*piece(0,1: x^5)",
                 "piece(0,1: x^5)*0*piece(0,1: x^5)"):
        assert parse_dist(text).is_zero
    with pytest.raises(ExprError, match="degree 10 exceeds cap") as info:
        parse_dist("piece(0,1: x^5)*piece(0,1: x^5)*0")
    assert info.value.pos == 15  # the first "*"
    # the regularity index of a zeroed product is that of its factors
    assert parse_dist("delta'(0)*0").n == parse_dist("0*delta^2(0)").n - 1 == 1
    # a term's sign applies once, after its factors, and a zero drops it
    for text, want in (("-0*delta(0)", zero()), ("-delta(0)*0", zero()),
                       ("-delta'(0)*0", zero(1)), ("-(2)*3*delta(0)", delta_dist(0, 0, -6)),
                       ("-(2)*3", constant(-6)), ("-1*delta(0)", delta_dist(0, 0, -1))):
        got = parse_dist(text)
        assert got == want and got.n == want.n, text
    assert parse_dist("D(3*(1 - 1/3*3))").is_zero


def test_constant_factors_match_star_with_constants():
    rng = random.Random(403)
    atoms = ["heaviside(1/2)", "delta^2(-1)", "D(piece(-1,1: 1+x))", "3/4i"]
    for _ in range(60):
        parts, want = [], zero()
        for _ in range(rng.randint(1, 4)):
            c = rand_scalar(rng)
            atom = rng.choice(atoms + ["(%s)" % format_dist(rand_dist(rng, n=2))])
            form = rng.choice(("(%s)*%s", "%s*(%s)", "(%s)*1*%s"))
            if form == "%s*(%s)":
                parts.append(form % (atom, c.token()))
            else:
                parts.append(form % (c.token(), atom))
            want = add(want, star(constant(c), parse_dist(atom)))
        got = parse_dist(" + ".join(parts))
        assert got == want and got.n == want.n


def test_parse_poly_forms():
    assert parse_poly("1 - x + 2x^2") == Poly([1, -1, 2])
    assert parse_poly("2*x") == Poly([0, 2])
    assert parse_poly("x") == Poly([0, 1])
    assert parse_poly("3/4i") == Poly([Scalar(0, Fraction(3, 4))])


def test_format_examples():
    assert format_dist(zero()) == "0"
    assert format_dist(delta_dist(0, 1, 2)) == "2*delta'(0)"
    got = format_dist(add(delta_dist(0, 0, -1), heaviside(0)))
    assert parse_dist(got) == add(delta_dist(0, 0, -1), heaviside(0))


def test_format_parse_round_trip_randomized():
    rng = random.Random(401)
    for _ in range(120):
        F = rand_dist(rng, n=2, max_order=2)
        text = format_dist(F)
        assert parse_dist(text) == F


# parse texts whose outcome, result or error, is pinned byte for byte
_PINNED_TEXTS = [
    "delta(1/3) + 2*heaviside(-5/4) - 3/7i*delta'(1/3)",
    "piece(-1/2,3/4: 1/3 - 2/5x + 7/9i*x^2) * delta^2(1/4)",
    "heaviside(-2/3) * delta'(-2/3) + delta'(-2/3) * heaviside(-2/3)",
    "D(D(piece(-1/3,5/7: 1+x^3))) - (1/2-3i)*delta(22/7)",
    "delta(0.25) + heaviside(1/4) + piece(0.5,1.75: 0.125x)",
    "delta(-0006/0012) + piece(-inf,-1/3: x) + piece(2/3,inf: -x)",
    "2i*delta(1/7)*piece(0,1: 1-x) + 3*delta^2(-1/9)",
    "(1/2 + 1/3i)*(delta(1/5) - heaviside(1/5))*(4 - i)",
    "delta(1/3) @ heaviside(1)",
    "delta(1/0)",
    "piece(3/4,1/2: 1)",
    "delta^1/2(1/3)",
    "delta(1/3i)",
    "heaviside(1/3",
    "piece(1/2,inf: x^9)",
]


def test_format_and_encode_bytes_are_pinned():
    # a sha256 over format_dist and encode of a seeded corpus, and over the
    # outcome of each text above (an error as type:message:offset); the
    # digest was taken before points became Scalars, and pins the bytes
    rng = random.Random(1313)
    points = (Fraction(-7, 3), Fraction(-1, 2), Fraction(1, 3), Fraction(5, 4), Fraction(22, 7))
    out = []
    for n in (0, 1, 2):
        for _ in range(100):
            F = rand_dist(rng, n, points=points)
            out += [format_dist(F), encode(F)]
    for text in _PINNED_TEXTS:
        try:
            F = parse_dist(text)
        except ExprError as exc:
            out.append("%s:%s:%d" % (type(exc).__name__, exc, exc.pos))
        else:
            out += [format_dist(F), encode(F)]
    digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
    assert digest == "d5854faf265dce6edae6906d376651a672cef7f35fd8ab89211d1b511ad8fec9"


def test_error_positions():
    cases = [
        ("delta(", 6, "number"),
        ("2 +", 3, "delta"),
        ("delta''(0)", 6, "("),
        ("heaviside 0", 10, "("),
        ("piece(0,1: *)", 11, "x"),
    ]
    for text, pos, expected in cases:
        with pytest.raises(ExprError) as info:
            parse_dist(text)
        assert info.value.pos == pos
        assert expected in info.value.expected
    # (text, n_cap, offset, message): the first character no token takes,
    # a number where the grammar allows none, and the errors of the layer
    # below, each at the offset of the construct that raised it
    for text, n_cap, pos, message in (
        ("delta(0) @ heaviside(1)", None, 9, "unexpected character '@'"),
        ("delta(0) ＋ delta(1)", None, 9, "unexpected character '＋'"),
        ("delta(0i)", None, 6, "unexpected imaginary number"),
        ("delta^1/2(0)", None, 6, "unexpected number 1/2"),
        ("piece(0,1/0: x)", None, 8, "zero denominator in '1/0'"),
        ("heaviside(1.5/2)", None, 10, "malformed number '1.5/2'"),
        ("piece(0,1: 1.5/2i)", None, 11, "malformed number '1.5/2'"),
        ("piece(1,0: 1)", None, 0, "empty interval (1, 0)"),
        ("piece(inf,1: x)", None, 0, "lower bound cannot be +inf"),
        ("piece(0,-inf: x)", None, 0, "upper bound cannot be -inf"),
        ("piece(0,1: *)", None, 11, "unexpected '*'"),
        ("delta^2(0)", 1, 0, "delta order 2 exceeds the regularity cap 1"),
        ("D(delta(0))", 0, 11, "delta order 1 not allowed at regularity index 0"),
    ):
        with pytest.raises(ExprError) as info:
            parse_dist(text, n_cap)
        assert info.value.pos == pos
        assert str(info.value).startswith(message + " at offset %d" % pos)
    # a number past Python's limit on the digits of int text is reported
    # as too long, not with advice on sys.set_int_max_str_digits()
    long = "1" * 5000
    record = "dist\nn 0\nbreakpoints %s\npiece 0\npiece 1\nend\n" % long
    for read, text, pos in ((parse_dist, "delta(%s)" % long, 6), (decode, record, 9)):
        with pytest.raises(ExprError) as info:
            read(text)
        assert info.value.pos == pos
        assert str(info.value) == "number has more than 4300 digits at offset %d" % pos
    with pytest.raises(ValueError, match="^number has more than 4300 digits$"):
        parse_scalar("7" * 5000)
    # Unicode whitespace separates tokens; Unicode digits are digits
    assert parse_dist("delta(0)\u00a0+\u2003heaviside(1)") == delta_dist(0) + heaviside(1)
    assert parse_dist("delta(٣)") == delta_dist(3)


def _tokens_or_error(tokenize, text):
    try:
        return [(kind, type(value), value, pos) for kind, value, pos in tokenize(text)]
    except ExprError as exc:
        return str(exc), exc.pos


def _assert_tokens_match_the_reference(text):
    got = _tokens_or_error(_tokenize, text)
    assert got == _tokens_or_error(reference_tokens, text), text
    return got


def test_tokenizer_matches_the_reference_on_spaced_format_texts():
    rng = random.Random(2207)
    for _ in range(150):
        text = format_dist(rand_dist(rng, n=2, max_order=2))
        # runs of whitespace at random places, inside tokens too
        chars = list(text)
        for _ in range(rng.randint(0, 8)):
            k = rng.randint(0, len(chars))
            chars.insert(k, "".join(rng.choice(" \t\n") for _ in range(rng.randint(1, 3))))
        _assert_tokens_match_the_reference("".join(chars))
    for text in ("1/0", "0/38.4", "1/2/3", "7" * 5000, "7" * 5000 + "i",
                 "1/" + "3" * 5000, "1/" + "0" * 5000, "0.5i", "٣/٤i", " \t\n", "",
                 "007/0010i", "1/00", "12.5", "0i0", "1/2.5", "2ii"):
        _assert_tokens_match_the_reference(text)
    assert isinstance(_assert_tokens_match_the_reference("1/0"), tuple)
    assert _assert_tokens_match_the_reference("0/38.4")[1] == 4


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=st.text(alphabet="0123456789./i+-*()^,:' \t\nxdelthvsipcD@_٣", max_size=30))
def test_tokenizer_matches_the_reference_on_fuzzed_text(text):
    _assert_tokens_match_the_reference(text)


def test_empty_interval_rejected():
    with pytest.raises(ExprError):
        parse_dist("piece(1,0: 1)")


def test_regularity_cap():
    assert parse_dist("delta'(0)", n_cap=1) == delta_dist(0, 1, 1, n=1)
    with pytest.raises(ExprError):
        parse_dist("delta^2(0)", n_cap=1)


def test_huge_exponent_rejected_before_expansion():
    # parsed in a child process: code that expanded the exponent into a
    # dense list would hang and fill memory, and is killed at the bound
    code = (
        "from deltastar.expr_io import ExprError, parse_dist, parse_poly\n"
        "for parse, text in ((parse_dist, 'piece(0,1: x^100000000)'),\n"
        "                    (parse_poly, 'x^100000000')):\n"
        "    try:\n"
        "        parse(text)\n"
        "    except ExprError as exc:\n"
        "        print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(deltastar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("exceeds cap") == 2
    assert parse_poly("x^9 - x^9").is_zero  # only nonzero terms count


def test_deep_nesting_is_a_parse_error():
    for text in ("(" * 3000 + "1" + ")" * 3000, "D(" * 3000 + "delta(0)" + ")" * 3000):
        with pytest.raises(ExprError, match="nested too deeply"):
            parse_dist(text)
    assert parse_dist("(" * 50 + "delta(0)" + ")" * 50) == delta_dist(0, 0)


def test_codec_dist_round_trip_randomized():
    rng = random.Random(402)
    for _ in range(60):
        F = rand_dist(rng, n=2, max_order=2)
        text = encode(F)
        G = decode(text)
        assert G == F and G.n == F.n
        assert encode(G) == text


def test_codec_opspec_round_trips():
    specs = [
        s.PointPotential(1, Fraction(1, 2), 0, "2i"),
        s.DeltaPrimeFamily(1, 1, 3, 3),
        s.represent_from_bc([0, 0, 1, 0], [0, 0, 0, 1]),
    ]
    for spec in specs:
        text = encode(spec)
        back = decode(text)
        assert back == spec
        assert encode(back) == text


def test_codec_classification_round_trips():
    rows = s.BCMatrix([[0, 0, 1, 0], [0, 0, 0, 1]])
    items = [
        s.InteractingSA(1, "1i", Fraction(1, 2)),
        s.SeparatingSA(1, 2, 3, 4),
        s.NotSelfAdjoint(rows),
        rows,
    ]
    for item in items:
        text = encode(item)
        back = decode(text)
        assert back == item
        assert encode(back) == text
    # words past the kind on the header line are ignored
    for text, want in (
        ("bc extra\nrow 0 0 1 0\nrow 0 0 0 1\nend\n", rows),
        ("opspec potential extra\nc1 1\nc2 1/2\nb1 0\nb2 2i\nend\n",
         s.PointPotential(1, Fraction(1, 2), 0, "2i")),
        ("classification not-self-adjoint x\nrow 0 0 1 0\nrow 0 0 0 1\nend\n",
         s.NotSelfAdjoint(rows)),
    ):
        back = decode(text)
        assert type(back) is type(want) and back == want
    # the exact type decides the kind: a subclass, or a value of no
    # record kind, is not encoded

    class Rows(s.BCMatrix):
        __slots__ = ()

    for other in (Rows(rows.rows), Scalar(1), (1, 2)):
        with pytest.raises(TypeError, match="cannot encode"):
            encode(other)


# one record of every kind: dist, each opspec, each classification, bc
_EVERY_RECORD = """
from deltastar import delta_dist, heaviside
from deltastar.schrodinger import (BCMatrix, DeltaPrimeFamily, InteractingSA,
    NotSelfAdjoint, PointPotential, SeparatingSA, represent_from_bc)
rows = BCMatrix([[0, 0, 1, 0], [0, 0, 0, 1]])
items = [heaviside(0) + delta_dist(1, 1, "2i"), PointPotential(1, "1/2", 0, "2i"),
         represent_from_bc([0, 0, 1, 0], [0, 0, 0, 1]), DeltaPrimeFamily(1, 1, 3, 3),
         InteractingSA(1, "1i", "1/2"), SeparatingSA(1, 2, 3, 4),
         NotSelfAdjoint(rows), rows]
"""


def test_codec_round_trips_where_expr_io_is_the_first_import():
    # expr_io loads the operator modules for the first record that is not
    # a dist, whether encode or decode meets it first
    ns = {}
    exec(_EVERY_RECORD, ns)
    texts = [encode(x) for x in ns["items"]]
    decode_first = (
        "import sys\n"
        "from deltastar.expr_io import decode, encode\n"
        "print(sorted(m for m in sys.modules if m.startswith('deltastar')))\n"
        "got = [decode(t) for t in %r]\n" % (texts,)
        + _EVERY_RECORD
        + "assert got == items\n"
        "assert [encode(x) for x in items] == %r\n" % (texts,)
    )
    encode_first = (
        "from deltastar.expr_io import decode, encode\n"
        + _EVERY_RECORD
        + "for x in reversed(items):\n"
        "    assert decode(encode(x)) == x, x\n"
    )
    src = os.path.dirname(os.path.dirname(deltastar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for code, out in ((decode_first, "['deltastar', 'deltastar.dist_core', "
                                     "'deltastar.expr_io']\n"),
                      (encode_first, "")):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        assert done.stdout == out


def test_codec_rejects_malformed_records():
    for bad in (
        "dist\nn 1\nend\n",          # missing breakpoints line
        "opspec bogus\nend\n",       # unknown kind
        "dist\nn 1\npiece\n",        # wrong line order
        "classification maybe\nend\n",
        "bc\nrow 1/0 0 0 0\nend\n",  # zero denominators
        "dist\nn 0\nbreakpoints 1/0\npiece 0\npiece 0\nend\n",
        "dist\nn 0\nbreakpoints\npiece 0\ndelta 0/0 0 1\nend\n",
        "opspec potential\nc1 1/0i\nc2 0\nb1 0\nb2 0\nend\n",
        "bc\nrow 1e30000000 0 0 0\nend\n",  # exponents past 4300
        "dist\nn 0\nbreakpoints 1e-30000000\npiece 0\npiece 0\nend\n",
    ):
        with pytest.raises(ExprError):
            decode(bad)
    # the integer fields take ASCII digits only, and every failure is an
    # ExprError at the offset of its line
    long = "7" * 5000
    delta = "dist\nn 1\nbreakpoints 0\npiece 0\npiece 0\ndelta 0 %s 1\nend\n"
    for bad, pos, message in (
        ("dist\nn \u00b2\nbreakpoints\npiece 0\nend\n", 5,
         "'\u00b2' is not a nonnegative integer"),
        ("dist\nn \u0663\nbreakpoints\npiece 0\nend\n", 5,
         "'\u0663' is not a nonnegative integer"),
        ("dist\nn -1\nbreakpoints\npiece 0\nend\n", 5,
         "'-1' is not a nonnegative integer"),
        ("dist\nn %s\nbreakpoints\npiece 0\nend\n" % long, 5,
         "number has more than 4300 digits"),
        (delta % long, 39, "number has more than 4300 digits"),
        (delta % "\u00b2", 39, "'\u00b2' is not a nonnegative integer"),
        (delta % "-1", 39, "'-1' is not a nonnegative integer"),
        (delta % "1_0", 39, "'1_0' is not a nonnegative integer"),
        # a piece past the degree cap and a delta order above n were
        # reported at the header; a rejected spec raised PreconditionError
        ("dist\nn 0\nbreakpoints\npiece 1 0 0 0 0 0 0 0 0 0 0 1\nend\n", 21,
         "polynomial degree 11 exceeds cap 8"),
        (delta % "3", 39, "delta order 3 not allowed at regularity index 1"),
        ("opspec pseudo\ndirect 0 0 0 0\nafter_dx 0 0 1 0\n"
         "dx_after_dx 0 0 0 0\nend\n", 0,
         "after_dx must be order 0 (no delta' coefficients)"),
        # a line with the wrong number of values, at that line
        ("dist\nn 1 2\nbreakpoints\npiece 0\nend\n", 5,
         "'n' takes one nonnegative integer"),
        ("dist\nn 1\nbreakpoints\npiece 0\ndelta 0 1\nend\n", 29,
         "'delta' takes point, order, coeff"),
        ("opspec potential\nc1 1 2\nc2 0\nb1 0\nb2 0\nend\n", 17,
         "'c1' takes one value"),
        ("opspec pseudo\ndirect 0 0 0\nafter_dx 0 0 0 0\n"
         "dx_after_dx 0 0 0 0\nend\n", 14, "'direct' takes four values"),
        ("bc\nrow 1 0 0\nend\n", 3, "'row' takes four values"),
        ("bc\nrow 1 0 0 0\n", 0, "missing 'end' line"),
        ("bogus\nend\n", 0, "unknown record 'bogus'"),
    ):
        with pytest.raises(ExprError) as info:
            decode(bad)
        assert info.value.pos == pos
        assert str(info.value) == "%s at offset %d" % (message, pos)


def test_decode_reads_words_token_does_not_write():
    # in a piece, a delta coefficient, a record field, a breakpoint and a
    # delta point alike, the value of a scalar word is parse_scalar's, and
    # a word it refuses is an ExprError at the offset of its line; a point
    # must be real besides.  heaviside, delta_dist and SidedDelta read a
    # point from text as decode does
    records = (
        ("dist\nn 0\nbreakpoints\npiece 1 %s\nend\n", lambda F: F.pieces[0].coeffs[1], 21),
        ("dist\nn 0\nbreakpoints 0\npiece\npiece\ndelta 0 0 %s\nend\n",
         lambda F: F.deltas[0].coeff, 35),
        ("opspec potential\nc1 1\nc2 %s\nb1 0\nb2 0\nend\n", lambda spec: spec.c2, 22),
    )
    points = (
        ("dist\nn 0\nbreakpoints %s\npiece\npiece 1\nend\n", lambda F: F.breakpoints[0], 9),
        ("dist\nn 0\nbreakpoints\npiece\ndelta %s 0 1\nend\n", lambda F: F.deltas[0].point, 27),
    )
    builders = (lambda x: heaviside(x).breakpoints[0], lambda x: delta_dist(x).deltas[0].point,
                lambda x: SidedDelta("left", 0, x).point)
    half = Fraction(1, 2)
    for word, want in (("-6/4", Scalar(-3 * half)), ("2/4+0/3i", Scalar(half)),
                       ("0.5", Scalar(half)), ("1e-3", Scalar(Fraction(1, 1000))),
                       ("+3", Scalar(3)), ("007/0010i", Scalar(0, Fraction(7, 10)))):
        assert parse_scalar(word) == want, word
        for text, read, _ in records + (points if want.is_real else ()):
            assert read(decode(text % word)) == want, (word, text)
        for build in builders if want.is_real else ():
            assert build(word) == want, word
    for word, message in (("1i", "point 1i is not real"),
                          ("007/0010i", "point 7/10i is not real")):
        for text, _, pos in points:
            with pytest.raises(ExprError) as info:
                decode(text % word)
            assert (str(info.value), info.value.pos) == (
                "%s at offset %d" % (message, pos), pos), (word, text)
        for build in builders:
            with pytest.raises(AlgebraError, match="^%s$" % message):
                build(word)
    for word, message in (
        ("1/0", "zero denominator in '1/0'"),
        ("1/0i", "zero denominator in '1/0'"),
        ("0/0+1/0i", "zero denominator in '+1/0'"),  # the imaginary part first
        ("1.5/2", "malformed number '1.5/2'"),
        ("7" * 5000 + "/3", "number has more than 4300 digits"),
    ):
        for read in (parse_scalar,) + builders:
            with pytest.raises(ValueError) as info:
                read(word)
            assert str(info.value) == message
        for text, _, pos in records + points:
            with pytest.raises(ExprError) as info:
                decode(text % word)
            assert (str(info.value), info.value.pos) == (
                "%s at offset %d" % (message, pos), pos), (word, text)
