import random
from fractions import Fraction

import pytest

from deltastar import (
    DegreeCapError,
    Poly,
    Scalar,
    degree_cap,
    parse_scalar,
    set_degree_cap,
)
from helpers import rand_poly, rand_scalar


def test_scalar_basics():
    a = Scalar(Fraction(1, 2), 3)
    assert a.re == Fraction(1, 2) and a.im == 3
    assert not a.is_real and not a.is_zero
    assert a.conjugate().im == -3
    assert Scalar(2) == 2 and 2 == Scalar(2)
    assert Scalar(0).is_zero and Scalar(0).is_real


def test_scalar_arithmetic_matches_complex():
    rng = random.Random(101)
    for _ in range(300):
        a, b = rand_scalar(rng), rand_scalar(rng)
        za, zb = complex(a), complex(b)
        assert abs(complex(a + b) - (za + zb)) < 1e-12
        assert abs(complex(a - b) - (za - zb)) < 1e-12
        assert abs(complex(a * b) - (za * zb)) < 1e-10
        if not b.is_zero:
            q = a / b
            assert q * b == a


def test_scalar_division_exact():
    q = Scalar(1, 1) / Scalar(1, -1)
    assert q == Scalar(0, 1)
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_scalar_mixes_with_ints_and_fractions():
    a = Scalar(Fraction(1, 3))
    assert a + 1 == Scalar(Fraction(4, 3))
    assert 2 * a == Scalar(Fraction(2, 3))
    assert a - Fraction(1, 3) == 0
    with pytest.raises(TypeError):
        a + 0.5


def test_scalar_is_never_equal_to_text():
    # comparing with a string parsed it: "abc" raised, "1" was equal to
    # Scalar(1) with another hash; arithmetic still reads token text
    assert Scalar(1) != "abc" and Scalar(1) != "1"
    assert Scalar(1) in ["abc", Scalar(1)]
    assert Scalar(1) + "1/2i" == Scalar(1, Fraction(1, 2))


def test_scalar_token_round_trip():
    rng = random.Random(102)
    for _ in range(400):
        s = rand_scalar(rng, span=9, imag_rate=0.6)
        assert parse_scalar(s.token()) == s
    assert parse_scalar("-i") == Scalar(0, -1)
    assert parse_scalar("0.25") == Scalar(Fraction(1, 4))
    assert Scalar(Fraction(3, 4)).token() == "3/4"
    assert Scalar(0, 1).token() == "1i"
    assert Scalar(-1, Fraction(-1, 2)).token() == "-1-1/2i"


def test_scalar_text_keeps_the_exponent_sign():
    # the sign after "e" belongs to the exponent, not between two parts
    assert parse_scalar("1e-5i") == Scalar(0, Fraction(1, 10 ** 5))
    assert parse_scalar("1E+2i") == Scalar(0, 100)
    assert parse_scalar("2+1e-5i") == Scalar(2, Fraction(1, 10 ** 5))
    assert parse_scalar("1e2-1e-2i") == Scalar(100, Fraction(-1, 100))
    with pytest.raises(ValueError, match="exponent too large"):
        parse_scalar("1e-20000000i")


def _by_fraction(text):
    """Fraction's text parser, with its errors in Scalar's words: a zero
    denominator, and text that is not a number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None
    except ValueError:
        raise ValueError("malformed number %r" % text) from None


@pytest.mark.parametrize("text", [
    "+3", "-3", "007", "2/4", "-6/4", "1/0", "0/0", "1/00", "1_000", "\u0663",
    " 3", "1 / 2", "1.5/3", "1e3", "", "/2", "1/-2", "3/", "--1",
    "+0", "-0", "+6/4", "-007/0014", "0/5", "-0/3", "000", "10/100", "0.50",
])
def test_frac_reads_ratio_text_like_fraction(text):
    # Scalar reads text with Fraction's parser: the value, or the error,
    # is Fraction's, with the error in Scalar's words
    try:
        want = _by_fraction(text)
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            Scalar(text)
        assert str(info.value) == str(exc)
    else:
        got = Scalar(text)
        assert got == Scalar(want) and (got.re, got.im) == (want, 0)


def test_poly_arithmetic():
    p = Poly([1, 2, 1])  # (1+x)^2
    q = Poly([1, 1])
    assert q * q == p
    assert p - q * q == Poly()
    assert (p + q).eval(2) == 9 + 3
    assert p.deriv() == Poly([2, 2])
    assert p.deriv(2) == Poly([2])
    assert p.deriv(3).is_zero


def test_poly_eval_exact_complex():
    p = Poly([Scalar(0, 1), 1])  # i + x
    v = p.eval(Fraction(1, 2))
    assert v == Scalar(Fraction(1, 2), 1)


def test_poly_eval_float_matches_exact():
    rng = random.Random(103)
    for _ in range(100):
        p = rand_poly(rng)
        x = Fraction(rng.randint(-8, 8), 4)
        assert abs(p.eval_float(float(x)) - complex(p.eval(x))) < 1e-9


def test_degree_cap_enforced():
    assert degree_cap() == 8
    with pytest.raises(DegreeCapError):
        Poly([0] * 9 + [1])
    p = Poly([0, 1])  # x
    q = Poly([0] * 8 + [1])  # x^8, right at the cap
    assert len(q.coeffs) == 9
    with pytest.raises(DegreeCapError):
        p * q


def test_degree_cap_adjustable():
    set_degree_cap(12)
    try:
        p = Poly([0] * 10 + [1])
        assert len(p.coeffs) == 11
    finally:
        set_degree_cap(8)
    with pytest.raises(ValueError):
        set_degree_cap(0)
