import random

import pytest

from superell.curve import ASQ, HYPERELLIPTIC, InvalidCurveError
from superell.exprparse import ParseError, parse_curve, parse_poly, render_poly
from superell.ff import make_field
from superell.poly import Polynomial


def test_parse_basic():
    F5 = make_field(5)
    f = parse_poly("x^5 - x", F5)
    assert [c.lift() for c in f.coeffs] == [0, 4, 0, 0, 0, 1]


def test_coefficients_reduce_mod_p():
    F7 = make_field(7)
    f = parse_poly("3x^2+7", F7)
    assert [c.lift() for c in f.coeffs] == [0, 0, 3]


def test_explicit_star_and_constants():
    F5 = make_field(5)
    assert parse_poly("2*x^3 + 4", F5) == Polynomial(F5, [4, 0, 0, 2])
    assert parse_poly("11", F5) == Polynomial(F5, [1])


def test_syntax_error_offset():
    F5 = make_field(5)
    with pytest.raises(ParseError) as ei:
        parse_poly("x^^2", F5)
    assert ei.value.offset == 2


def test_unknown_word_rejected():
    F5 = make_field(5)
    with pytest.raises(ParseError):
        parse_poly("x + z", F5)


@pytest.mark.parametrize("src, message, offset, expected", [
    ("y^2 = x^² mod 5", "unknown word '²'", 8, ("x", "y", "mod")),  # a numeral, not a decimal digit
    ("y^2 = x^5 + xy mod 7", "unknown word 'xy'", 12, ("x", "y", "mod")),
    ("y^2 = x^3 modulo 7", "unknown word 'modulo'", 10, ("x", "y", "mod")),
    ("y^2 = x^5 - x mod 7 # note", "unexpected character '#'", 20, ()),
    ("y^2 = x_1 mod 7", "unexpected character '_'", 7, ()),
])
def test_tokenizer_errors_name_the_offset(src, message, offset, expected):
    with pytest.raises(ParseError) as ei:
        parse_curve(src)
    assert str(ei.value) == f"{message} at offset {offset}"
    assert (ei.value.offset, ei.value.expected) == (offset, expected)


def test_tokens_split_at_kind_changes():
    # "3x" and "mod5" need no space; unicode spaces and decimal digits count
    assert parse_curve("y^2=3x^5+2x mod5") == parse_curve("y ^ 2 = 3 * x ^ 5 + 2 * x mod 5")
    assert parse_curve("y^2\u00a0=\tx^٣ - x\nmod 5") == parse_curve("y^2 = x^3 - x mod 5")


def test_exponent_limit():
    F5 = make_field(5)
    with pytest.raises(ParseError):
        parse_poly("x^1000001", F5)


def test_empty_input():
    F5 = make_field(5)
    with pytest.raises(ParseError):
        parse_poly("   ", F5)


def test_whitespace_insensitive():
    F5 = make_field(5)
    assert parse_poly("x^5-x", F5) == parse_poly("  x ^ 5   -   x ", F5)


def test_leading_minus():
    F5 = make_field(5)
    assert parse_poly("-x + 1", F5) == Polynomial(F5, [1, 4])


def random_expression(rng, p):
    terms = []
    for _ in range(rng.randrange(1, 6)):
        coeff = rng.randrange(0, 3 * p)
        deg = rng.randrange(0, 9)
        star = "*" if rng.random() < 0.5 else ""
        if deg == 0:
            terms.append(str(coeff))
        elif deg == 1:
            terms.append(f"{coeff}{star}x")
        else:
            terms.append(f"{coeff}{star}x^{deg}")
    expr = terms[0]
    for t in terms[1:]:
        expr += (" - " if rng.random() < 0.5 else " + ") + t
    return expr


def test_render_round_trip_1000():
    rng = random.Random(12345)
    for _ in range(1000):
        p = rng.choice([3, 5, 7, 11])
        F = make_field(p)
        f = parse_poly(random_expression(rng, p), F)
        assert parse_poly(render_poly(f), F) == f


def test_render_zero():
    F5 = make_field(5)
    assert render_poly(Polynomial.zero(F5)) == "0"
    assert parse_poly("0", F5) == Polynomial.zero(F5)


# -- curves -------------------------------------------------------------------


def test_parse_bolza():
    X = parse_curve("y^2 = x^5 - x mod 5")
    assert X.kind == HYPERELLIPTIC and X.p == 5 and X.m == 2


def test_parse_quotient_family():
    X = parse_curve("y^6 = x^5 - x mod 5")
    assert X.kind == ASQ and X.m == 6


def test_parse_invalid_gcd():
    with pytest.raises(InvalidCurveError):
        parse_curve("y^3 = x^3 - x mod 3")


def test_parse_non_prime_modulus():
    with pytest.raises(ParseError):
        parse_curve("y^2 = x^5 - x mod 4")


def test_parse_curve_syntax_error():
    with pytest.raises(ParseError):
        parse_curve("y^2 = x^5 - x")  # missing mod clause
    with pytest.raises(ParseError):
        parse_curve("y = x mod 5")
