import pytest

from rsrforge.errors import ParseError, RSRError
from rsrforge.expr import canonicalize
from rsrforge.parser import format_expr, parse
from rsrforge.rational import Rational
from tests.conftest import random_expr


def test_simple_round_trips():
    for text in [
        "f(x+r) - f(x)*f(r)",
        "2*f(x)*f(x+r)*f(r) - f(x)*f(x+r)",
        "1/(1+exp(-x))",
        "x^2 - 3*x + 1/2",
        "f(x+r)*(f(r)-1)/(2*f(x+r)*f(r)-f(x+r)-f(r))",
        "-x^2",
        "sqrt(x^2 + r^2)",
        "pow(2, x)",
    ]:
        e = parse(text)
        assert parse(format_expr(e)) == e


def test_eq_wrapper():
    assert parse("Eq(f(x) + f(y) - f(x+y), 0)") == parse("f(x) + f(y) - f(x+y)")
    assert parse("Eq(x, y)") == parse("x - y")
    with pytest.raises(ParseError):
        parse("Eq(x)")


def test_unary_minus_binds_looser_than_power():
    assert parse("-x^2") == parse("-(x^2)")
    assert parse("-x^2") != parse("(-x)^2")


def test_decimal_literals_exact():
    assert parse("0.5") == parse("1/2")
    assert parse("3.25") == parse("13/4")
    assert parse("0.3333333").value == Rational(3333333, 10000000)


def test_negative_exponents():
    assert parse("x^-2") == parse("1/x^2")
    assert parse("x^(-2)") == parse("1/x^2")


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse("f(x,,y)")
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse("x +")
    with pytest.raises(ParseError):
        parse("x ^ y")  # exponents must be integer literals
    with pytest.raises(ParseError):
        parse("(x + y")
    with pytest.raises(ParseError):
        parse("x $ y")


def test_builtin_argument_count():
    assert parse("pow(x, 2)") == parse("pow(x,2)")
    for text in ("pow(x)", "mod(x, 2, 3)", "sin(x, r)"):
        with pytest.raises(ParseError):
            parse(text)


def test_whitespace_insensitive():
    assert parse(" f( x + r ) -f(x)* f(r) ") == parse("f(x+r)-f(x)*f(r)")


def test_degree3_monomial_parse():
    e = parse("2*f(x)*f(x+r)*f(r) - f(x)*f(x+r)")
    text = format_expr(e)
    assert parse(text) == e
    assert "f(r)" in text and "f(x)" in text


def test_random_round_trips(expr_rng):
    for _ in range(10_000):
        e = canonicalize(random_expr(expr_rng))
        assert parse(format_expr(e)) == e


@pytest.mark.parametrize(
    "text",
    ["3^100000", "7^30000000", "1" * 5000, "x^" + "1" * 5000, "0." + "1" * 5000],
    ids=["3^100000", "7^30000000", "long-integer", "long-exponent", "long-decimal"],
)
def test_huge_constants_raise_rsr_errors(text):
    with pytest.raises(RSRError):
        parse(text)


def test_long_decimal_reducing_into_range_parses():
    assert parse("0.5" + "0" * 50) == parse("1/2")
