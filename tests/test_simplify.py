import random

from rsrforge.expr import Const, Env, canonicalize, evaluate_hp, free_vars, subst_func
from rsrforge.errors import DomainError
from rsrforge.parser import format_expr, parse
from rsrforge.polyratio import (
    expand_to_polynomial,
    identity_normal_form,
    rational_residual_zero,
)
from rsrforge.rational import Rational


def test_linearity_substitution_example():
    e = subst_func(parse("f(x) + f(y) - f(x+y)"), "f", ("t",), parse("c*t"))
    assert rational_residual_zero(e)


def test_commutativity():
    assert rational_residual_zero(parse("a*b - b*a"))


def test_square_substitution_nonzero():
    e = subst_func(parse("f(x+r) - f(x) - f(r)"), "f", ("t",), parse("t^2"))
    assert not rational_residual_zero(e)
    assert rational_residual_zero(e - parse("2*x*r"))


def test_quotient_identities():
    # (a/b) * (b/a) == 1 formally
    assert rational_residual_zero(parse("(a/b)*(b/a) - 1"))
    # difference of equal fractions
    assert rational_residual_zero(parse("a/(a+b) + b/(a+b) - 1"))


def test_opaque_transcendental_stays_nonzero():
    # exp(x+r) and exp(x)*exp(r) are distinct atoms here by design
    e = parse("exp(x+r) - exp(x)*exp(r)")
    assert not rational_residual_zero(e)


def test_soundness_against_high_precision():
    """Whenever simplification reports zero, high-precision evaluation
    at random in-domain points is tiny."""
    rng = random.Random(5)
    confirmed = 0
    for _ in range(300):
        base = random_expr_rational(rng)
        shuffled = canonicalize(base)
        residual = parse(f"({format_expr(base)}) - ({format_expr(shuffled)})")
        if not rational_residual_zero(residual):
            continue
        names = sorted(free_vars(residual))
        ok_points = 0
        attempts = 0
        while ok_points < 5 and attempts < 100:
            attempts += 1
            env = Env({n: rng.uniform(-3, 3) for n in names})
            try:
                v = evaluate_hp(residual, env, 160)
            except DomainError:
                continue
            assert abs(v) < 2**-80
            ok_points += 1
        confirmed += 1
    assert confirmed > 100


def random_expr_rational(rng):
    """Small random rational expressions over a, b, c."""
    leaves = [parse(v) for v in "abc"] + [
        Const(Rational(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(3)
    ]

    def build(depth):
        if depth == 0:
            return rng.choice(leaves)
        kind = rng.random()
        lhs, rhs = build(depth - 1), build(depth - 1)
        if kind < 0.45:
            return parse(f"({format_expr(lhs)}) + ({format_expr(rhs)})")
        if kind < 0.9:
            return parse(f"({format_expr(lhs)}) * ({format_expr(rhs)})")
        return parse(f"({format_expr(lhs)})^2")

    return build(rng.randint(1, 3))


def test_identity_normal_form_scaling():
    e1, s1 = identity_normal_form(parse("2*f(x+r) - 2*f(x) - 2*f(r)"))
    e2, s2 = identity_normal_form(parse("f(x+r) - f(x) - f(r)"))
    e3, _ = identity_normal_form(parse("-f(x+r) + f(x) + f(r)"))
    assert e1 == e2 == e3
    assert s1 == Rational(1, 2)
    assert s2 == Rational(1)


def test_identity_normal_form_clears_denominators():
    e, _ = identity_normal_form(parse("f(x+log(2)) - 2*f(x)/(1+f(x))"))
    poly, _atoms = expand_to_polynomial(e)
    assert all(c.den == 1 for c in poly.values())


def test_expand_to_polynomial_zero():
    poly, _ = expand_to_polynomial(parse("x*y - y*x"))
    assert poly == {}
