import math
import random

import pytest

from rsrforge.errors import DomainError, UnboundSymbol
from rsrforge.expr import (
    BUILTIN_NAMES,
    Builtin,
    Env,
    Var,
    canonicalize,
    evaluate,
    evaluate_hp,
    free_vars,
    subst_func,
)
from rsrforge.parser import format_expr, parse
from tests.conftest import random_expr


def test_ac_normalization():
    assert parse("(x + r) + x") == parse("2*x + r")
    assert parse("f(x)*1") == parse("f(x)")
    assert parse("x*r") == parse("r*x")
    assert parse("x + r - r") == parse("x")
    assert parse("(a*b)*c") == parse("a*(c*b)")


def test_constant_folding():
    assert parse("2*3") == parse("6")
    assert parse("2^(-1)") == parse("1/2")
    assert parse("x - x") == parse("0")
    assert parse("(x*2)^2") == parse("4*x^2")


def test_power_rules():
    assert parse("x^1") == parse("x")
    assert parse("(x^2)^3") == parse("x^6")
    assert parse("(x*y)^2") == parse("x^2*y^2")
    # sums under powers are not expanded
    e = parse("(x+y)^2")
    assert format_expr(e) == "(x + y)^2"


def test_canonical_idempotence_random(expr_rng):
    for _ in range(1000):
        e = random_expr(expr_rng)
        c = canonicalize(e)
        assert canonicalize(c) == c


def test_ac_equality_of_shuffles(expr_rng):
    rng = random.Random(7)
    for _ in range(200):
        parts = [random_expr(expr_rng, 2) for _ in range(3)]
        shuffled = parts[:]
        rng.shuffle(shuffled)
        from rsrforge.expr import Product, Sum

        assert canonicalize(Sum(tuple(parts))) == canonicalize(Sum(tuple(shuffled)))
        assert canonicalize(Product(tuple(parts))) == canonicalize(
            Product(tuple(shuffled))
        )


def test_eval_examples():
    assert evaluate(parse("x + r"), Env({"x": 2, "r": 3})) == 5
    v = evaluate(parse("f(x+r)"), Env({"x": 1, "r": 0}, {"f": math.exp}))
    assert abs(v - math.e) < 1e-12
    assert evaluate(parse("1/(1+exp(-x))"), Env({"x": 0})) == 0.5


def test_eval_matches_canonical(expr_rng):
    rng = random.Random(3)
    checked = 0
    for _ in range(400):
        e = random_expr(expr_rng)
        env = Env(
            {name: rng.uniform(-2, 2) for name in ("x", "r", "y")},
            {"f": math.tanh},
        )
        try:
            a = evaluate(e, env)
        except DomainError:
            continue
        b = evaluate(canonicalize(e), env)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)
        checked += 1
    assert checked > 200


def test_eval_errors():
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), Env({"x": -1}))
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), Env({"x": 0}))
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), Env({"x": -4}))
    with pytest.raises(UnboundSymbol):
        evaluate(parse("x + z"), Env({"x": 1}))
    with pytest.raises(UnboundSymbol):
        evaluate(parse("g(x)"), Env({"x": 1}))
    with pytest.raises(DomainError):
        evaluate(parse("exp(x)"), Env({"x": 1e9}))  # overflow, not inf


def test_eval_hp_examples():
    v = evaluate_hp(parse("exp(1)"), Env({}), 200)
    assert abs(float(v) - math.exp(1)) < 1e-15
    v = evaluate_hp(parse("sin(x)^2 + cos(x)^2 - 1"), Env({"x": 0.7}), 200)
    assert abs(v) < 2**-180
    v = evaluate_hp(
        parse("log(x*r) - log(x) - log(r)"), Env({"x": 3.1, "r": 0.4}), 200
    )
    assert abs(v) < 2**-180


# arguments inside each builtin's domain (default: 0.3) ...
_IN_DOMAIN = {"arccosh": (1.7,), "pow": (1.7, 0.3), "mod": (1.7, 0.3)}
# ... and outside it, for every builtin whose domain is guarded
_OUT_OF_DOMAIN = [
    ("cot", (0.0,)),
    ("csc", (0.0,)),
    ("log", (-1.0,)),
    ("sqrt", (-4.0,)),
    ("gamma", (-2.0,)),
    ("arcsin", (2.0,)),
    ("arccos", (-2.0,)),
    ("arccosh", (0.5,)),
    ("arctanh", (1.0,)),
    ("pow", (0.0, -1.0)),
    ("pow", (-2.0, 0.5)),
    ("mod", (1.0, 0.0)),
]


def _builtin_at(name, args):
    names = ("a", "b")[: len(args)]
    return Builtin(name, tuple(Var(n) for n in names)), Env(dict(zip(names, args)))


@pytest.mark.parametrize("name", sorted(BUILTIN_NAMES))
def test_builtin_backends_agree(name):
    e, env = _builtin_at(name, _IN_DOMAIN.get(name, (0.3,)))
    double = evaluate(e, env)
    high = float(evaluate_hp(e, env, 128))
    assert math.isclose(double, high, rel_tol=1e-12), (double, high)


@pytest.mark.parametrize("name,args", _OUT_OF_DOMAIN)
def test_builtin_domain_guards(name, args):
    e, env = _builtin_at(name, args)
    with pytest.raises(DomainError):
        evaluate(e, env)
    with pytest.raises(DomainError):
        evaluate_hp(e, env, 128)


def test_eval_hp_precision_guard():
    with pytest.raises(ValueError):
        evaluate_hp(parse("x"), Env({"x": 1}), 32)
    with pytest.raises(DomainError):
        evaluate_hp(parse("log(x)"), Env({"x": -2}), 128)


def test_substitution():
    e = subst_func(parse("f(x) + f(y) - f(x+y)"), "f", ("t",), parse("c*t"))
    assert e == parse("c*x + c*y - c*(x+y)") or e == canonicalize(
        parse("c*x + c*y - c*(x+y)")
    )
    assert free_vars(e) == {"x", "y", "c"}
