import math
import os
import pickle
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from rsrforge.bench import registry
from rsrforge.errors import DomainError, UnboundSymbol
from rsrforge.expr import (
    BUILTIN_NAMES,
    Builtin,
    Const,
    Env,
    FuncApp,
    Power,
    Product,
    Sum,
    Var,
    canonicalize,
    children,
    evaluate,
    evaluate_hp,
    expr_key,
    free_vars,
    map_args,
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


def _unmarked(e):
    """A structurally equal copy of e that carries no cached facts."""
    return map_args(e, _unmarked)


def test_canonical_idempotence_random(expr_rng):
    # the unmarked copy takes the long path, which must agree with the mark
    for _ in range(1000):
        e = random_expr(expr_rng)
        c = canonicalize(e)
        assert canonicalize(_unmarked(c)) == c
        assert canonicalize(c) is c


def _subterms(e):
    yield e
    for c in children(e):
        yield from _subterms(c)


def _registry_ground_truths():
    return [gt for entry in registry() for gt in entry.ground_truth]


def _reference_key(e):
    """The total order's key, rebuilt in full at every call."""
    if isinstance(e, Const):
        return (0, e.value.num, e.value.den)
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, (Builtin, FuncApp)):
        rank = 2 if isinstance(e, Builtin) else 3
        return (rank, e.name, len(e.args)) + tuple(_reference_key(a) for a in e.args)
    if isinstance(e, Power):
        return (4, _reference_key(e.base), e.exp)
    if isinstance(e, Product):
        return (5, len(e.factors)) + tuple(_reference_key(f) for f in e.factors)
    return (6, len(e.terms)) + tuple(_reference_key(t) for t in e.terms)


def test_cached_facts_match_fresh_nodes():
    gts = _registry_ground_truths()
    assert len(gts) == 49
    nodes = [n for gt in gts for n in _subterms(gt)]
    for n in nodes:
        twin = _unmarked(n)
        assert hash(n) == hash(tuple(getattr(n, f.name) for f in fields(n)))
        assert hash(twin) == hash(n) and expr_key(twin) == expr_key(n)
        assert expr_key(n) == _reference_key(n)
        assert {twin: 1}[n] == 1 and {n: 1}[twin] == 1
    shuffled = nodes[:]
    random.Random(3).shuffle(shuffled)
    order = sorted(shuffled, key=expr_key)
    assert order == sorted(shuffled, key=_reference_key)
    assert [expr_key(n) for n in order] == sorted(map(_reference_key, nodes))


def test_canonical_mark():
    for gt in _registry_ground_truths():
        assert gt._canonical and canonicalize(gt) is gt
        twin = _unmarked(gt)
        assert not twin._canonical and canonicalize(twin) == gt
    # subst_func returns a marked node; nested substitutions come back marked too
    e = subst_func(parse("f(x+r) - f(x)*f(r)"), "f", ("x",), parse("exp(x)"))
    assert canonicalize(e) is e
    assert e == canonicalize(_unmarked(e))


_PICKLE_TEXT = "f(r + x)^2 - 2*sin(x)*f(r)/(1 + x^2) + 3/4"


def _run_python(code: str, hash_seed: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_pickled_nodes_carry_no_cached_facts():
    # str hashes differ between processes, so a hash cached in one must
    # not reach another through pickle
    blob = _run_python(
        "import pickle, sys\n"
        "from rsrforge.expr import expr_key\n"
        "from rsrforge.parser import parse\n"
        f"e = parse({_PICKLE_TEXT!r})\n"
        "hash(e); expr_key(e); {e: 1}\n"
        "sys.stdout.buffer.write(pickle.dumps(e))\n",
        hash_seed="1",
    )
    out = _run_python(
        "import pickle, sys\n"
        "from rsrforge.parser import parse\n"
        "e = pickle.loads(sys.stdin.buffer.read())\n"
        f"fresh = parse({_PICKLE_TEXT!r})\n"
        "assert e == fresh and hash(e) == hash(fresh)\n"
        "assert {fresh: 'found'}[e] == 'found' and {e: 'found'}[fresh] == 'found'\n"
        "print('ok')\n",
        hash_seed="2",
        stdin=blob,
    )
    assert out.strip() == b"ok"
    here = parse(_PICKLE_TEXT)
    hash(here)
    assert "_hash" not in pickle.loads(pickle.dumps(here)).__dict__


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
