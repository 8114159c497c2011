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
    _BUILTINS,
    BUILTIN_NAMES,
    Builtin,
    Const,
    Env,
    FuncApp,
    Power,
    Product,
    Quotient,
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
from rsrforge.queries import input_vars
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
    with pytest.raises(DomainError):
        evaluate(parse("x^400"), Env({"x": 9.0}))  # float ** int overflows


@pytest.mark.parametrize(
    "run", [evaluate, lambda e, env: evaluate_hp(e, env, 128)], ids=["double", "hp"]
)
def test_function_symbol_errors_are_domain_errors(run):
    with pytest.raises(DomainError):
        run(parse("f(x)"), Env({"x": 1e9}, {"f": math.exp}))  # OverflowError
    with pytest.raises(DomainError):
        run(parse("f(x)"), Env({"x": -1.0}, {"f": math.log}))  # ValueError
    with pytest.raises(DomainError):
        run(parse("f(x)"), Env({"x": 0.0}, {"f": lambda t: 1 / t}))  # division by 0


def _walk(e, env):
    """The recursive IEEE-double walker that compiled evaluation replaced.

    Kept, with only its names changed, as the reference that ``evaluate``
    must match bit for bit; it let the OverflowError of a Power escape.
    """

    def fin(v):
        if not math.isfinite(v):
            raise DomainError("non-finite value in evaluation")
        return v

    if isinstance(e, Const):
        return e.value.num / e.value.den
    if isinstance(e, Var):
        if e.name not in env.bindings:
            raise UnboundSymbol(f"variable {e.name} not bound")
        return fin(float(env.bindings[e.name]))
    if isinstance(e, Sum):
        return fin(sum(_walk(t, env) for t in e.terms))
    if isinstance(e, Product):
        out = 1.0
        for f in e.factors:
            out *= _walk(f, env)
        return fin(out)
    if isinstance(e, Power):
        b = _walk(e.base, env)
        if b == 0.0 and e.exp < 0:
            raise DomainError("division by zero")
        return fin(b**e.exp)
    if isinstance(e, Quotient):
        den = _walk(e.den, env)
        if den == 0.0:
            raise DomainError("division by zero")
        return fin(_walk(e.num, env) / den)
    if isinstance(e, Builtin):
        impl = _BUILTINS.get(e.name)
        if impl is None:
            raise UnboundSymbol(f"unknown builtin {e.name}")
        args = [_walk(a, env) for a in e.args]
        try:
            return fin(impl[0](*args))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"{e.name}: {exc}") from None
    if isinstance(e, FuncApp):
        fn = env.funcs.get(e.name)
        if fn is None:
            raise UnboundSymbol(f"function symbol {e.name} not bound")
        args = [_walk(a, env) for a in e.args]
        try:
            return fin(float(fn(*args)))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"{e.name}: {exc}") from None
    raise TypeError(f"not an Expr: {e!r}")


def _matches_walker(e, env) -> bool:
    """True if evaluate(e, env) is the walker's value bit for bit (same
    type and repr, which tells -0.0 from 0.0), False if both reject it."""
    try:
        reference = _walk(e, env)
    except (DomainError, OverflowError):
        with pytest.raises(DomainError):
            evaluate(e, env)
        return False
    value = evaluate(e, env)
    assert (type(value), repr(value)) == (type(reference), repr(reference)), e
    return True


def test_evaluate_matches_walker_on_random_exprs(expr_rng):
    rng = random.Random(11)
    matched = 0
    for _ in range(400):
        e = random_expr(expr_rng)
        env = Env(
            {name: rng.uniform(-2, 2) for name in ("x", "r", "y")},
            {"f": math.tanh},
        )
        matched += _matches_walker(e, env)
        matched += _matches_walker(canonicalize(e), env)
    assert matched > 400


def test_evaluate_matches_walker_on_registry_closed_forms():
    rng = random.Random(5)
    matched = rejected = 0
    for entry in registry():
        names = input_vars(entry.arity)
        boxes = entry.oracle().coordinate_boxes()
        for scale in (1.0, 3.0):  # the box, then a wider one that leaves domains
            for _ in range(20):
                point = {
                    name: (lo + hi) / 2 + scale * (hi - lo) * (rng.random() - 0.5)
                    for name, (lo, hi) in zip(names, boxes)
                }
                if _matches_walker(entry.closed_form, Env(point)):
                    matched += 1
                else:
                    rejected += 1
    assert matched > 2000 and rejected > 0


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
