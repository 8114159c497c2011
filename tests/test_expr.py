import builtins
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from dataclasses import fields
from functools import lru_cache, partial
from pathlib import Path

import mpmath
import pytest

from rsrforge import expr
from rsrforge.bench import registry
from rsrforge.errors import DomainError, UnboundSymbol
from rsrforge.expr import (
    _BUILTINS,
    BUILTIN_ARITY,
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
    compile_double,
    compile_hp,
    evaluate,
    expr_key,
    free_vars,
    map_args,
    subst_func,
)
from rsrforge.parser import format_expr, parse
from rsrforge.queries import input_vars
from rsrforge.rational import Rational
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


def _rejected_by_block(e, env):
    """Raise DomainError if compile_double_block rejects env's one point."""
    slots = {Var(name): i for i, name in enumerate(env.bindings)}
    block = expr.compile_double_block([e], slots, env.funcs)
    hits, _rows = block([list(env.bindings.values())])
    if not hits:
        raise DomainError("point rejected")


@pytest.mark.parametrize("run", [evaluate, _rejected_by_block], ids=["double", "block"])
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


# mpmath's public function for each builtin; cbrt is the real cube root
_MPMATH = {
    **{
        name: getattr(mpmath, name)
        for name in (
            "sin", "cos", "tan", "cot", "sec", "csc", "sinh", "cosh", "tanh",
            "exp", "log", "sqrt", "floor", "ceil", "sign", "erf", "gamma",
        )
    },
    "cbrt": lambda a: mpmath.sign(a) * mpmath.cbrt(abs(a)),
    "abs": mpmath.fabs,
    "arctan": mpmath.atan,
    "arcsin": mpmath.asin,
    "arccos": mpmath.acos,
    "arcsinh": mpmath.asinh,
    "arccosh": mpmath.acosh,
    "arctanh": mpmath.atanh,
    "pow": mpmath.power,
    "mod": mpmath.fmod,
}


def _mp_builtin(name, args):
    """mpmath's value of the builtin at the working precision.

    DomainError where mpmath raises or returns a complex or non-finite
    value, and at the guarded points: 0 to a nonpositive power, and mod
    by zero, where mpmath returns a value.
    """
    if (name == "pow" and args[0] == 0 and args[1] <= 0) or (
        name == "mod" and args[1] == 0
    ):
        raise DomainError(f"{name} guard")
    try:
        v = _MPMATH[name](*args)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(repr(exc)) from None
    if not isinstance(v, mpmath.mpf) or not mpmath.isfinite(v):
        raise DomainError(f"{name}: {v}")
    return v


def _walk_hp(e, env):
    """A recursive walker over mpf operators and mpmath's functions: the
    reference for compile_hp.

    It must run inside ``mpmath.workprec(bits)``; every operator rounds to
    nearest at that precision, as ``compile_hp``'s programs must, bit for
    bit.  Like them, it knows no function symbols.
    """

    def fin(v):
        if not mpmath.isfinite(v):
            raise DomainError("non-finite value in evaluation")
        return v

    try:
        if isinstance(e, Const):
            return mpmath.mpf(e.value.num) / e.value.den
        if isinstance(e, Var):
            return fin(mpmath.mpf(float(env.bindings[e.name])))
        if isinstance(e, Sum):
            out = mpmath.mpf(0)
            for t in e.terms:
                out = out + _walk_hp(t, env)
            return fin(out)
        if isinstance(e, Product):
            out = mpmath.mpf(1)
            for f in e.factors:
                out = out * _walk_hp(f, env)
            return fin(out)
        if isinstance(e, Power):
            return fin(_walk_hp(e.base, env) ** e.exp)
        if isinstance(e, Builtin):
            return _mp_builtin(e.name, [_walk_hp(a, env) for a in e.args])
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(repr(exc)) from None
    raise TypeError(f"not an Expr: {e!r}")


def _hp_reference(e, env, bits):
    """The walker's raw mpf value of e at ``bits``, or None if it rejects e."""
    with mpmath.workprec(bits):
        try:
            return _walk_hp(e, env)._mpf_
        except DomainError:
            return None


def _hp_value(e, env, bits):
    """The mpf value of compile_hp's program for e over env's variables,
    run once at ``bits``."""
    slots = {Var(name): i for i, name in enumerate(env.bindings)}
    program = compile_hp(e, slots, bits)
    values = [mpmath.mpf(v)._mpf_ for v in env.bindings.values()]
    return mpmath.mp.make_mpf(program(*values))


def _matches_hp_walker(e, env, bits) -> bool:
    """True if compile_hp's program gives the walker's raw mpf value of e,
    False if both reject it."""
    reference = _hp_reference(e, env, bits)
    if reference is None:
        with pytest.raises(DomainError):
            _hp_value(e, env, bits)
        return False
    assert _hp_value(e, env, bits)._mpf_ == reference, (e, bits)
    return True


def _f_free(e):
    """e with each application of f replaced by the builtin tanh."""
    if isinstance(e, FuncApp):
        return Builtin("tanh", tuple(_f_free(a) for a in e.args))
    return map_args(e, _f_free)


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


@pytest.mark.parametrize("bits", [128, 256])
def test_compile_hp_matches_walker_on_random_exprs(expr_rng, bits):
    rng = random.Random(13)
    matched = 0
    for _ in range(150):
        e = _f_free(random_expr(expr_rng))
        env = Env({name: rng.uniform(-2, 2) for name in ("x", "r", "y")})
        matched += _matches_hp_walker(e, env, bits)
        matched += _matches_hp_walker(canonicalize(e), env, bits)
    assert matched > 150


@pytest.mark.parametrize("bits", [128, 256])
def test_compile_hp_matches_walker_on_registry_closed_forms(bits):
    rng = random.Random(7)
    matched = rejected = 0
    for entry in registry():
        names = input_vars(entry.arity)
        boxes = entry.oracle().coordinate_boxes()
        for scale in (1.0, 3.0):  # the box, then a wider one that leaves domains
            for _ in range(4):
                point = {
                    name: (lo + hi) / 2 + scale * (hi - lo) * (rng.random() - 0.5)
                    for name, (lo, hi) in zip(names, boxes)
                }
                if _matches_hp_walker(entry.closed_form, Env(point), bits):
                    matched += 1
                else:
                    rejected += 1
    assert matched > 400 and rejected > 0


# names that are Python source: quotes, a newline, an import with a side
# effect; executing any of them would set the sentinel attribute
_SENTINEL = "_rsrforge_exec_sentinel"
_HOSTILE_NAMES = (
    "x'); __import__('builtins')." + _SENTINEL + " = 1; ('",
    'y"\n__import__("builtins").' + _SENTINEL + " = 1\n",
    "__import__('os').environ.setdefault('" + _SENTINEL + "', '1')",
)


@pytest.mark.parametrize("backend", ["double", "hp"])
def test_no_expression_text_reaches_exec(monkeypatch, backend):
    sources = []
    factory = expr._program_factory

    def recording(source):
        sources.append(source)
        return factory(source)

    monkeypatch.setattr(expr, "_program_factory", recording)
    a, b, c = (Var(name) for name in _HOSTILE_NAMES)
    slots = {a: 0, b: 1}
    # 12345/8 and the exponent 12347 are constant text that must not appear
    scaled = Product((a, Const(Rational(12345, 8))))
    if backend == "double":
        # a function symbol's name reaches only the double backend
        compile_ = partial(compile_double, funcs={c.name: lambda t: 3.0 * t})
        convert, value = float, float
        scaled, want = FuncApp(c.name, (scaled,)), 3.0 * (0.5 * 12345 / 8) + 1.0
    else:
        compile_ = partial(compile_hp, precision_bits=128)
        convert = lambda v: mpmath.mpf(v)._mpf_  # noqa: E731
        value = lambda v: float(mpmath.mp.make_mpf(v))  # noqa: E731
        want = 0.5 * 12345 / 8 + 1.0
    program = compile_(Sum((scaled, Power(b, 12347))), slots)
    assert value(program(convert(0.5), convert(1.0))) == want
    for unbound in (
        Var(c.name),
        Builtin(a.name, (a,)),
        FuncApp(b.name, (a,)),
        FuncApp(c.name, (Var("x'\n"),)),
    ):
        with pytest.raises(UnboundSymbol):
            compile_(unbound, slots)
    assert not hasattr(builtins, _SENTINEL)
    assert _SENTINEL not in os.environ
    assert sources
    for source in sources:
        for text in _HOSTILE_NAMES + ("12345", "1543", "12347", "__import__"):
            assert text not in source


@pytest.mark.parametrize(
    "compile_", [compile_double, partial(compile_hp, precision_bits=128)]
)
def test_program_takes_one_value_per_slot(compile_):
    e, slots = parse("x + r"), {Var("x"): 0, Var("r"): 1}
    program = compile_(e, slots, {}) if compile_ is compile_double else compile_(e, slots)
    for values, message in (
        ([], "missing 2 required positional arguments"),
        ([mpmath.mpf(1)._mpf_] * 3, "takes 2 positional arguments but 3"),
    ):
        with pytest.raises(TypeError, match=message):
            program(*values)


def test_each_program_shape_has_its_own_file_name():
    # profilers key code by (file, line, name); one shared file name
    # would fold the programs of different shapes into one entry
    slots = {Var("x"): 0, Var("r"): 1}
    names = {
        compile_double(parse(text), slots, {}).__code__.co_filename
        for text in ("x + r", "x * r", "x + 2*r")
    }
    assert len(names) == 3
    again = compile_double(parse("r + x"), slots, {}).__code__.co_filename
    assert again in names


def test_program_cache_under_concurrent_threads(monkeypatch):
    """8 threads compile and run shared and per-thread expressions in both
    backends at once (at 128 bits with f as the builtin tanh); every value
    matches its walker bit for bit.  A cache of 16 factories makes the
    threads evict each other's entries."""
    cache = lru_cache(maxsize=16)(expr._program_factory.__wrapped__)
    monkeypatch.setattr(expr, "_program_factory", cache)
    bits = 128
    funcs = {"f": math.tanh}
    names = ("x", "r", "y")
    slots = {Var(name): i for i, name in enumerate(names)}
    point = dict(zip(names, (0.3, -1.1, 0.7)))
    env = Env(point, funcs)
    doubles = [float(v) for v in point.values()]
    raws = [mpmath.mpf(v)._mpf_ for v in point.values()]

    def cases(seed, count):
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            e = random_expr(rng)
            try:
                double = _walk(e, env)
            except (DomainError, OverflowError):
                double = None
            hp = _f_free(e)
            out.append((e, double, hp, _hp_reference(hp, env, bits)))
        return out

    shared = cases(0, 30)
    own = [cases(1 + t, 30) for t in range(8)]
    errors = []

    def check(e, double, hp, raw):
        try:
            got = compile_double(e, slots, funcs)(*doubles)
        except DomainError:
            got = None
        assert (type(got), repr(got)) == (type(double), repr(double)), e
        program = compile_hp(hp, slots, bits)
        assert cache.cache_info().currsize <= 16
        try:
            got = program(*raws)
        except DomainError:
            got = None
        assert got == raw, e

    def work(mine):
        try:
            for _ in range(3):
                for case in shared + mine:
                    check(*case)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(mine,)) for mine in own]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    info = cache.cache_info()
    assert info.currsize <= 16 < info.misses


def test_eval_hp_examples():
    v = _hp_value(parse("exp(1)"), Env({}), 200)
    assert abs(float(v) - math.exp(1)) < 1e-15
    v = _hp_value(parse("sin(x)^2 + cos(x)^2 - 1"), Env({"x": 0.7}), 200)
    assert abs(v) < 2**-180
    v = _hp_value(
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
    high = float(_hp_value(e, env, 128))
    assert math.isclose(double, high, rel_tol=1e-12), (double, high)


@pytest.mark.parametrize("name,args", _OUT_OF_DOMAIN)
def test_builtin_domain_guards(name, args):
    e, env = _builtin_at(name, args)
    with pytest.raises(DomainError):
        evaluate(e, env)
    with pytest.raises(DomainError):
        _hp_value(e, env, 128)


# 0, ±1, ±2, ±0.5, poles (0 for cot, csc and log, negative integers for
# gamma, ±1 for arctanh and arccosh, the double nearest π/2 for tan and
# sec) and integers for floor, ceil and gamma
_EDGES = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, -3.0, 10.0, -10.0, 2.5,
          math.pi / 2, -math.pi / 2, math.pi)


def _builtin_points(name):
    rng = random.Random(f"builtin points {name}")
    randoms = [rng.uniform(-w, w) for w in (1.2, 8.0) for _ in range(16)]
    if BUILTIN_ARITY[name] == 1:
        return [(a,) for a in _EDGES + tuple(randoms)]
    pairs = [(a, b) for a in _EDGES[:7] for b in _EDGES[:7]]
    return pairs + list(zip(randoms, reversed(randoms)))


@pytest.mark.parametrize("name", sorted(BUILTIN_NAMES))
def test_hp_builtin_matches_mpmath_bit_for_bit(name):
    """Each 256-bit builtin gives mpmath's public function's bits under
    workprec, at four precisions, and raises DomainError where mpmath
    fails or the builtin is guarded."""
    names = ("a", "b")[: BUILTIN_ARITY[name]]
    e = Builtin(name, tuple(Var(n) for n in names))
    points = _builtin_points(name)
    for bits in (64, 128, 256, 1000):
        program = compile_hp(e, {Var(n): i for i, n in enumerate(names)}, bits)
        matched = 0
        for args in points:
            with mpmath.workprec(bits):
                try:
                    want = _mp_builtin(name, [mpmath.mpf(a) for a in args])._mpf_
                except DomainError:
                    want = None
            raws = [mpmath.mpf(a)._mpf_ for a in args]
            if want is None:
                with pytest.raises(DomainError):
                    program(*raws)
            else:
                assert program(*raws) == want, (name, args, bits)
                matched += 1
        assert matched >= 10, (name, bits)


def test_hp_program_reads_no_global_precision(monkeypatch):
    """A program gives the same bits wherever it runs, those of the
    mpmath reference at its own precision, and takes _MP_LOCK once per
    call."""

    class RecordingLock:
        def __init__(self):
            self.lock = threading.Lock()
            self.taken = 0

        def __enter__(self):
            self.lock.acquire()
            self.taken += 1

        def __exit__(self, *exc):
            self.lock.release()

    recording = RecordingLock()
    monkeypatch.setattr(expr, "_MP_LOCK", recording)
    e = parse("sin(x)*exp(r) + cot(x) - log(r)^3/7 + gamma(x + r)")
    env = Env({"x": 0.7, "r": 1.3})
    want = _hp_reference(e, env, 256)
    program = compile_hp(e, {Var("x"): 0, Var("r"): 1}, 256)
    raws = [mpmath.mpf(v)._mpf_ for v in env.bindings.values()]
    assert program(*raws) == want
    for bits in (53, 1000):
        with mpmath.workprec(bits):
            assert program(*raws) == want
    assert recording.taken == 3
    assert not recording.lock.locked()


def test_eval_hp_precision_guard():
    with pytest.raises(ValueError):
        _hp_value(parse("x"), Env({"x": 1}), 32)
    with pytest.raises(DomainError):
        _hp_value(parse("log(x)"), Env({"x": -2}), 128)


def test_compile_hp_rejects_function_symbols():
    # the 256-bit programs bind no function symbol; one the caller holds
    # as a slot value is just an input
    slots = {Var("x"): 0}
    for text in ("f(x) + 1", "sin(f(x))", "x*g(x, x)"):
        with pytest.raises(UnboundSymbol, match="function symbol"):
            compile_hp(parse(text), slots, 256)
    atom = parse("f(x)")
    program = compile_hp(parse("2*f(x) + x"), {Var("x"): 0, atom: 1}, 256)
    got = program(mpmath.mpf(3)._mpf_, mpmath.mpf(5)._mpf_)
    assert got == mpmath.mpf(13)._mpf_


def test_substitution():
    e = subst_func(parse("f(x) + f(y) - f(x+y)"), "f", ("t",), parse("c*t"))
    assert e == parse("c*x + c*y - c*(x+y)") or e == canonicalize(
        parse("c*x + c*y - c*(x+y)")
    )
    assert free_vars(e) == {"x", "y", "c"}
