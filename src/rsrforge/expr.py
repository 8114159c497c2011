"""Canonical expression trees over exact rationals.

Nodes are immutable; a fixed total order over nodes makes canonical forms
unique, so structural equality on canonicalized trees decides equality up
to associativity and commutativity.  Distributivity is deliberately not
applied here (that is the rational-simplifier's job).

Canonical form:
  * Sum/Product children are flattened, sorted under the total order, and
    like terms / like bases are folded with exact rational coefficients.
  * Power exponents are nonzero integers different from 1; constant bases
    are folded; integer powers distribute over products.
  * Quotient never survives canonicalization: a/b becomes a * b**-1.

Each node computes a fact about itself at most once and keeps it: its
hash (the same value as the dataclass hash of its field tuple) and its
``expr_key`` on first use, and a canonical mark that ``canonicalize``
sets on every node it returns.  ``canonicalize`` is idempotent, so it
returns a marked node as it is.  Hashes of strings differ between
processes, so none of these facts is pickled; an unpickled node works
them out again.

Elementary builtins live in one table, ``_BUILTINS``, which maps each name
to its double-precision and its mpmath implementation; ``BUILTIN_NAMES``
and ``BUILTIN_ARITY`` are derived from it.

One compiler with two number backends evaluates expressions: it turns an
expression into a straight-line program over a flat list of values, with
each constant rounded once and one instruction per distinct operation
node.  ``compile_double`` computes in IEEE doubles.  ``compile_hp``
computes on raw mpmath values; each instruction calls the
``mpmath.libmp`` function that the mpf operator calls (mpf_add, mpf_mul,
mpf_pow_int, mpf_div) at the same precision and round-to-nearest, so
every value is bit-identical to mpf arithmetic; the only operations left
out are the opening 0 + of a sum and 1 * of a product, which are exact.
``evaluate`` and ``evaluate_hp`` compile and run a program once; a
caller that evaluates one expression at many points compiles it once.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

import mpmath
from mpmath import libmp

from .errors import DomainError, UnboundSymbol
from .rational import ONE, ZERO, Rational

# --------------------------------------------------------------------------
# Node types
# --------------------------------------------------------------------------


_FACTS = ("_hash", "_key", "_canonical")


class Expr:
    """Base class; concrete nodes below."""

    __slots__ = ()
    # per-node facts, stored in the node's __dict__ on first use
    _hash = None
    _key = None
    _canonical = False

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in _FACTS}

    def __mul__(self, other: "Expr") -> "Expr":
        return canonicalize(Product((self, other)))

    def __add__(self, other: "Expr") -> "Expr":
        return canonicalize(Sum((self, other)))

    def __sub__(self, other: "Expr") -> "Expr":
        return canonicalize(Sum((self, Product((Const(Rational(-1)), other)))))

    def __neg__(self) -> "Expr":
        return canonicalize(Product((Const(Rational(-1)), self)))


def _node(cls):
    """A frozen dataclass node whose field-tuple hash is computed once."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = field_hash(self)
        return h

    cls.__hash__ = __hash__
    return cls


@_node
class Const(Expr):
    value: Rational

    def __repr__(self):
        return f"Const({self.value})"


@_node
class Var(Expr):
    name: str

    def __repr__(self):
        return f"Var({self.name})"


@_node
class FuncApp(Expr):
    """Application of an uninterpreted function symbol (the oracle f)."""

    name: str
    args: tuple

    def __repr__(self):
        return f"{self.name}({', '.join(map(repr, self.args))})"


@_node
class Builtin(Expr):
    """Application of a known elementary function."""

    name: str
    args: tuple

    def __repr__(self):
        return f"{self.name}({', '.join(map(repr, self.args))})"


@_node
class Sum(Expr):
    terms: tuple

    def __repr__(self):
        return f"Sum{self.terms}"


@_node
class Product(Expr):
    factors: tuple

    def __repr__(self):
        return f"Product{self.factors}"


@_node
class Power(Expr):
    base: Expr
    exp: int

    def __repr__(self):
        return f"Power({self.base!r}, {self.exp})"


@_node
class Quotient(Expr):
    """Constructor-level division; canonicalize rewrites it as num * den**-1."""

    num: Expr
    den: Expr

    def __repr__(self):
        return f"Quotient({self.num!r}, {self.den!r})"


# --------------------------------------------------------------------------
# Total order
# --------------------------------------------------------------------------

def expr_key(e: Expr):
    """Sort key realizing the fixed total order (kind rank, names, children).

    Keys always start with the integer rank, so nested tuples never meet
    mismatched types during comparison.  Each node builds its key once.
    """
    key = getattr(e, "_key", None)
    if key is None:
        key = e.__dict__["_key"] = _build_key(e)
    return key


def _build_key(e: Expr):
    if isinstance(e, Const):
        return (0, e.value.num, e.value.den)
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, Builtin):
        return (2, e.name, len(e.args)) + tuple(expr_key(a) for a in e.args)
    if isinstance(e, FuncApp):
        return (3, e.name, len(e.args)) + tuple(expr_key(a) for a in e.args)
    if isinstance(e, Power):
        return (4, expr_key(e.base), e.exp)
    if isinstance(e, Product):
        return (5, len(e.factors)) + tuple(expr_key(f) for f in e.factors)
    if isinstance(e, Sum):
        return (6, len(e.terms)) + tuple(expr_key(t) for t in e.terms)
    raise TypeError(f"not an Expr: {e!r}")


# --------------------------------------------------------------------------
# Canonicalization
# --------------------------------------------------------------------------


def canonicalize(e: Expr) -> Expr:
    """Idempotent normal form; AC-equal inputs map to identical outputs.

    The node returned carries the canonical mark; a marked input is
    returned as it is, which idempotence makes exact.
    """
    if getattr(e, "_canonical", False):
        return e
    out = _canonical_form(e)
    out.__dict__["_canonical"] = True
    return out


def _canonical_form(e: Expr) -> Expr:
    if isinstance(e, (Const, Var, Builtin, FuncApp)):
        return map_args(e, canonicalize)
    if isinstance(e, Quotient):
        return _mul_canonical(
            [canonicalize(e.num), _pow_canonical(canonicalize(e.den), -1)]
        )
    if isinstance(e, Power):
        return _pow_canonical(canonicalize(e.base), e.exp)
    if isinstance(e, Product):
        return _mul_canonical([canonicalize(f) for f in e.factors])
    if isinstance(e, Sum):
        return _add_canonical([canonicalize(t) for t in e.terms])
    raise TypeError(f"not an Expr: {e!r}")


def _pow_canonical(base: Expr, k: int) -> Expr:
    if not isinstance(k, int):
        raise TypeError("Power exponent must be an integer")
    if k == 0:
        return Const(ONE)
    if k == 1:
        return base
    if isinstance(base, Const):
        if base.value.is_zero and k < 0:
            raise DomainError("zero raised to a negative power in constant folding")
        return Const(base.value**k)
    if isinstance(base, Power):
        return _pow_canonical(base.base, base.exp * k)
    if isinstance(base, Product):
        return _mul_canonical([_pow_canonical(f, k) for f in base.factors])
    return Power(base, k)


def _mul_canonical(factors: list) -> Expr:
    coef = ONE
    powers: dict = {}
    order: list = []

    def absorb(f: Expr):
        nonlocal coef
        if isinstance(f, Const):
            coef = coef * f.value
        elif isinstance(f, Product):
            for g in f.factors:
                absorb(g)
        elif isinstance(f, Power) and isinstance(f.base, Const):
            coef = coef * (f.base.value**f.exp)
        elif isinstance(f, Power):
            _bump(f.base, f.exp)
        else:
            _bump(f, 1)

    def _bump(base: Expr, k: int):
        if base not in powers:
            powers[base] = 0
            order.append(base)
        powers[base] += k

    for f in factors:
        absorb(f)

    if coef.is_zero:
        return Const(ZERO)

    parts = []
    for base in sorted(order, key=expr_key):
        k = powers[base]
        if k == 0:
            continue
        parts.append(base if k == 1 else Power(base, k))

    if not parts:
        return Const(coef)
    if coef == ONE:
        return parts[0] if len(parts) == 1 else Product(tuple(parts))
    return Product((Const(coef),) + tuple(parts))


def split_coefficient(e: Expr) -> tuple:
    """Split a canonical term into (rational coefficient, core or None)."""
    if isinstance(e, Const):
        return e.value, None
    if isinstance(e, Product) and isinstance(e.factors[0], Const):
        rest = e.factors[1:]
        core = rest[0] if len(rest) == 1 else Product(rest)
        return e.factors[0].value, core
    return ONE, e


def _with_coefficient(coef: Rational, core: Expr) -> Expr:
    if coef == ONE:
        return core
    if isinstance(core, Product):
        return Product((Const(coef),) + core.factors)
    return Product((Const(coef), core))


def _add_canonical(terms: list) -> Expr:
    const_part = ZERO
    coeffs: dict = {}
    order: list = []

    def absorb(t: Expr):
        nonlocal const_part
        if isinstance(t, Sum):
            for u in t.terms:
                absorb(u)
            return
        coef, core = split_coefficient(t)
        if core is None:
            const_part = const_part + coef
            return
        if core not in coeffs:
            coeffs[core] = ZERO
            order.append(core)
        coeffs[core] = coeffs[core] + coef

    for t in terms:
        absorb(t)

    parts = []
    if not const_part.is_zero:
        parts.append(Const(const_part))
    for core in sorted(order, key=expr_key):
        coef = coeffs[core]
        if coef.is_zero:
            continue
        parts.append(_with_coefficient(coef, core))

    if not parts:
        return Const(ZERO)
    if len(parts) == 1:
        return parts[0]
    parts.sort(key=expr_key)
    return Sum(tuple(parts))


# --------------------------------------------------------------------------
# Structure queries and substitution
# --------------------------------------------------------------------------


def children(e: Expr) -> tuple:
    if isinstance(e, (Const, Var)):
        return ()
    if isinstance(e, (Builtin, FuncApp)):
        return e.args
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Power):
        return (e.base,)
    if isinstance(e, Quotient):
        return (e.num, e.den)
    raise TypeError(f"not an Expr: {e!r}")


def map_args(e: Expr, fn: Callable) -> Expr:
    """e rebuilt over fn(child) for each child; leaves come back as they are."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, (Builtin, FuncApp)):
        return type(e)(e.name, tuple(fn(a) for a in e.args))
    if isinstance(e, Sum):
        return Sum(tuple(fn(t) for t in e.terms))
    if isinstance(e, Product):
        return Product(tuple(fn(f) for f in e.factors))
    if isinstance(e, Power):
        return Power(fn(e.base), e.exp)
    if isinstance(e, Quotient):
        return Quotient(fn(e.num), fn(e.den))
    raise TypeError(f"not an Expr: {e!r}")


def free_vars(e: Expr) -> set:
    if isinstance(e, Var):
        return {e.name}
    out: set = set()
    for c in children(e):
        out |= free_vars(c)
    return out


def subst_vars(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions; result is canonicalized."""

    def walk(n: Expr) -> Expr:
        if isinstance(n, Var):
            return mapping.get(n.name, n)
        return map_args(n, walk)

    return canonicalize(walk(e))


def subst_func(e: Expr, fname: str, params: tuple, body: Expr) -> Expr:
    """Replace every application fname(a1..an) by body[params := args]."""

    def walk(n: Expr) -> Expr:
        if isinstance(n, FuncApp) and n.name == fname:
            if len(n.args) != len(params):
                raise DomainError(
                    f"{fname} applied to {len(n.args)} args, closed form has "
                    f"{len(params)} parameters"
                )
            args = tuple(walk(a) for a in n.args)
            return subst_vars(body, dict(zip(params, args)))
        return map_args(n, walk)

    return canonicalize(walk(e))


# --------------------------------------------------------------------------
# Evaluation environment
# --------------------------------------------------------------------------


@dataclass
class Env:
    """Bindings for free variables and uninterpreted function symbols."""

    bindings: Mapping[str, float]
    funcs: Mapping[str, Callable] = field(default_factory=dict)


# --------------------------------------------------------------------------
# Elementary builtins: name -> (double implementation, mpmath implementation)
# --------------------------------------------------------------------------


def _d_cot(x):
    s = math.sin(x)
    if s == 0.0:
        raise DomainError("cot pole")
    return math.cos(x) / s


def _d_sec(x):
    c = math.cos(x)
    if c == 0.0:
        raise DomainError("sec pole")
    return 1.0 / c


def _d_csc(x):
    s = math.sin(x)
    if s == 0.0:
        raise DomainError("csc pole")
    return 1.0 / s


def _d_log(x):
    if x <= 0.0:
        raise DomainError("log of nonpositive value")
    return math.log(x)


def _d_sqrt(x):
    if x < 0.0:
        raise DomainError("square root of negative value")
    return math.sqrt(x)


def _d_cbrt(x):
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _d_pow(x, y):
    if x == 0.0 and y <= 0.0:
        raise DomainError("zero base with nonpositive exponent")
    if x < 0.0 and y != math.floor(y):
        raise DomainError("negative base with non-integer exponent")
    return x**y


def _d_mod(x, y):
    if y == 0.0:
        raise DomainError("mod by zero")
    return math.fmod(x, y)


def _guard(fn: Callable, bad: Callable, message: str) -> Callable:
    """fn, raising DomainError(message) wherever bad(*args) holds."""

    def guarded(*args):
        if bad(*args):
            raise DomainError(message)
        return fn(*args)

    return guarded


def _mp_pow(a, b):
    if a == 0 and b <= 0:
        raise DomainError("zero base with nonpositive exponent")
    if a < 0 and b != mpmath.floor(b):
        raise DomainError("negative base with non-integer exponent")
    return mpmath.power(a, b)


_BUILTINS = {
    "sin": (math.sin, mpmath.sin),
    "cos": (math.cos, mpmath.cos),
    "tan": (math.tan, mpmath.tan),
    "cot": (_d_cot, mpmath.cot),
    "sec": (_d_sec, mpmath.sec),
    "csc": (_d_csc, mpmath.csc),
    "sinh": (math.sinh, mpmath.sinh),
    "cosh": (math.cosh, mpmath.cosh),
    "tanh": (math.tanh, mpmath.tanh),
    "exp": (math.exp, mpmath.exp),
    "log": (_d_log, _guard(mpmath.log, lambda a: a <= 0, "log of nonpositive value")),
    "sqrt": (
        _d_sqrt, _guard(mpmath.sqrt, lambda a: a < 0, "square root of negative value")
    ),
    "cbrt": (_d_cbrt, lambda a: mpmath.sign(a) * mpmath.cbrt(abs(a))),
    "abs": (abs, abs),
    "floor": (math.floor, mpmath.floor),
    "ceil": (math.ceil, mpmath.ceil),
    "sign": (lambda x: float((x > 0) - (x < 0)), mpmath.sign),
    "erf": (math.erf, mpmath.erf),
    "gamma": (
        math.gamma,
        _guard(mpmath.gamma, lambda a: a <= 0 and a == mpmath.floor(a), "gamma pole"),
    ),
    "arctan": (math.atan, mpmath.atan),
    "arcsin": (math.asin, _guard(mpmath.asin, lambda a: abs(a) > 1, "arcsin domain")),
    "arccos": (math.acos, _guard(mpmath.acos, lambda a: abs(a) > 1, "arccos domain")),
    "arcsinh": (math.asinh, mpmath.asinh),
    "arccosh": (math.acosh, _guard(mpmath.acosh, lambda a: a < 1, "arccosh domain")),
    "arctanh": (
        math.atanh, _guard(mpmath.atanh, lambda a: abs(a) >= 1, "arctanh domain")
    ),
    "pow": (_d_pow, _mp_pow),
    "mod": (_d_mod, _guard(mpmath.fmod, lambda a, b: b == 0, "mod by zero")),
}

BUILTIN_NAMES = frozenset(_BUILTINS)
BUILTIN_ARITY = {name: 2 if name in ("pow", "mod") else 1 for name in _BUILTINS}


# --------------------------------------------------------------------------
# Compiled evaluation: one instruction builder, two number backends
# --------------------------------------------------------------------------

# mpmath documents its elementary and special functions as accurate to
# within a couple of ulp of the working precision, which satisfies the
# 2-ulp contract here.  The global mpmath context is guarded by a lock so
# verification may run from multiple threads.
_MP_LOCK = threading.Lock()
HP_MIN_BITS, HP_MAX_BITS = 64, 4096
_RND = libmp.round_nearest  # the rounding mode of mpmath's mpf operators
_make_mpf = mpmath.mp.make_mpf
# each backend's infinities; NaN is the value that differs from itself
_DOUBLE_NONFINITE = (math.inf, -math.inf)
_HP_NONFINITE = (libmp.finf, libmp.fninf, libmp.fnan)


def _compile(e: Expr, slots: Mapping[Expr, int], funcs, const, step, nonfinite):
    """Compile e into a straight-line program; the backend supplies the numbers.

    ``slots`` maps every variable of e, and any atom whose value the
    caller already holds, to a position 0..len(slots)-1 in the list of
    values the program is called with.  ``const(rational)`` rounds each
    Const once, and ``step(n, pos, funcs)`` is the instruction computing
    operation node n from its operands' positions.  The program raises
    DomainError for a non-finite slot or computed value, and for a
    ValueError, OverflowError or ZeroDivisionError inside an instruction.
    Unbound variables, function symbols and unknown builtins raise
    UnboundSymbol here, not when the program runs.
    """
    consts: dict = {}  # Const node -> its value, rounded once
    order: list = []  # operation nodes, operands first, each node once
    placed = set(slots)

    def visit(n: Expr):
        if n in placed:
            return
        placed.add(n)
        if isinstance(n, Const):
            consts[n] = const(n.value)
            return
        if isinstance(n, Var):
            raise UnboundSymbol(f"variable {n.name} not bound")
        if isinstance(n, Builtin) and n.name not in _BUILTINS:
            raise UnboundSymbol(f"unknown builtin {n.name}")
        if isinstance(n, FuncApp) and n.name not in funcs:
            raise UnboundSymbol(f"function symbol {n.name} not bound")
        for c in (n.den, n.num) if isinstance(n, Quotient) else children(n):
            visit(c)
        order.append(n)

    visit(e)
    pos = dict(slots)
    for n in consts:
        pos[n] = len(pos)
    init = list(consts.values())
    steps = []
    for n in order:
        steps.append(step(n, pos, funcs))
        pos[n] = len(pos)
    out, width = pos[e], len(slots)

    def program(values: list):
        if len(values) != width:
            raise TypeError(f"program takes {width} slot values, got {len(values)}")
        for t in values:
            if t in nonfinite or t != t:
                raise DomainError("non-finite input value")
        v = values + init
        first = len(v)
        try:
            for instruction in steps:
                t = instruction(v)
                if t in nonfinite or t != t:
                    raise DomainError("non-finite value in evaluation")
                v.append(t)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            n = order[len(v) - first]
            label = getattr(n, "name", type(n).__name__)
            raise DomainError(f"{label}: {exc!r}") from None
        return v[out]

    return program


def _double_step(n: Expr, pos: Mapping[Expr, int], funcs) -> Callable:
    """One IEEE-double instruction: the Python operation n denotes."""
    if isinstance(n, (Sum, Product)):
        idx = [pos[c] for c in children(n)]
        if isinstance(n, Sum):
            return lambda v: sum(map(v.__getitem__, idx))
        return lambda v: math.prod(map(v.__getitem__, idx), start=1.0)
    if isinstance(n, Power):
        b, k = pos[n.base], n.exp
        return lambda v: v[b] ** k
    if isinstance(n, Quotient):
        num, den = pos[n.num], pos[n.den]
        return lambda v: v[num] / v[den]
    idx = [pos[a] for a in n.args]
    if isinstance(n, Builtin):
        impl = _BUILTINS[n.name][0]  # floor and ceil return ints, kept as they are
        return lambda v: impl(*[v[i] for i in idx])
    fn = funcs[n.name]
    return lambda v: float(fn(*[v[i] for i in idx]))


def compile_double(
    e: Expr, slots: Mapping[Expr, int], funcs: Mapping[str, Callable]
) -> Callable:
    """Compile e into a straight-line program over floats, one per slot.

    Each instruction does the Python operation its node denotes: a Sum
    is the built-in ``sum`` of its terms in order, a Product folds from
    1.0, a Power is ``b ** k``, a Const is num / den, and a function
    symbol's result is passed through ``float``.
    """
    return _compile(
        e, slots, funcs, lambda q: q.num / q.den, _double_step, _DOUBLE_NONFINITE
    )


def evaluate(e: Expr, env: Env) -> float:
    """IEEE-double value of e, from one compiled run; never NaN or Inf."""
    slots = {Var(name): i for i, name in enumerate(env.bindings)}
    program = compile_double(e, slots, env.funcs)
    return program([float(v) for v in env.bindings.values()])


@contextmanager
def hp_precision(precision_bits: int):
    """Hold the mpmath context at ``precision_bits`` for this thread."""
    with _MP_LOCK, mpmath.workprec(precision_bits):
        yield


def _mp_real(v) -> tuple:
    if isinstance(v, mpmath.mpc):
        if v.imag != 0:
            raise DomainError("complex value in high-precision evaluation")
        v = v.real
    return v._mpf_


def _hp_step(n: Expr, pos: Mapping[Expr, int], funcs, *, prec: int) -> Callable:
    """One instruction at ``prec`` bits: n's raw mpf value from its operands."""
    if isinstance(n, (Sum, Product)):
        # mpf(0) + t and mpf(1) * t are exact, so the fold starts at t
        idx = [pos[c] for c in children(n)]
        if not idx:
            empty = libmp.fzero if isinstance(n, Sum) else libmp.fone
            return lambda v: empty
        op = libmp.mpf_add if isinstance(n, Sum) else libmp.mpf_mul
        first, rest = idx[0], idx[1:]

        def fold(v):
            acc = v[first]
            for i in rest:
                acc = op(acc, v[i], prec, _RND)
            return acc

        return fold
    if isinstance(n, Power):
        b, k = pos[n.base], n.exp
        return lambda v: libmp.mpf_pow_int(v[b], k, prec, _RND)
    if isinstance(n, Quotient):
        num, den = pos[n.num], pos[n.den]
        return lambda v: libmp.mpf_div(v[num], v[den], prec, _RND)
    idx = [pos[a] for a in n.args]
    if isinstance(n, Builtin):
        impl = _BUILTINS[n.name][1]
        return lambda v: _mp_real(impl(*[_make_mpf(v[i]) for i in idx]))
    fn = funcs[n.name]
    return lambda v: mpmath.mpf(fn(*[libmp.to_float(v[i], rnd=_RND) for i in idx]))._mpf_


def compile_hp(
    e: Expr,
    slots: Mapping[Expr, int],
    funcs: Mapping[str, Callable],
    precision_bits: int,
) -> Callable:
    """Compile e into a straight-line program at ``precision_bits``.

    The program takes one raw mpf value (an ``mpf._mpf_`` tuple) per
    slot (see ``_compile``) and returns e's value as a raw mpf, rounded
    exactly as the mpf operators round it; it must run inside
    ``hp_precision(precision_bits)``, because builtins read the global
    context.  Each Const is rounded once, as mpf(num) / den.
    """
    if not HP_MIN_BITS <= precision_bits <= HP_MAX_BITS:
        raise ValueError(
            f"precision_bits must lie in [{HP_MIN_BITS}, {HP_MAX_BITS}]"
        )
    prec = precision_bits

    def const(value: Rational) -> tuple:
        num = libmp.mpf_pos(libmp.from_int(value.num), prec, _RND)
        return libmp.mpf_div(num, libmp.from_int(value.den), prec, _RND)

    step = partial(_hp_step, prec=prec)
    return _compile(e, slots, funcs, const, step, _HP_NONFINITE)


def evaluate_hp(e: Expr, env: Env, precision_bits: int = 256):
    """Evaluate at the requested binary precision (64 <= bits <= 4096).

    Compiles e and runs the program once; returns an mpmath float
    carrying the working precision.
    """
    slots = {Var(name): i for i, name in enumerate(env.bindings)}
    program = compile_hp(e, slots, env.funcs, precision_bits)
    with hp_precision(precision_bits):
        values = [mpmath.mpf(v)._mpf_ for v in env.bindings.values()]
        return _make_mpf(program(values))
