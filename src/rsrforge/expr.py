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
  * Division is a negative power from the parser on: a/b is a * b**-1.

Each node computes a fact about itself at most once and keeps it: its
hash (the same value as the dataclass hash of its field tuple), its
``expr_key`` and its ``parser.format_expr`` text on first use, and a
canonical mark that ``canonicalize`` sets on every node it returns.
``canonicalize`` is idempotent, so it returns a marked node as it is.
Hashes of strings differ between processes, so none of these facts is
pickled; an unpickled node works them out again.

Elementary builtins live in one table, ``_BUILTINS``, which maps each name
to its double-precision implementation and its 256-bit one, the
``mpmath.libmp`` function that takes the precision and rounding as
arguments; ``BUILTIN_NAMES`` and ``BUILTIN_ARITY`` are derived from it.

One compiler with two number backends evaluates expressions: it
generates the Python source of one straight-line function per
expression, with each constant rounded once and one assignment per
distinct operation node, and runs it through ``compile`` once per shape.
A program takes its slot values as positional arguments.  The source
holds only fixed per-kind templates and integer positions; constants,
exponents, builtins and function symbols are passed in as arguments, so
expression text never reaches ``exec``.
``compile_double`` computes in IEEE doubles with the same Python
operations a tree walk would do.  ``compile_double_block`` wraps the
same instructions for a list of atoms, each with its own operation
nodes, in one loop over a block of points that rejects a point at its
first domain error or non-finite value.  ``compile_hp`` computes on raw
mpmath values; each assignment calls the ``mpmath.libmp`` function that
the mpf operator or the mpmath function calls (mpf_add, mpf_mul,
mpf_pow_int, mpf_sin, ...) with the program's precision and
round-to-nearest as arguments, so every value is bit-identical to mpmath
at that working precision and no program reads the global mpmath
context; the only operations left out are the opening 0 + of a sum and
1 * of a product, which are exact.  The 256-bit verification
channel substitutes a closed form for f before it compiles, so a 256-bit
program binds no function symbol: an application of one is
UnboundSymbol at compile time.  ``evaluate`` compiles and runs a double
program once; a caller that evaluates one expression at many points
compiles it once.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping

from mpmath import libmp

from .errors import DomainError, UnboundSymbol
from .rational import ONE, ZERO, Rational

# --------------------------------------------------------------------------
# Node types
# --------------------------------------------------------------------------


_FACTS = ("_hash", "_key", "_canonical", "_text")


class Expr:
    """Base class; concrete nodes below."""

    __slots__ = ()
    # per-node facts, stored in the node's __dict__ on first use
    _hash = None
    _key = None
    _canonical = False
    _text = None

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in _FACTS}


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
    raise TypeError(f"not an Expr: {e!r}")


def atoms_of(e: Expr) -> list:
    """The variables and maximal applications (of a builtin or a function
    symbol) of e, each once, in depth-first walk order."""
    out: dict = {}

    def walk(n: Expr) -> None:
        if isinstance(n, (Var, FuncApp, Builtin)):
            out[n] = None
        else:
            for c in children(n):
                walk(c)

    walk(e)
    return list(out)


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
# Elementary builtins: name -> (double implementation, 256-bit implementation)
# --------------------------------------------------------------------------
#
# A 256-bit implementation is the mpmath.libmp function behind mpmath's
# function of that name, called with raw mpf operands and (prec, rnd).
# Off its domain each call raises ValueError (libmp's ComplexResult is
# one) or ZeroDivisionError, or returns a non-finite value, which a
# program turns into DomainError; pow and mod are guarded where libmp
# would return a value: 0^0, 0 to a negative power and mod by zero.


def _d_cbrt(x):
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _d_pow(x, y):
    if x == 0.0 and y <= 0.0:
        raise DomainError("zero base with nonpositive exponent")
    if x < 0.0 and y != math.floor(y):
        raise DomainError("negative base with non-integer exponent")
    return x**y


def _hp_reciprocal(fn: Callable) -> Callable:
    """1 / fn(a) rounded as mpmath's cot, sec and csc round it: at
    prec + 10 bits, then to prec."""

    def reciprocal(a, prec, rnd):
        wp = prec + 10
        inverse = libmp.mpf_div(libmp.fone, fn(a, wp, rnd), wp, rnd)
        return libmp.mpf_pos(inverse, prec, rnd)

    return reciprocal


def _hp_sign(a, prec, rnd):
    # like mpmath.sign, a itself for zero or NaN
    return (a, libmp.fone, libmp.fnone)[libmp.mpf_sign(a)]


def _hp_cbrt(a, prec, rnd):
    root = libmp.mpf_cbrt(libmp.mpf_abs(a, prec, rnd), prec, rnd)
    return libmp.mpf_mul(_hp_sign(a, prec, rnd), root, prec, rnd)


def _hp_pow(a, b, prec, rnd):
    # a negative base with a fractional exponent raises ComplexResult
    if a == libmp.fzero and libmp.mpf_le(b, libmp.fzero):
        raise DomainError("zero base with nonpositive exponent")
    return libmp.mpf_pow(a, b, prec, rnd)


def _hp_mod(a, b, prec, rnd):
    if b == libmp.fzero:
        raise DomainError("mod by zero")
    return libmp.mpf_mod(a, b, prec, rnd)


_BUILTINS = {
    "sin": (math.sin, libmp.mpf_sin),
    "cos": (math.cos, libmp.mpf_cos),
    "tan": (math.tan, libmp.mpf_tan),
    "cot": (lambda x: math.cos(x) / math.sin(x), _hp_reciprocal(libmp.mpf_tan)),
    "sec": (lambda x: 1.0 / math.cos(x), _hp_reciprocal(libmp.mpf_cos)),
    "csc": (lambda x: 1.0 / math.sin(x), _hp_reciprocal(libmp.mpf_sin)),
    "sinh": (math.sinh, libmp.mpf_sinh),
    "cosh": (math.cosh, libmp.mpf_cosh),
    "tanh": (math.tanh, libmp.mpf_tanh),
    "exp": (math.exp, libmp.mpf_exp),
    "log": (math.log, libmp.mpf_log),
    "sqrt": (math.sqrt, libmp.mpf_sqrt),
    "cbrt": (_d_cbrt, _hp_cbrt),
    "abs": (abs, libmp.mpf_abs),
    "floor": (math.floor, libmp.mpf_floor),
    "ceil": (math.ceil, libmp.mpf_ceil),
    "sign": (lambda x: float((x > 0) - (x < 0)), _hp_sign),
    "erf": (math.erf, libmp.mpf_erf),
    "gamma": (math.gamma, libmp.mpf_gamma),
    "arctan": (math.atan, libmp.mpf_atan),
    "arcsin": (math.asin, libmp.mpf_asin),
    "arccos": (math.acos, libmp.mpf_acos),
    "arcsinh": (math.asinh, libmp.mpf_asinh),
    "arccosh": (math.acosh, libmp.mpf_acosh),
    "arctanh": (math.atanh, libmp.mpf_atanh),
    "pow": (_d_pow, _hp_pow),
    "mod": (math.fmod, _hp_mod),
}

BUILTIN_NAMES = frozenset(_BUILTINS)
BUILTIN_ARITY = {name: 2 if name in ("pow", "mod") else 1 for name in _BUILTINS}


# --------------------------------------------------------------------------
# Compiled evaluation: one code generator, two number backends
# --------------------------------------------------------------------------

# mpmath documents its elementary and special functions as accurate to
# within a couple of ulp of the working precision, which satisfies the
# 2-ulp contract here.  Every 256-bit program holds this lock while it
# runs, so verification may run from multiple threads: libmp's module
# caches are not thread-safe.  constant_memo, say, writes memo_val before
# memo_prec, so a reader between the two writes gets the new value
# shifted by the old precision's offset.
_MP_LOCK = threading.Lock()
HP_MIN_BITS, HP_MAX_BITS = 64, 4096
_RND = libmp.round_nearest  # the rounding mode of mpmath's mpf operators
# each backend's infinities; NaN is the value that differs from itself
_DOUBLE_NONFINITE = (math.inf, -math.inf)
_HP_NONFINITE = (libmp.finf, libmp.fninf, libmp.fnan)
# generated factories kept, one per source text, 8–12 KiB each: a
# run_bench over the whole registry compiles 378 shapes at one seed and
# 490 over two, a 40 s verify-known or exact-poly perfbench run 117 or
# 55, each with over 99 % hits (blocks and programs together)
_PROGRAM_CACHE_SIZE = 1024


@dataclass(frozen=True)
class _Fold:
    """A left fold of ``step`` over a node's operands from the first one;
    ``empty`` is the value of a node with no operands."""

    empty: str
    step: str  # {acc} is the running value, {0} the next operand


@dataclass(frozen=True)
class _Backend:
    """What a number backend adds to the code generator.

    ``templates`` maps each operation node kind to the Python expression
    computing it: {0}, {1} are its operands, {args} is its operand list
    (each operand followed by ", "), and {op} is its bound value (the
    exponent, builtin or function), or a _Fold.  ``lib`` binds every
    other name the templates use.  ``coerce``, if set, is the expression
    a program applies to each of its slot values before checking them.
    """

    templates: Mapping[type, object]
    lib: Mapping[str, object]
    const: Callable  # Rational -> the rounded value of a Const
    nonfinite: tuple
    builtin_column: int  # which implementation of each _BUILTINS entry
    coerce: str = ""


_DOUBLE_TEMPLATES = {
    Sum: "sum(({args}))",
    Product: "prod(({args}), start=1.0)",
    Power: "{0} ** {op}",
    Builtin: "{op}({args})",  # floor and ceil return ints, kept as they are
    FuncApp: "float({op}({args}))",
}

# mpf(0) + t and mpf(1) * t are exact, so a fold starts at its first term
_HP_TEMPLATES = {
    Sum: _Fold("fzero", "add({acc}, {0}, prec, rnd)"),
    Product: _Fold("fone", "mul({acc}, {0}, prec, rnd)"),
    Power: "pow_int({0}, {op}, prec, rnd)",
    Builtin: "{op}({args}prec, rnd)",
}
_HP_LIB = {
    "add": libmp.mpf_add,
    "mul": libmp.mpf_mul,
    "pow_int": libmp.mpf_pow_int,
    "fzero": libmp.fzero,
    "fone": libmp.fone,
    "rnd": _RND,
}


@lru_cache(maxsize=_PROGRAM_CACHE_SIZE)
def _program_factory(source: str) -> Callable:
    """The ``factory`` function defined by source, compiled once per text.

    Each source gets its own file name, from a digest of its text, so a
    profiler that keys code by (file, line, name) keeps every program.
    """
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    namespace: dict = {}
    exec(compile(source, f"<rsrforge program {digest}>", "exec"), namespace)
    return namespace["factory"]


def _unpack(names: list, source: str) -> list:
    return [f"{', '.join(names)}, = {source}"] if names else []


def _indent(lines: list, depth: int = 1) -> list:
    return ["    " * depth + line for line in lines]


def _operations(e: Expr, slots: Mapping[Expr, int], funcs) -> list:
    """The Const and operation nodes of e outside ``slots``, operands
    first, each distinct node once.

    Unbound variables, function symbols and unknown builtins raise
    UnboundSymbol.
    """
    order: list = []
    placed = set(slots)

    def visit(n: Expr):
        if n in placed:
            return
        placed.add(n)
        if isinstance(n, Var):
            raise UnboundSymbol(f"variable {n.name} not bound")
        if isinstance(n, Builtin) and n.name not in _BUILTINS:
            raise UnboundSymbol(f"unknown builtin {n.name}")
        if isinstance(n, FuncApp) and n.name not in funcs:
            raise UnboundSymbol(f"function symbol {n.name} not bound")
        if not isinstance(n, Const):
            for c in children(n):
                visit(c)
        order.append(n)

    visit(e)
    return order


def _instructions(roots, slots, funcs, backend: _Backend, numbered: bool):
    """The one instruction builder: source lines computing every root.

    Slot i is the local v{i}.  Each Const is rounded once by the backend
    into c{k}, shared by all roots.  Each root computes its own operation
    nodes, operands first and each distinct node once, so a node two
    roots share is computed (and a function symbol called) once per
    root, in root order.  Instruction j assigns t{j} from the backend's
    template for its kind and checks that it is finite; with
    ``numbered`` it first sets i = j, so an error handler can name its
    node.

    Returns (lines, results, consts, ops, labels): the local holding each
    root's value, the rounded constants, the bound value o{j} of each
    Power, Builtin and FuncApp instruction, and each instruction's label.
    """
    shared = {n: f"v{i}" for n, i in slots.items()}
    consts: dict = {}  # Const node -> its value, rounded once
    ops: dict = {}
    lines, results, labels = [], [], []
    for root in roots:
        local = dict(shared)
        for n in _operations(root, slots, funcs):
            if isinstance(n, Const):
                if n not in consts:
                    shared[n] = f"c{len(consts)}"
                    consts[n] = backend.const(n.value)
                local[n] = shared[n]
                continue
            j = len(labels)
            labels.append(getattr(n, "name", type(n).__name__))
            template = backend.templates[type(n)]
            operands = [local[c] for c in children(n)]
            target = local[n] = f"t{j}"
            if isinstance(n, Power):
                ops[f"o{j}"] = n.exp
            elif isinstance(n, Builtin):
                ops[f"o{j}"] = _BUILTINS[n.name][backend.builtin_column]
            elif isinstance(n, FuncApp):
                ops[f"o{j}"] = funcs[n.name]
            if numbered:
                lines.append(f"i = {j}")
            if isinstance(template, _Fold):
                # one assignment per step: nested calls would hit the
                # parser's nesting limit on long sums
                acc = operands[0] if operands else template.empty
                for x in operands[1:]:
                    lines.append(f"{target} = " + template.step.format(x, acc=acc))
                    acc = target
                if len(operands) < 2:
                    lines.append(f"{target} = {acc}")
            else:
                args = "".join(f"{x}, " for x in operands)
                value = template.format(*operands, op=f"o{j}", args=args)
                lines.append(f"{target} = {value}")
            lines += [
                f"if {target} in NF or {target} != {target}:",
                "    raise DomainError('non-finite value in evaluation')",
            ]
        results.append(local[root])
    return lines, results, consts, ops, labels


def _input_check(inputs: list) -> list:
    if not inputs:
        return []
    return [
        "if " + " or ".join(f"{v} in NF or {v} != {v}" for v in inputs) + ":",
        "    raise DomainError('non-finite input value')",
    ]


def _bind(function: list, consts: dict, ops: dict, labels: list, backend: _Backend):
    """The function that ``function`` (source lines ending in its
    ``return``) defines inside a generated factory, bound to these
    constants, operation values and the backend's library.

    The factory is compiled once per source text; its arguments carry
    everything that is not a fixed template or an integer position, so
    no text from an expression is ever executed, expressions of one
    shape share one cached factory, and builtins and function symbols
    are bound at each call.
    """
    lines = [
        f"def factory(NF, DomainError, labels, consts, ops, {', '.join(backend.lib)}):",
        *_indent(_unpack([f"c{k}" for k in range(len(consts))], "consts")),
        *_indent(_unpack(list(ops), "ops")),
        *_indent(function),
        "",
    ]
    factory = _program_factory("\n".join(lines))
    return factory(
        backend.nonfinite, DomainError, tuple(labels), tuple(consts.values()),
        tuple(ops.values()), **backend.lib,
    )


def _compile(e: Expr, slots: Mapping[Expr, int], funcs, backend: _Backend):
    """Compile e into one straight-line Python function over its slots.

    ``slots`` maps every variable of e, and any atom whose value the
    caller already holds, to a position 0..len(slots)-1; the program
    takes one positional value per slot, passes each through the
    backend's ``coerce``, and returns e's value.

    The program raises TypeError for a wrong number of values, and
    DomainError for a non-finite slot or computed value, and for a
    ValueError, OverflowError or ZeroDivisionError inside an
    instruction, with the failing node's label.  A ``coerce`` error
    (``float(10**400)``) propagates as it is.  Unbound variables,
    function symbols and unknown builtins raise UnboundSymbol here, not
    when the program runs.
    """
    lines, (result,), consts, ops, labels = _instructions(
        [e], slots, funcs, backend, numbered=True
    )
    inputs = [f"v{i}" for i in range(len(slots))]
    run = []
    if backend.coerce:
        coerced = ", ".join(backend.coerce.format(v) for v in inputs)
        run += _unpack(inputs, coerced + ",")
    run += _input_check(inputs)
    if lines:
        run += [
            "try:",
            *_indent(lines),
            "except (ValueError, OverflowError, ZeroDivisionError) as exc:",
            "    raise DomainError(f'{labels[i]}: {exc!r}') from None",
        ]
    run.append(f"return {result}")
    program = [f"def program({', '.join(inputs)}):", *_indent(run), "return program"]
    return _bind(program, consts, ops, labels, backend)


def _compile_block(atoms, slots: Mapping[Expr, int], funcs, backend: _Backend):
    """Compile every atom into one function over a block of points.

    The function takes a sequence of points, each one value per slot,
    and computes the atoms of each point in order with the instructions
    ``_compile`` would give each atom on its own.  A point whose slots
    or values are non-finite, or whose instructions raise ValueError,
    OverflowError, ZeroDivisionError or DomainError, is rejected at the
    first such failure, and the loop goes on with the next point; any
    other exception propagates.  It returns the indices of the accepted
    points and, for each, the tuple of its atom values.
    """
    lines, results, consts, ops, labels = _instructions(
        atoms, slots, funcs, backend, numbered=False
    )
    inputs = [f"v{i}" for i in range(len(slots))]
    loop = [
        "hits = []",
        "rows = []",
        "for p, (" + "".join(f"{v}, " for v in inputs) + ") in enumerate(points):",
        "    try:",
        *_indent(_input_check(inputs) + lines or ["pass"], 2),
        "    except (ValueError, OverflowError, ZeroDivisionError, DomainError):",
        "        continue",
        "    hits.append(p)",
        "    rows.append((" + "".join(f"{r}, " for r in results) + "))",
        "return hits, rows",
    ]
    block = ["def block(points):", *_indent(loop), "return block"]
    return _bind(block, consts, ops, labels, backend)


_DOUBLE = _Backend(
    templates=_DOUBLE_TEMPLATES,
    lib={"prod": math.prod},
    const=lambda q: q.num / q.den,
    nonfinite=_DOUBLE_NONFINITE,
    builtin_column=0,
    coerce="float({})",
)


def compile_double(
    e: Expr, slots: Mapping[Expr, int], funcs: Mapping[str, Callable]
) -> Callable:
    """Compile e into a generated straight-line program over floats.

    The program takes one positional value per slot and passes each
    through ``float`` before anything else (see ``_compile``).  Each
    assignment does the Python operation its node denotes: a Sum is the
    built-in ``sum`` of its terms in order, a Product is ``math.prod``
    from 1.0, a Power is ``b ** k``, a Const is num / den, and a function
    symbol's result is passed through ``float``.
    """
    return _compile(e, slots, funcs, _DOUBLE)


def compile_double_block(
    atoms, slots: Mapping[Expr, int], funcs: Mapping[str, Callable]
) -> Callable:
    """Compile every atom into one generated function over blocks of points.

    ``block(points)`` takes a sequence of points of one float per slot
    and returns (indices of the accepted points, their atom-value
    tuples).  Each atom of a point does the operations
    ``compile_double`` gives it on its own, in atom order; a point is
    rejected where any of those programs would raise DomainError (see
    ``_compile_block``).
    """
    return _compile_block(atoms, slots, funcs, _DOUBLE)


def evaluate(e: Expr, env: Env) -> float:
    """IEEE-double value of e, from one compiled run; never NaN or Inf."""
    slots = {Var(name): i for i, name in enumerate(env.bindings)}
    return compile_double(e, slots, env.funcs)(*env.bindings.values())


def compile_hp(e: Expr, slots: Mapping[Expr, int], precision_bits: int) -> Callable:
    """Compile e into a generated straight-line program at ``precision_bits``.

    The program takes one raw mpf value (an ``mpf._mpf_`` tuple) per slot,
    positionally (see ``_compile``), and returns e's value as a raw mpf,
    rounded exactly as the mpf operators round it: a Sum or Product is the
    left fold of ``mpf_add`` or ``mpf_mul`` over its operands, and a Power
    is one ``mpf_pow_int``, each at ``precision_bits`` and round-to-nearest.
    A builtin is its ``_BUILTINS`` libmp call at the same precision and
    rounding, so it returns what mpmath's function of that name returns at
    a working precision of ``precision_bits``, and the program reads no
    global mpmath state.  It holds ``_MP_LOCK`` while it runs.  Each Const
    is rounded once, as mpf(num) / den.  No function symbol is bound: an
    application of one outside ``slots`` raises UnboundSymbol.
    """
    if not HP_MIN_BITS <= precision_bits <= HP_MAX_BITS:
        raise ValueError(
            f"precision_bits must lie in [{HP_MIN_BITS}, {HP_MAX_BITS}]"
        )
    prec = precision_bits

    def const(value: Rational) -> tuple:
        num = libmp.mpf_pos(libmp.from_int(value.num), prec, _RND)
        return libmp.mpf_div(num, libmp.from_int(value.den), prec, _RND)

    lib = dict(_HP_LIB, prec=prec)
    backend = _Backend(_HP_TEMPLATES, lib, const, _HP_NONFINITE, 1)
    program = _compile(e, slots, {}, backend)

    def locked(*values):
        with _MP_LOCK:
            return program(*values)

    return locked
