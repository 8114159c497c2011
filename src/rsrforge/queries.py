"""Query classes and the monomial basis over query-function evaluations.

A query maps the target function's input and a randomness draw to a new
evaluation point.  For scalar targets the classic class is {x+r, x-r,
x*r, x, r}.  Multi-input targets get per-coordinate analogues: ten
scalar queries for arity 2, which the basis builder zips back into five
vector-valued evaluation points f(x+r1, y+r2), f(x-r1, y-r2), and so on.
Cross-coordinate shapes live only in the extended library.  A
QueryFunction records only its name, its canonical expression, and the
vector query (group) and coordinate it feeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb

from .errors import BasisError, CombinatorialBlowup
from .expr import Const, Expr, FuncApp, Power, Product, Var, canonicalize
from .parser import format_expr, parse
from .rational import ONE

MONOMIAL_CAP = 20_000


def input_vars(arity: int) -> tuple:
    if arity == 1:
        return ("x",)
    if arity == 2:
        return ("x", "y")
    return tuple(f"x{i + 1}" for i in range(arity))


def randomness_vars(arity: int) -> tuple:
    if arity == 1:
        return ("r",)
    return tuple(f"r{i + 1}" for i in range(arity))


@dataclass(frozen=True)
class QueryFunction:
    """One scalar query expression plus its grouping metadata.

    ``group`` ties together the per-coordinate analogues of one vector
    query; ``coordinate`` says which slot of the target's input this
    expression feeds.
    """

    name: str
    expr: Expr
    group: str = ""
    coordinate: int = 0

    def __post_init__(self):
        object.__setattr__(self, "expr", canonicalize(self.expr))
        if not self.group:
            object.__setattr__(self, "group", self.name)


def default_query_class(arity: int) -> list:
    """The fixed query class {x+r, x-r, x*r, x, r}, per coordinate."""
    if arity < 1:
        raise ValueError("arity must be at least 1")
    xs = input_vars(arity)
    rs = randomness_vars(arity)
    shapes = [
        ("x+r", lambda a, b: f"{a}+{b}"),
        ("x-r", lambda a, b: f"{a}-{b}"),
        ("x*r", lambda a, b: f"{a}*{b}"),
        ("x", lambda a, b: a),
        ("r", lambda a, b: b),
    ]
    out = []
    for group, mk in shapes:
        for j in range(arity):
            text = mk(xs[j], rs[j])
            out.append(
                QueryFunction(name=text, expr=parse(text), group=group, coordinate=j)
            )
    return out


_EXTENDED = [
    "x^2",
    "x^3",
    "x^4",
    "sqrt(x*r)",
    "x/(1+x)",
    "x*r/(x+r)",
    "x+r-x*r",
    "x+log(k)",
    "sqrt(x^2+r^2)",
    "1-1/x",
]


def extended_query_library() -> list:
    """Static library of the discovered non-classic query shapes.

    Scalar-target queries; ``k`` in the logarithmic-shift query is a
    symbolic positive constant to be bound at use.
    """
    return [QueryFunction(name=text, expr=parse(text)) for text in _EXTENDED]


def queries_by_name(names, arity: int = 1) -> list:
    """Resolve comma-style query names against the default class; any
    other name, a library shape included, is parsed as its own query."""
    pool = {q.name: q for q in default_query_class(arity)}
    out = []
    for raw in names:
        name = raw.strip().replace(" ", "")
        if name in pool:
            out.append(pool[name])
        else:
            out.append(QueryFunction(name=name, expr=parse(name)))
    return out


@dataclass(frozen=True)
class TermBasis:
    """Ordered, structurally distinct atoms the monomials range over.

    Each atom is either an application of the target symbol to one
    vector query, or a raw input/randomness variable.  ``origins[i]``
    holds the QueryFunctions that built atom i (empty for raw
    variables).
    """

    terms: tuple
    origins: tuple = field(default=())

    def __post_init__(self):
        seen = set()
        for term in self.terms:
            if term in seen:
                raise BasisError(
                    "basis terms must be pairwise distinct: "
                    f"{format_expr(term)} repeats"
                )
            seen.add(term)
        if not self.origins:
            object.__setattr__(self, "origins", tuple(() for _ in self.terms))

    def __len__(self):
        return len(self.terms)

    @cached_property
    def _exprs(self) -> dict:
        """Exponent vector -> the monomial's canonical expression."""
        return {}

    @cached_property
    def bare_f_index(self):
        """Index of the bare atom f(x) (f(x1, .., xn) for arity n), or None."""
        arity = max(
            (len(t.args) for t in self.terms if isinstance(t, FuncApp)), default=1
        )
        bare = FuncApp("f", tuple(Var(v) for v in input_vars(arity)))
        return self.terms.index(bare) if bare in self.terms else None


def build_basis(
    fname: str,
    queries,
    arity: int,
    include_raw_vars: bool = False,
) -> TermBasis:
    """Assemble f-applied atoms from grouped queries, optionally plus
    raw variables."""
    groups: dict = {}
    order = []
    for q in queries:
        if q.group not in groups:
            groups[q.group] = {}
            order.append(q.group)
        if q.coordinate in groups[q.group]:
            raise BasisError(
                f"duplicate coordinate {q.coordinate} in query group {q.group!r}"
            )
        groups[q.group][q.coordinate] = q

    terms = []
    origins = []
    for g in order:
        coords = groups[g]
        if sorted(coords) != list(range(arity)):
            raise BasisError(
                f"query group {g!r} does not cover all {arity} coordinates"
            )
        members = tuple(coords[j] for j in range(arity))
        atom = canonicalize(FuncApp(fname, tuple(m.expr for m in members)))
        terms.append(atom)
        origins.append(members)

    if include_raw_vars:
        for name in input_vars(arity) + randomness_vars(arity):
            terms.append(Var(name))
            origins.append(())

    return TermBasis(terms=tuple(terms), origins=tuple(origins))


@dataclass(frozen=True)
class Monomial:
    """Exponent vector over a basis; the all-zero vector is the constant 1."""

    exponents: tuple

    @property
    def degree(self) -> int:
        return sum(self.exponents)


def gen_monomials(basis: TermBasis, d: int, cap: int = MONOMIAL_CAP) -> list:
    """All monomials of total degree <= d, constant last.

    Enumerated by ascending degree, lexicographically within a degree:
    basis [t0, t1], d=2 -> [t0, t1, t0^2, t0*t1, t1^2, 1].
    """
    if d < 1:
        raise ValueError("degree bound must be at least 1")
    k = len(basis)
    if k < 1:
        raise ValueError("basis must be nonempty")
    count = comb(k + d, d)
    if count > cap:
        raise CombinatorialBlowup(
            f"{count} monomials over {k} terms at degree {d} exceeds cap {cap}"
        )
    out = []
    for g in range(1, d + 1):
        for combo in combinations_with_replacement(range(k), g):
            exps = [0] * k
            for idx in combo:
                exps[idx] += 1
            out.append(Monomial(tuple(exps)))
    out.append(Monomial((0,) * k))
    return out


def monomial_to_expr(m: Monomial, basis: TermBasis) -> Expr:
    """The canonical expression of m over basis, built once per basis."""
    e = basis._exprs.get(m.exponents)
    if e is None:
        if len(m.exponents) != len(basis):
            raise ValueError("exponent vector length does not match basis")
        factors = []
        for term, k in zip(basis.terms, m.exponents):
            if k == 0:
                continue
            factors.append(term if k == 1 else Power(term, k))
        e = canonicalize(Product(tuple(factors))) if factors else Const(ONE)
        basis._exprs[m.exponents] = e
    return e
