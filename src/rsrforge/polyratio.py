"""Exact simplification of rational structure over opaque atoms.

Function applications (both uninterpreted symbols and builtins) and bare
variables are treated as indivisible atoms; everything connecting them
must be +, -, *, integer powers, or division.  An expression is flattened
into a quotient of multivariate polynomials over those atoms with exact
rational coefficients.  The simplifier is sound but deliberately not
complete for transcendental identities: exp(x+r) and exp(x)*exp(r) are
distinct atoms here, and such identities are left to high-precision
randomized testing.

Entry points: ``expand_to_polynomial`` clears denominators, so e = 0
holds as a rational identity iff its polynomial is empty;
``rational_residual_zero`` decides e = 0 after substituting a closed
form for f, which its callers always supply; ``normal_scaling`` scales
"poly = 0", for a polynomial already held as a dict, to coprime integer
coefficients with a positive leading monomial, and ``polynomial_to_expr``
builds the canonical expression of a polynomial from the expressions of
its monomials.  That builder is the only one: discovery feeds it the
memoized monomial expressions of a ``TermBasis`` for every identity,
ground-truth normal form, recovery cofactor and remainder.

The expansion runs over Python-int coefficients: a constant p/q is the
pair of constant polynomials p and q, a constant factor scales the other
operand instead of multiplying term by term, and no Rational is built,
reduced or range-checked inside it.  ``rational_residual_zero`` reads the
integer numerator; ``expand_to_polynomial`` converts to Rational only
when it returns, so its result is the rational expansion times a nonzero
constant, which changes no zero test and no normal form.  The 128-bit
contract of ``rational`` covers those Rational values, not the
intermediate integers of an expansion: (x + 1)^140 - (x^2 + 2x + 1)^70
cancels exactly although its binomial coefficients pass 2^127.
``expand_to_polynomial`` canonicalizes its input, which costs nothing
when the input is already canonical.

Substitution table.  The identities verified against one closed form
share their atoms and monomials (every property of a discovery run is
built over the same basis), so ``rational_residual_zero(e, closed_form,
params)`` does not expand the substituted identity.  It expands e over
its own atoms and combines, monomial by monomial, expansions kept in a
table per (closed_form, params): each identity atom maps to the
fraction of its substitution (``subst_func`` walks the atom, so bare
variables, f-free atoms and nested f take the same route), and each
monomial to the product of its atoms' fractions.  Each atom and each
monomial is thus substituted and expanded once per closed form.  The
table also keeps each identity's verdict, so an identity that comes back
in a later run, on any seed, is decided by one lookup; a call that
raises DomainError keeps nothing and raises again.  The tables sit in an
LRU cache of ``_SUBSTITUTION_TABLES`` closed forms and fill lazily; a
lock per table guards its fills, because ``run_bench`` verifies entries
on worker threads and the table's atom indices must stay consistent.  A
verdict needs no lock: two threads that race on it store the same value.
"""

from __future__ import annotations

import functools
import math
import threading

from .errors import DomainError
from .expr import (
    Builtin,
    Const,
    Expr,
    FuncApp,
    Power,
    Product,
    Sum,
    Var,
    canonicalize,
    expr_key,
    subst_func,
)
from .rational import ZERO, Rational

# A polynomial is a dict mapping monomials to nonzero coefficients; a
# monomial is a sorted tuple of (atom_index, exponent) pairs with positive
# exponents.  The empty tuple is the constant monomial.  Inside the
# expansion coefficients are Python ints; expand_to_polynomial hands out
# Rational ones.  Polynomials are never changed in place, so a product may
# hand back one of its operands.

_EMPTY = ()


def _poly_const(c: int) -> dict:
    return {_EMPTY: c} if c else {}


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    exps: dict = {}
    for idx, k in a:
        exps[idx] = exps.get(idx, 0) + k
    for idx, k in b:
        exps[idx] = exps.get(idx, 0) + k
    return tuple(sorted((i, k) for i, k in exps.items() if k != 0))


def _scale(p: dict, c: int) -> dict:
    return p if c == 1 else {mono: c * v for mono, v in p.items()}


def _poly_mul(p: dict, q: dict) -> dict:
    # a constant factor scales the other one, in the other one's order
    if len(q) == 1 and _EMPTY in q:
        return _scale(p, q[_EMPTY])
    if len(p) == 1 and _EMPTY in p:
        return _scale(q, p[_EMPTY])
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = _mono_mul(m1, m2)
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _poly_pow(p: dict, k: int) -> dict:
    out = _poly_const(1)
    base = p
    while k > 0:
        if k & 1:
            out = _poly_mul(out, base)
        base = _poly_mul(base, base)
        k >>= 1
    return out


class _AtomTable:
    def __init__(self):
        self.atoms: list = []
        self.index: dict = {}

    def intern(self, atom: Expr) -> int:
        idx = self.index.get(atom)
        if idx is None:
            idx = len(self.atoms)
            self.atoms.append(atom)
            self.index[atom] = idx
        return idx


def _to_fraction(e: Expr, table: _AtomTable) -> tuple:
    """Return (num_poly, den_poly), integer coefficients, for a canonical
    expression; a constant p/q is the pair of constant polynomials p, q."""
    if isinstance(e, Const):
        return _poly_const(e.value.num), _poly_const(e.value.den)
    if isinstance(e, (Var, FuncApp, Builtin)):
        idx = table.intern(e)
        return {((idx, 1),): 1}, _poly_const(1)
    if isinstance(e, Sum):
        num, den = _poly_const(0), _poly_const(1)
        for t in e.terms:
            tn, td = _to_fraction(t, table)
            num = _poly_add(_poly_mul(num, td), _poly_mul(tn, den))
            den = _poly_mul(den, td)
        return num, den
    if isinstance(e, Product):
        num, den = _poly_const(1), _poly_const(1)
        for f in e.factors:
            fn, fd = _to_fraction(f, table)
            num = _poly_mul(num, fn)
            den = _poly_mul(den, fd)
        return num, den
    if isinstance(e, Power):
        bn, bd = _to_fraction(e.base, table)
        if e.exp >= 0:
            return _poly_pow(bn, e.exp), _poly_pow(bd, e.exp)
        if not bn:
            raise DomainError("formal division by zero in rational simplification")
        return _poly_pow(bd, -e.exp), _poly_pow(bn, -e.exp)
    raise TypeError(f"not an Expr: {e!r}")


def polynomial_to_expr(p: dict, mono_expr) -> Expr:
    """The canonical expression of polynomial p, given the canonical
    expression ``mono_expr(mono)`` of each of its monomials."""
    if not p:
        return Const(ZERO)
    terms = []
    for mono, c in p.items():
        terms.append(Product((Const(c), mono_expr(mono))))
    return canonicalize(Sum(tuple(terms)))


def _mono_sort_key(mono: tuple, atoms: list):
    degree = sum(k for _, k in mono)
    return (degree, tuple(sorted((expr_key(atoms[i]), k) for i, k in mono)))


def expand_to_polynomial(e: Expr) -> tuple:
    """Expand e into (poly, atoms) after clearing denominators.

    The returned polynomial, with Rational coefficients, equals e times a
    formally nonzero denominator, so e == 0 as a rational identity iff
    poly == {}.
    """
    table = _AtomTable()
    poly = _to_fraction(canonicalize(e), table)[0]
    return {mono: Rational(c) for mono, c in poly.items()}, table.atoms


_SUBSTITUTION_TABLES = 64  # closed forms whose substitution tables are kept


class _SubstitutionTable:
    """Substituted expansions for one closed form: identity atom -> the
    (num, den) fraction of its substitution, monomial, a frozenset of
    (atom, exponent) pairs, -> the product of its atoms' fractions, and
    identity -> its verdict.  All fractions are over ``table``'s atoms."""

    def __init__(self, closed_form: Expr, params: tuple):
        self.closed_form = closed_form
        self.params = params
        self.table = _AtomTable()
        self.atoms: dict = {}
        self.monomials: dict = {}
        self.verdicts: dict = {}
        self.lock = threading.Lock()

    def monomial(self, key: frozenset) -> tuple:
        frac = self.monomials.get(key)
        if frac is None:
            with self.lock:
                frac = self.monomials.get(key)
                if frac is None:
                    frac = self.monomials[key] = self._expand_monomial(key)
        return frac

    def _expand_monomial(self, key: frozenset) -> tuple:
        num, den = _poly_const(1), _poly_const(1)
        for atom, k in sorted(key, key=lambda pair: expr_key(pair[0])):
            an, ad = self._atom(atom)
            if k > 1:
                an, ad = _poly_pow(an, k), _poly_pow(ad, k)
            num, den = _poly_mul(num, an), _poly_mul(den, ad)
        return num, den

    def _atom(self, atom: Expr) -> tuple:
        frac = self.atoms.get(atom)
        if frac is None:
            substituted = subst_func(atom, "f", self.params, self.closed_form)
            frac = self.atoms[atom] = _to_fraction(substituted, self.table)
        return frac

    def substitute(self, poly: dict, atoms: list) -> tuple:
        """(num, den) of poly, over identity atoms, after substitution."""
        num, den = _poly_const(0), _poly_const(1)
        for mono, c in poly.items():
            tn, td = self.monomial(frozenset((atoms[i], k) for i, k in mono))
            num = _poly_add(_poly_mul(num, td), _poly_mul(_scale(tn, c), den))
            den = _poly_mul(den, td)
        return num, den


@functools.lru_cache(maxsize=_SUBSTITUTION_TABLES)
def _substitution_table(closed_form: Expr, params: tuple) -> _SubstitutionTable:
    return _SubstitutionTable(closed_form, params)


def rational_residual_zero(e: Expr, closed_form: Expr, params: tuple) -> bool:
    """True iff e, with every application f(params) replaced by
    closed_form, simplifies to zero as a rational identity over atoms,
    that is iff its integer numerator after clearing denominators is
    empty.

    Decides e from the substitution table of (closed_form, params), once
    per e while the table is kept; raises DomainError when f is applied
    to the wrong number of arguments or when e's denominator becomes
    formally zero.
    """
    table = _substitution_table(closed_form, params)
    verdict = table.verdicts.get(e)
    if verdict is None:
        own = _AtomTable()
        num, den = _to_fraction(canonicalize(e), own)
        constant_den = len(den) == 1 and _EMPTY in den
        if not constant_den and not table.substitute(den, own.atoms)[0]:
            raise DomainError("formal division by zero in rational simplification")
        verdict = table.verdicts[e] = not table.substitute(num, own.atoms)[0]
    return verdict


def normal_scaling(poly: dict, atoms) -> dict:
    """Scale the implicit identity "poly = 0" over ``atoms`` to its normal
    form.

    Returns poly times the rational that makes its coefficients coprime
    integers and gives the maximal monomial (graded by total degree, then
    atom order) a positive coefficient.  The result determines the
    identity's normal form over ``atoms`` and depends only on the atoms a
    monomial names, not on their positions in ``atoms``.  Raises
    RationalOverflow when a scaled coefficient leaves the 128-bit range.
    """
    if not poly:
        return {}

    lcm_den = math.lcm(*(c.den for c in poly.values()))
    gcd_num = math.gcd(*(c.num * (lcm_den // c.den) for c in poly.values()))
    scale = Rational(lcm_den, gcd_num)

    lead = max(poly, key=lambda m: _mono_sort_key(m, atoms))
    if (poly[lead] * scale).num < 0:
        scale = -scale

    return {m: c * scale for m, c in poly.items()}
