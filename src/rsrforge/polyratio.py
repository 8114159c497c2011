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
when the input is already canonical.  One multiplication may take at
most ``_MAX_TERM_PRODUCTS`` term products; past that it raises
ExpansionTooLarge, so no input expands without bound.

Substitution table.  The identities verified against one closed form
share their atoms and monomials (every property of a discovery run is
built over the same basis), so ``rational_residual_zero(e, closed_form,
params)`` does not expand the substituted identity.  It expands e over
its own atoms and combines, monomial by monomial, expansions kept in a
table per (closed_form, params): each identity atom maps to the
fraction of its substitution (``subst_func`` walks the atom, so bare
variables, f-free atoms and nested f take the same route), and each
monomial to the product of its atoms' fractions.  Each atom and each
monomial is thus substituted and expanded once per closed form.

Cells.  A substitution with an application left is not expanded at all:
over opaque atoms its expansion could only pass an identity that holds
for any values of them.  The exception is the piecewise builtins at
arity 1, which become polynomial on finitely many open cells (the
simplest cylindrical decomposition, Collins 1975).  When every
application is sign(u) or abs(u), with u a constant times a product of
powers of x, r, x + r and x - r, the lines x = 0, r = 0 and x = +-r cut
the plane into 8 open cones; on each, sign(u) is the constant sign of u
at the cone's integer point and abs(u) that sign times u.  When every
application is floor(u) or ceil(u), with u one of +-x, +-r and +-x +- r,
the table writes x = X + a and r = R + b, X and R integer, and the lines
a = b and a + b = 1 cut the open unit square of (a, b) into 4 open
cells; on each, floor(u) is an integer-part sum plus a constant (for
instance floor(x + r) = X + R + [a + b > 1]) and ceil(u) is floor(u) +
1.  X, R, a and b stay free variables; a polynomial that vanishes on Z^2
times an open set is the zero polynomial, so the test is sound and
complete.  The table keeps each atom's fraction on every cell, and each
monomial's, and the identity is zero when its numerator is formally zero
on every cell with a formally nonzero denominator.  Zero thus means
"zero on every open cell": the measure-zero cell walls, where sign(0) = 0
breaks f(x)^2 - 1, are left out, as the 256-bit channel's random points
leave them out.  A nonzero cell proves the identity false.  Any other
application (floor(x*r), mod, sign(x^2 + 1), arity 2, an uninterpreted
function) leaves the verdict None.

The table also keeps each identity's verdict, so an identity that comes back
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

from .errors import DomainError, ExpansionTooLarge
from .expr import (
    Builtin,
    Const,
    Expr,
    FuncApp,
    Power,
    Product,
    Sum,
    Var,
    atoms_of,
    canonicalize,
    children,
    expr_key,
    map_args,
    split_coefficient,
    subst_func,
)
from .rational import ONE, ZERO, Rational

# A polynomial is a dict mapping monomials to nonzero coefficients; a
# monomial is a sorted tuple of (atom_index, exponent) pairs with positive
# exponents.  The empty tuple is the constant monomial.  Inside the
# expansion coefficients are Python ints; expand_to_polynomial hands out
# Rational ones.  Polynomials are never changed in place, so a product may
# hand back one of its operands.

_EMPTY = ()

# Term products one multiplication may take.  The largest exact pass
# measured on the registry takes 3191 (and keeps 165 terms).
_MAX_TERM_PRODUCTS = 1 << 16


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
    if len(p) * len(q) > _MAX_TERM_PRODUCTS:
        raise ExpansionTooLarge(
            f"exact expansion would multiply {len(p)} by {len(q)} terms, over "
            f"the budget of {_MAX_TERM_PRODUCTS} term products"
        )
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
        k >>= 1
        if k:
            base = _poly_mul(base, base)
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


# --------------------------------------------------------------------------
# Open cells of the piecewise builtins, at arity 1
# --------------------------------------------------------------------------

_X, _R = Var("x"), Var("r")
_CONE_BUILTINS = frozenset(("sign", "abs"))
_SQUARE_BUILTINS = frozenset(("floor", "ceil"))
_UNIT = (ONE, ZERO, -ONE)
# the lines x = 0, r = 0, x = r and x = -r cut the (x, r) plane into 8
# open cones, one integer point in each
_CONES = tuple(
    (Rational(a), Rational(b))
    for a, b in ((2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1))
)
# x = ⌊x⌋ + {x} and r = ⌊r⌋ + {r}: the lines {x} = {r} and {x} + {r} = 1
# cut the open unit square of fractional parts into 4 open cells, one
# point in each
_WHOLE = (Var("⌊x⌋"), Var("⌊r⌋"))
_SPLIT = {
    _X: Sum((_WHOLE[0], Var("{x}"))),
    _R: Sum((_WHOLE[1], Var("{r}"))),
}
_SQUARE = tuple(
    (Rational(a, 4), Rational(b, 4)) for a, b in ((2, 1), (3, 2), (2, 3), (1, 2))
)
_CELLS = {"plain": (None,), "cone": _CONES, "square": _SQUARE}


def _cell_family(e: Expr, params: tuple):
    """Which cells decide e's applications: "plain" when it has none,
    "cone" when all are sign or abs and "square" when all are floor or
    ceil, at arity 1; None otherwise."""
    names = set()

    def walk(n: Expr):
        if isinstance(n, (Builtin, FuncApp)):
            names.add(n.name if isinstance(n, Builtin) else None)
        for c in children(n):
            walk(c)

    walk(e)
    if not names:
        return "plain"
    if params == ("x",):
        if names <= _CONE_BUILTINS:
            return "cone"
        if names <= _SQUARE_BUILTINS:
            return "square"
    return None


def _linear(u: Expr):
    """(cx, cr) when canonical u is cx*x + cr*r, else None."""
    coeffs = {_X: ZERO, _R: ZERO}
    for t in u.terms if isinstance(u, Sum) else (u,):
        c, core = split_coefficient(t)
        if core not in coeffs:
            return None
        coeffs[core] = coeffs[core] + c
    return coeffs[_X], coeffs[_R]


def _cone_sign(u: Expr, point: tuple) -> int:
    """The sign of u on the open cone through point, or 0 when u is not a
    constant times a product of powers of x, r, x + r and x - r."""
    sign = 1
    for f in u.factors if isinstance(u, Product) else (u,):
        if isinstance(f, Const):
            sign *= (f.value.num > 0) - (f.value.num < 0)
            continue
        base, k = (f.base, f.exp) if isinstance(f, Power) else (f, 1)
        form = _linear(base)
        if form is None:
            return 0
        cx, cr = form
        if not (cx.is_zero or cr.is_zero or cx == cr or cx == -cr):
            return 0
        if (cx * point[0] + cr * point[1]).num < 0 and k % 2:
            sign = -sign
    return sign


def _whole_part(u: Expr, point: tuple, ceil: bool):
    """floor(u), or ceil(u), on the unit-square cell through point as
    cx*⌊x⌋ + cr*⌊r⌋ plus a constant, when u = cx*x + cr*r with cx and cr
    in {-1, 0, 1}; None otherwise.  u is never an integer on an open cell,
    so ceil(u) = floor(u) + 1 there."""
    form = _linear(u)
    if form is None or not all(c in _UNIT for c in form):
        return None
    (cx, cr), (a, b) = form, point
    t = cx * a + cr * b
    whole = Const(Rational(t.num // t.den + ceil))
    x_part, r_part = Product((Const(cx), _WHOLE[0])), Product((Const(cr), _WHOLE[1]))
    return Sum((x_part, r_part, whole))


def _on_cell(e: Expr, family: str, point) -> Expr:
    """e on the open cell of ``family`` through point.

    On a cone each sign(u) becomes its constant and each abs(u) that
    constant times u; on a unit-square cell x and r become ⌊x⌋ + {x} and
    ⌊r⌋ + {r}, and floor(u) and ceil(u) integer-part sums.  An
    application the cell does not decide stays as it is.
    """

    def walk(n: Expr) -> Expr:
        if isinstance(n, Builtin) and len(n.args) == 1:
            u = n.args[0]
            if family == "cone" and n.name in _CONE_BUILTINS:
                s = _cone_sign(u, point)
                if s:
                    c = Const(Rational(s))
                    return c if n.name == "sign" else Product((c, u))
            if family == "square" and n.name in _SQUARE_BUILTINS:
                whole = _whole_part(u, point, n.name == "ceil")
                if whole is not None:
                    return whole
        if family == "square" and n in _SPLIT:
            return _SPLIT[n]
        return map_args(n, walk)

    return canonicalize(walk(e))


# --------------------------------------------------------------------------
# Substitution tables
# --------------------------------------------------------------------------

_SUBSTITUTION_TABLES = 64  # closed forms whose substitution tables are kept
_UNDECIDED = object()  # verdicts.get default: None is a verdict


class _SubstitutionTable:
    """Substituted expansions for one closed form.

    ``substituted`` maps an identity atom to its substitution and that
    substitution's cell family; ``atoms`` maps (atom, family) to the
    (num, den) fraction of the substitution on each of the family's
    cells, or None when an atom is left on some cell; ``monomials`` maps
    (monomial, family), a monomial being a frozenset of (atom, exponent)
    pairs, to the product of its atoms' fractions on each cell; and
    ``verdicts`` maps an identity to its verdict.  All fractions are over
    ``table``'s atoms, which are variables only.
    """

    def __init__(self, closed_form: Expr, params: tuple):
        self.closed_form = closed_form
        self.params = params
        self.table = _AtomTable()
        self.substituted: dict = {}
        self.atoms: dict = {}
        self.monomials: dict = {}
        self.verdicts: dict = {}
        self.lock = threading.Lock()

    def family(self, leaves) -> str:
        """The cell family of an identity over these atoms, or None when
        an application is left on some cell."""
        with self.lock:
            kinds = {self._substitution(atom)[1] for atom in leaves} - {"plain"}
            if len(kinds) > 1:
                return None
            family = kinds.pop() if kinds else "plain"
            if family is None or any(self._atom(a, family) is None for a in leaves):
                return None
        return family

    def _substitution(self, atom: Expr) -> tuple:
        out = self.substituted.get(atom)
        if out is None:
            substituted = subst_func(atom, "f", self.params, self.closed_form)
            family = _cell_family(substituted, self.params)
            out = self.substituted[atom] = (substituted, family)
        return out

    def _atom(self, atom: Expr, family: str):
        key = (atom, family)
        if key not in self.atoms:
            self.atoms[key] = self._fractions(self._substitution(atom)[0], family)
        return self.atoms[key]

    def _fractions(self, substituted: Expr, family: str):
        if family == "plain":
            return (_to_fraction(substituted, self.table),)
        out = []
        for point in _CELLS[family]:
            try:
                on_cell = _on_cell(substituted, family, point)
                if any(not isinstance(a, Var) for a in atoms_of(on_cell)):
                    return None
                out.append(_to_fraction(on_cell, self.table))
            except DomainError:  # the closed form is undefined on the cell
                return None
        return tuple(out)

    def monomial(self, key: tuple) -> tuple:
        fractions = self.monomials.get(key)
        if fractions is None:
            with self.lock:
                fractions = self.monomials.get(key)
                if fractions is None:
                    fractions = self.monomials[key] = self._expand_monomial(key)
        return fractions

    def _expand_monomial(self, key: tuple) -> tuple:
        pairs, family = key
        pairs = sorted(pairs, key=lambda pair: expr_key(pair[0]))
        out = []
        for cell in range(len(_CELLS[family])):
            num, den = _poly_const(1), _poly_const(1)
            for atom, k in pairs:
                an, ad = self.atoms[(atom, family)][cell]
                if k > 1:
                    an, ad = _poly_pow(an, k), _poly_pow(ad, k)
                num, den = _poly_mul(num, an), _poly_mul(den, ad)
            out.append((num, den))
        return tuple(out)

    def substitute(self, poly: dict, atoms: list, family: str) -> list:
        """(num, den) of poly, over identity atoms, after substitution, on
        each cell of family."""
        cells = len(_CELLS[family])
        out = [(_poly_const(0), _poly_const(1))] * cells
        for mono, c in poly.items():
            key = (frozenset((atoms[i], k) for i, k in mono), family)
            for cell, (tn, td) in enumerate(self.monomial(key)):
                num, den = out[cell]
                out[cell] = (
                    _poly_add(_poly_mul(num, td), _poly_mul(_scale(tn, c), den)),
                    _poly_mul(den, td),
                )
        return out

    def decide(self, e: Expr):
        """The verdict on canonical e; see rational_residual_zero."""
        own = atoms_of(e)
        family = self.family(own)
        if family is None:
            return None
        table = _AtomTable()
        num, den = _to_fraction(e, table)
        dens = None
        if not (len(den) == 1 and _EMPTY in den):
            dens = self.substitute(den, table.atoms, family)
        undefined = False
        for cell, (n, _d) in enumerate(self.substitute(num, table.atoms, family)):
            if dens is not None and not dens[cell][0]:
                if family == "plain":
                    raise DomainError(
                        "formal division by zero in rational simplification"
                    )
                undefined = True
            elif n:
                return False
        return None if undefined else True


@functools.lru_cache(maxsize=_SUBSTITUTION_TABLES)
def _substitution_table(closed_form: Expr, params: tuple) -> _SubstitutionTable:
    return _SubstitutionTable(closed_form, params)


def rational_residual_zero(e: Expr, closed_form: Expr, params: tuple):
    """Whether e, with every application f(params) replaced by
    closed_form, is zero: True when it is zero on every cell, False when
    it is nonzero on some cell, and None, without expanding the identity,
    when an application stays in the substitution.

    The cells are the whole space when the substitution has no
    application; at arity 1, the 8 open cones of the lines x = 0, r = 0 and x = ±r
    when its applications are sign(u) and abs(u), each u a constant
    times a product of powers of x, r and x ± r; and the 4 open cells of
    the unit square of fractional parts when they are floor(u) and
    ceil(u), each u one of ±x, ±r, ±x ± r.  Zero means that the integer
    numerator after clearing denominators is empty.  On the whole space a
    formally zero denominator raises DomainError; on a cell it leaves the
    verdict None unless another cell is nonzero.

    Decides e from the substitution table of (closed_form, params), once
    per e while the table is kept; raises DomainError when f is applied
    to the wrong number of arguments and ExpansionTooLarge when a
    product passes the term budget.
    """
    table = _substitution_table(closed_form, params)
    verdict = table.verdicts.get(e, _UNDECIDED)
    if verdict is _UNDECIDED:
        verdict = table.verdicts[e] = table.decide(canonicalize(e))
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
