"""Text grammar for expressions.

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ['^' exponent]
    exponent := ['-'] INT | '(' ['-'] INT ')'
    atom     := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Whitespace is insignificant.  '^' binds tighter than unary minus, so
-x^2 parses as -(x^2).  a/b is read as a*b^-1.  Decimal literals become
exact rationals (0.5 -> 1/2).  ``Eq(lhs, rhs)`` is accepted as a wrapper
and yields the residual lhs - rhs, i.e. the equation read as "= 0".
Identifiers naming known builtins produce Builtin nodes; anything else
applied to arguments is an uninterpreted function symbol.

parse() returns canonical expressions, and format_expr() prints them so
that parse(format_expr(e)) == canonicalize(e); each node keeps its text
once printed, as it keeps its hash.
"""

from __future__ import annotations

from .errors import ParseError
from .expr import (
    BUILTIN_ARITY,
    BUILTIN_NAMES,
    Builtin,
    Const,
    Expr,
    FuncApp,
    Power,
    Product,
    Sum,
    Var,
    canonicalize,
    split_coefficient,
)
from .rational import Rational

# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past Python's limit on digits it converts
        raise ParseError(f"{len(digits)}-digit literal is too long", pos) from None


def _number_to_rational(text: str, pos: int) -> Rational:
    if "." in text:
        whole, frac = text.split(".")
        if frac == "":
            raise ParseError("decimal literal missing digits after '.'", pos)
        scale = 10 ** len(frac)
        return Rational(_int(whole or "0", pos) * scale + _int(frac, pos), scale)
    return Rational(_int(text, pos))


# --------------------------------------------------------------------------
# Recursive-descent parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            t = self.term()
            if op == "-":
                t = Product((Const(Rational(-1)), t))
            terms.append(t)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Expr:
        out = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            out = Product((out, rhs if op == "*" else Power(rhs, -1)))
        return out

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Product((Const(Rational(-1)), self.unary()))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Power(base, self.exponent())
        return base

    def exponent(self) -> int:
        tok = self.peek()
        neg = False
        parens = False
        if tok[0] == "(":
            self.advance()
            parens = True
            tok = self.peek()
        if tok[0] == "-":
            self.advance()
            neg = True
            tok = self.peek()
        if tok[0] != "num" or "." in tok[1]:
            raise ParseError("exponent must be an integer literal", tok[2])
        self.advance()
        k = _int(tok[1], tok[2])
        if parens:
            self.expect(")")
        return -k if neg else k

    def atom(self) -> Expr:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            return Const(_number_to_rational(value, pos))
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident":
            if self.peek()[0] != "(":
                return Var(value)
            self.advance()
            args = [self.expr()]
            while self.peek()[0] == ",":
                self.advance()
                args.append(self.expr())
            self.expect(")")
            if value == "Eq":
                if len(args) != 2:
                    raise ParseError("Eq requires exactly two arguments", pos)
                return Sum((args[0], Product((Const(Rational(-1)), args[1]))))
            if value in BUILTIN_NAMES:
                if len(args) != BUILTIN_ARITY[value]:
                    raise ParseError(
                        f"{value} takes {BUILTIN_ARITY[value]} argument(s), "
                        f"got {len(args)}",
                        pos,
                    )
                return Builtin(value, tuple(args))
            return FuncApp(value, tuple(args))
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text: str) -> Expr:
    """Parse text into a canonical expression."""
    return canonicalize(_Parser(text).parse())


# --------------------------------------------------------------------------
# Formatter
# --------------------------------------------------------------------------


def _is_atom_like(e: Expr) -> bool:
    return isinstance(e, (Var, Builtin, FuncApp))


def _fmt_base(e: Expr) -> str:
    if _is_atom_like(e):
        return _fmt_atom(e)
    return "(" + format_expr(e) + ")"


def _fmt_atom(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, (Builtin, FuncApp)):
        return f"{e.name}({', '.join(format_expr(a) for a in e.args)})"
    raise TypeError(f"not an atom: {e!r}")


def _fmt_factor(e: Expr) -> tuple:
    """Return (text, atomic) for a factor with positive exponent."""
    if isinstance(e, Power):
        return f"{_fmt_base(e.base)}^{e.exp}", True
    if _is_atom_like(e):
        return _fmt_atom(e), True
    if isinstance(e, Const):
        return str(e.value), "/" not in str(e.value)
    return "(" + format_expr(e) + ")", True


def _fmt_term(coef: Rational, core) -> str:
    num_factors, den_factors = [], []
    if core is not None:
        factors = core.factors if isinstance(core, Product) else (core,)
        for f in factors:
            if isinstance(f, Power) and f.exp < 0:
                base = f.base if f.exp == -1 else Power(f.base, -f.exp)
                den_factors.append(base)
            else:
                num_factors.append(f)

    num_parts = []
    if coef.num != 1 or not num_factors:
        num_parts.append(str(coef.num))
    num_parts.extend(_fmt_factor(f)[0] for f in num_factors)
    text = "*".join(num_parts)

    den_parts = []
    if coef.den != 1:
        den_parts.append((str(coef.den), True))
    den_parts.extend(_fmt_factor(f) for f in den_factors)
    if not den_parts:
        return text
    if len(den_parts) == 1:
        den_text, atomic = den_parts[0]
        if not atomic:
            den_text = "(" + den_text + ")"
        return text + "/" + den_text
    return text + "/(" + "*".join(p[0] for p in den_parts) + ")"


def format_expr(e: Expr) -> str:
    """Print a canonical expression in the module grammar."""
    text = e._text
    if text is None:
        text = e.__dict__["_text"] = _format(e)
    return text


def _format(e: Expr) -> str:
    if isinstance(e, Sum):
        pieces = []
        for i, t in enumerate(e.terms):
            coef, core = split_coefficient(t)
            neg = coef.num < 0
            body = _fmt_term(abs(coef), core)
            if i == 0:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)
    coef, core = split_coefficient(e)
    neg = coef.num < 0
    return ("-" if neg else "") + _fmt_term(abs(coef), core)
