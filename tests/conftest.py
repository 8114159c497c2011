"""Shared test helpers: a seeded random expression generator, a
property's coefficients by monomial text, and a canonical difference."""

import random

import pytest

from rsrforge.expr import (
    Builtin,
    Const,
    FuncApp,
    Power,
    Product,
    Sum,
    Var,
    canonicalize,
)
from rsrforge.parser import format_expr
from rsrforge.queries import monomial_to_expr
from rsrforge.rational import Rational

_VARS = ("x", "r", "y")
_SAFE_BUILTINS = ("sin", "cos", "exp", "tanh", "arctan")


def random_expr(rng: random.Random, depth: int = 3):
    """Random expression over x, r, y with f-applications and builtins.

    Biased toward arithmetic nodes; depth-0 leaves are constants or
    variables.  Denominators are built from 1 + (something squared) so
    double evaluation rarely leaves the domain.
    """
    if depth == 0:
        if rng.random() < 0.4:
            return Const(Rational(rng.randint(-6, 6), rng.randint(1, 4)))
        return Var(rng.choice(_VARS))
    roll = rng.random()
    if roll < 0.30:
        n = rng.randint(2, 3)
        return Sum(tuple(random_expr(rng, depth - 1) for _ in range(n)))
    if roll < 0.55:
        n = rng.randint(2, 3)
        return Product(tuple(random_expr(rng, depth - 1) for _ in range(n)))
    if roll < 0.65:
        return Power(random_expr(rng, depth - 1), rng.randint(2, 3))
    if roll < 0.75:
        den = Sum(
            (Const(Rational(1)), Power(random_expr(rng, depth - 1), 2))
        )
        return Product((random_expr(rng, depth - 1), Power(den, -1)))
    if roll < 0.85:
        return Builtin(rng.choice(_SAFE_BUILTINS), (random_expr(rng, depth - 1),))
    if roll < 0.95:
        return FuncApp("f", (random_expr(rng, depth - 1),))
    return Var(rng.choice(_VARS))


def coefficient_map(p) -> dict:
    """Monomial-expression string -> Rational, over a property's pairs."""
    return {
        format_expr(monomial_to_expr(mono, p.basis)): coef for mono, coef in p.pairs
    }


def minus(a, b):
    """The canonical expression a - b."""
    return canonicalize(Sum((a, Product((Const(Rational(-1)), b)))))


@pytest.fixture
def expr_rng():
    return random.Random(20240817)
