import random

import mpmath
import pytest

import rsrforge.polyratio as polyratio
from rsrforge.bench import registry, registry_entry, run_bench
from rsrforge.discovery import normalize_identity, property_from_identity
from rsrforge.expr import (
    Const,
    Product,
    Sum,
    Var,
    atoms_of,
    canonicalize,
    compile_hp,
    free_vars,
    subst_func,
)
from rsrforge.errors import DomainError
from rsrforge.parser import format_expr, parse
from rsrforge.queries import input_vars, monomial_to_expr
from rsrforge.polyratio import (
    expand_to_polynomial,
    normal_scaling,
    rational_residual_zero,
)
from rsrforge.rational import Rational
from tests.conftest import minus


def _is_zero(e) -> bool:
    """e = 0 as a rational identity: its expansion is the empty polynomial."""
    return not expand_to_polynomial(e)[0]


def test_linearity_substitution_example():
    e = subst_func(parse("f(x) + f(y) - f(x+y)"), "f", ("t",), parse("c*t"))
    assert _is_zero(e)


def test_commutativity():
    assert _is_zero(parse("a*b - b*a"))


def test_square_substitution_nonzero():
    e = subst_func(parse("f(x+r) - f(x) - f(r)"), "f", ("t",), parse("t^2"))
    assert not _is_zero(e)
    assert _is_zero(minus(e, parse("2*x*r")))


def test_quotient_identities():
    # (a/b) * (b/a) == 1 formally
    assert _is_zero(parse("(a/b)*(b/a) - 1"))
    # difference of equal fractions
    assert _is_zero(parse("a/(a+b) + b/(a+b) - 1"))


def test_opaque_transcendental_stays_nonzero():
    # exp(x+r) and exp(x)*exp(r) are distinct atoms here by design
    e = parse("exp(x+r) - exp(x)*exp(r)")
    assert not _is_zero(e)


def test_soundness_against_high_precision():
    """Whenever simplification reports zero, high-precision evaluation
    at random in-domain points is tiny."""
    rng = random.Random(5)
    confirmed = 0
    for _ in range(300):
        base = random_expr_rational(rng)
        shuffled = canonicalize(base)
        residual = parse(f"({format_expr(base)}) - ({format_expr(shuffled)})")
        if not _is_zero(residual):
            continue
        names = sorted(free_vars(residual))
        program = compile_hp(residual, {Var(n): i for i, n in enumerate(names)}, 160)
        ok_points = 0
        attempts = 0
        while ok_points < 5 and attempts < 100:
            attempts += 1
            point = [mpmath.mpf(rng.uniform(-3, 3))._mpf_ for _ in names]
            try:
                v = mpmath.mp.make_mpf(program(*point))
            except DomainError:
                continue
            assert abs(v) < 2**-80
            ok_points += 1
        confirmed += 1
    assert confirmed > 100


def random_expr_rational(rng):
    """Small random rational expressions over a, b, c."""
    leaves = [parse(v) for v in "abc"] + [
        Const(Rational(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(3)
    ]

    def build(depth):
        if depth == 0:
            return rng.choice(leaves)
        kind = rng.random()
        lhs, rhs = build(depth - 1), build(depth - 1)
        if kind < 0.45:
            return parse(f"({format_expr(lhs)}) + ({format_expr(rhs)})")
        if kind < 0.9:
            return parse(f"({format_expr(lhs)}) * ({format_expr(rhs)})")
        return parse(f"({format_expr(lhs)})^2")

    return build(rng.randint(1, 3))


def test_identity_normal_form_scaling():
    texts = ("2*f(x+r) - 2*f(x) - 2*f(r)", "f(x+r) - f(x) - f(r)", "-f(x+r) + f(x) + f(r)")
    e1, e2, e3 = (normalize_identity(parse(t)) for t in texts)
    assert e1 == e2 == e3
    p1, atoms1 = expand_to_polynomial(parse(texts[0]))
    assert normal_scaling(p1, atoms1) == {m: c * Rational(1, 2) for m, c in p1.items()}
    p2, atoms2 = expand_to_polynomial(parse(texts[1]))
    assert normal_scaling(p2, atoms2) == p2


def test_identity_normal_form_clears_denominators():
    e = normalize_identity(parse("f(x+log(2)) - 2*f(x)/(1+f(x))"))
    poly, _atoms = expand_to_polynomial(e)
    assert all(c.den == 1 for c in poly.values())


def test_expand_to_polynomial_zero():
    poly, _ = expand_to_polynomial(parse("x*y - y*x"))
    assert poly == {}


def _zero_or_raises(e, closed_form=None, params=None):
    try:
        if closed_form is None:
            return _is_zero(e)
        return rational_residual_zero(e, closed_form, params)
    except DomainError:
        return "DomainError"


def _expression_verdict(substituted, params):
    """The verdict on the whole substituted expression: expanded as it is
    when it has no application, else rewritten and expanded on each open
    cell of its piecewise applications; None when an application stays."""
    family = polyratio._cell_family(substituted, params)
    if family is None:
        return None
    if family == "plain":
        return _zero_or_raises(substituted)
    on_cells = [
        polyratio._on_cell(substituted, family, point)
        for point in polyratio._CELLS[family]
    ]
    if any(not isinstance(a, Var) for c in on_cells for a in atoms_of(c)):
        return None
    return all(_is_zero(on_cell) for on_cell in on_cells)


def _assert_table_matches_expression(e, closed_form, arity):
    params = input_vars(arity)
    try:
        substituted = subst_func(e, "f", params, closed_form)
    except DomainError:
        want = "DomainError"
    else:
        want = _expression_verdict(substituted, params)
    assert _zero_or_raises(e, closed_form, params) == want, format_expr(e)


def _mutant(identity):
    """identity with its first normalized coefficient shifted by 1/100."""
    prop = property_from_identity(identity)
    mono, c = prop.pairs[0]
    shift = Product((Const(Rational(1, 100)), monomial_to_expr(mono, prop.basis)))
    return canonicalize(Sum((identity, shift)))


def test_substitution_table_matches_expression_path():
    """The closed form's table decides every identity as substituting
    into the whole expression and expanding it does."""
    cases = 0
    for entry in registry():
        for gt in entry.ground_truth:
            for e in (gt, _mutant(gt)):
                _assert_table_matches_expression(e, entry.closed_form, entry.arity)
                cases += 1
    assert cases == 98

    names = ["linear", "squared", "square_loss", "inverse", "sign", "exp"]
    report = run_bench(names, seed=1, workers=1)
    for row in report.rows:
        entry = registry_entry(row.name)
        identities = {
            p["identity"] for rep in row.reps for p in rep.get("properties", ())
        }
        assert identities, row.name
        for text in sorted(identities):
            e = parse(text.removesuffix(" = 0"))
            _assert_table_matches_expression(e, entry.closed_form, entry.arity)

    # wrong arity, an f atom in a denominator, and one that vanishes there
    x_plus_1 = parse("x + 1")
    for text in (
        "f(x, y) - f(x)",
        "1/f(x) - 1/(x + 1)",
        "f(x)/(f(y) + 1) - (x + 1)/(y + 2)",
        "1/f(x) - 1/x",
        "f(x)/(f(x) - x - 1)",
        "1/(f(x) - x - 1) + 1",
    ):
        _assert_table_matches_expression(parse(text), x_plus_1, 1)
    assert _zero_or_raises(parse("f(x, y) - f(x)"), x_plus_1, ("x",)) == "DomainError"
    assert _zero_or_raises(parse("1/f(x) - 1/(x + 1)"), x_plus_1, ("x",)) is True
    assert _zero_or_raises(parse("1/(f(x) - x - 1) + 1"), x_plus_1, ("x",)) == "DomainError"


def test_table_keeps_verdicts_but_not_domain_errors():
    """A closed form's table decides an identity once; an input that
    raises DomainError leaves no verdict and raises on every call."""
    x_plus_1 = parse("x + 1")
    polyratio._substitution_table.cache_clear()
    table = polyratio._substitution_table(x_plus_1, ("x",))
    bad = parse("1/(f(x) - x - 1) + 1")
    for _ in range(3):
        with pytest.raises(DomainError):
            rational_residual_zero(bad, x_plus_1, ("x",))
    assert table.verdicts == {}
    good = parse("f(x+r) - f(x) - f(r) + 1")
    assert rational_residual_zero(good, x_plus_1, ("x",)) is True
    assert table.verdicts == {good: True}
    assert rational_residual_zero(good, x_plus_1, ("x",)) is True
    # a verdict belongs to its closed form
    assert rational_residual_zero(good, parse("x^2"), ("x",)) is False
