from itertools import combinations_with_replacement
from math import comb

import pytest

from rsrforge.errors import CombinatorialBlowup
from rsrforge.expr import Sum, Var, canonicalize, free_vars
from rsrforge.parser import format_expr, parse
from rsrforge.queries import (
    Monomial,
    build_basis,
    default_query_class,
    extended_query_library,
    gen_monomials,
    monomial_to_expr,
    queries_by_name,
)


def test_default_class_arity_one():
    qs = default_query_class(1)
    assert [q.name for q in qs] == ["x+r", "x-r", "x*r", "x", "r"]
    assert len(qs) == 5


def test_default_class_arity_two():
    qs = default_query_class(2)
    assert len(qs) == 10
    names = {q.name for q in qs}
    assert names == {
        "x+r1", "y+r2", "x-r1", "y-r2", "x*r1", "y*r2", "x", "y", "r1", "r2",
    }


def test_additive_filter():
    # every default query but x*r is additive: a sum or a bare variable
    qs = [q for q in default_query_class(1) if isinstance(q.expr, (Sum, Var))]
    assert [q.name for q in qs] == ["x+r", "x-r", "x", "r"]


def test_arity_validation():
    with pytest.raises(ValueError):
        default_query_class(0)


def test_extended_library_contents():
    lib = extended_query_library()
    names = [q.name for q in lib]
    assert "x^2" in names and "sqrt(x*r)" in names
    assert "x*r/(x+r)" in names
    for required in ["x^3", "x^4", "x/(1+x)", "x+r-x*r", "x+log(k)",
                     "sqrt(x^2+r^2)", "1-1/x"]:
        assert required in names
    for q in lib:
        assert canonicalize(q.expr) == q.expr  # canonicalizes without error
        assert (q.group, q.coordinate) == (q.name, 0)


def test_library_names_resolve_to_library_queries():
    lib = extended_query_library()
    assert queries_by_name([q.name for q in lib]) == lib


def test_basis_building():
    basis = build_basis("f", default_query_class(1), 1)
    assert [format_expr(t) for t in basis.terms] == [
        "f(r + x)", "f(x - r)", "f(r*x)", "f(x)", "f(r)",
    ]
    basis2 = build_basis("f", default_query_class(2), 2)
    assert len(basis2) == 5
    assert format_expr(basis2.terms[0]) == "f(r1 + x, r2 + y)"


def test_basis_with_raw_vars():
    basis = build_basis("f", default_query_class(1), 1, include_raw_vars=True)
    assert [format_expr(t) for t in basis.terms[-2:]] == ["x", "r"]


def test_gen_monomials_counts_against_enumeration():
    for k in range(1, 7):
        basis = build_basis("f", default_query_class(1), 1)
        terms = basis.terms[:k] if k <= 5 else basis.terms
        from rsrforge.queries import TermBasis

        sub = TermBasis(terms=tuple(terms[:k])) if k <= 5 else basis
        for d in range(1, 5):
            if len(sub) < 1:
                continue
            monos = gen_monomials(sub, d)
            # independent enumeration oracle
            expected = set()
            for g in range(0, d + 1):
                for combo in combinations_with_replacement(range(len(sub)), g):
                    exps = [0] * len(sub)
                    for idx in combo:
                        exps[idx] += 1
                    expected.add(tuple(exps))
            assert len(monos) == comb(len(sub) + d, d)
            assert {m.exponents for m in monos} == expected


def test_monomial_order_matches_docstring_example():
    from rsrforge.queries import TermBasis

    basis = TermBasis(terms=(parse("f(x)"), parse("f(x-y)")))
    monos = gen_monomials(basis, 2)
    rendered = [format_expr(monomial_to_expr(m, basis)) for m in monos]
    assert rendered == [
        "f(x)", "f(x - y)", "f(x)^2", "f(x)*f(x - y)", "f(x - y)^2", "1",
    ]
    assert gen_monomials(basis, 1)[-1].exponents == (0, 0)


def test_monomial_cap():
    basis = build_basis("f", default_query_class(2), 2)
    with pytest.raises(CombinatorialBlowup):
        gen_monomials(basis, 4, cap=50)


def test_monomial_to_expr_examples():
    from rsrforge.queries import TermBasis

    basis = TermBasis(terms=(parse("f(x)"), parse("f(r)")))
    assert format_expr(monomial_to_expr(Monomial((1, 1)), basis)) == "f(r)*f(x)"
    assert format_expr(monomial_to_expr(Monomial((0, 0)), basis)) == "1"

    basis3 = TermBasis(terms=(parse("f(x)"), parse("f(x+r)"), parse("f(r)")))
    cubic = monomial_to_expr(Monomial((1, 1, 1)), basis3)
    assert cubic == parse("f(x)*f(x+r)*f(r)")


def test_monomial_free_vars_confined():
    basis = build_basis("f", default_query_class(2), 2)
    monos = gen_monomials(basis, 2)
    allowed = {"x", "y", "r1", "r2"}
    for m in monos:
        assert free_vars(monomial_to_expr(m, basis)) <= allowed


def test_enumeration_is_pure():
    basis = build_basis("f", default_query_class(1), 1)
    a = gen_monomials(basis, 3)
    b = gen_monomials(basis, 3)
    assert [m.exponents for m in a] == [m.exponents for m in b]


def test_queries_by_name():
    qs = queries_by_name(["x+r", "x-r", "r", "x"])
    assert [q.name for q in qs] == ["x+r", "x-r", "r", "x"]
    custom = queries_by_name(["x+2*r"])
    assert custom[0].expr == parse("x+2*r")
