import json

import numpy as np
import pytest

import rsrforge.discovery as discovery
import rsrforge.polyratio as polyratio
from rsrforge.bench import _entry_seed, ground_truth_check, registry_entry
from rsrforge.discovery import (
    InferConfig,
    count_report,
    infer,
    normalize_identity,
    property_from_identity,
    solve_recovery,
)
from rsrforge.errors import NotSolvable, RationalOverflow
from rsrforge.expr import Const, Product, Sum, canonicalize
from rsrforge.parser import parse
from rsrforge.polyratio import expand_to_polynomial, normal_scaling
from rsrforge.queries import default_query_class, monomial_to_expr, queries_by_name
from rsrforge.rational import Rational
from rsrforge.regression import rationalize
from rsrforge.sampling import oracle_from_expr
from tests.conftest import coefficient_map, minus
from tests.test_regression import _EXACT_POLY

BLR = normalize_identity(parse("f(x+r) - f(x) - f(r)"))


def test_infer_linear_finds_blr():
    oracle = oracle_from_expr("linear", parse("3*x"), 1)
    props, errs, scs, err = infer(oracle, InferConfig(max_degree=1, m=50, seed=1))
    assert err is None
    hits = [p for p in props.values() if p.identity == BLR]
    assert hits, "BLR class missing"
    p = hits[0]
    assert coefficient_map(p) == {
        "f(r + x)": Rational(1),
        "f(x)": Rational(-1),
        "f(r)": Rational(-1),
    }
    assert p.test_residual < 1e-9
    assert errs[p.id] == p.test_residual
    assert scs[p.id] == p.sample_complexity >= 1


def test_infer_exp_addition_law():
    oracle = oracle_from_expr("exp", parse("exp(x)"), 1, box=(-3.0, 3.0))
    cfg = InferConfig(max_degree=2, m=100, seed=2)
    props, _, _, err = infer(oracle, cfg)
    want = normalize_identity(parse("f(x+r) - f(x)*f(r)"))
    assert any(p.identity == want for p in props.values())


def test_infer_empty_result_channel():
    oracle = oracle_from_expr("gamma", parse("gamma(x)"), 1, box=(0.5, 6.0))
    props, errs, scs, err = infer(oracle, InferConfig(max_degree=2, m=60, seed=3))
    assert props == {} and errs == {} and scs == {}
    assert "no property" in err


def test_queries_used_matches_support():
    oracle = oracle_from_expr("linear", parse("3*x"), 1)
    props, _, _, _ = infer(oracle, InferConfig(max_degree=1, m=50, seed=1))
    p = next(p for p in props.values() if p.identity == BLR)
    assert sorted(q.name for q in p.queries_used) == ["r", "x", "x+r"]


def test_infer_deterministic():
    oracle = oracle_from_expr("squared", parse("x^2"), 1)
    cfg = InferConfig(max_degree=1, m=60, seed=5)
    out1 = infer(oracle, cfg)
    out2 = infer(oracle, cfg)
    doc1 = json.dumps({k: p.to_json_dict() for k, p in out1[0].items()})
    doc2 = json.dumps({k: p.to_json_dict() for k, p in out2[0].items()})
    assert doc1 == doc2
    assert list(out1[0]) == list(out2[0])


def test_solve_recovery_blr():
    p = property_from_identity(parse("f(x+r) - f(x) - f(r)"))
    rec, cof = solve_recovery(p)
    assert rec == parse("f(x+r) - f(r)")


def test_solve_recovery_sigmoid_formula():
    ident = parse(
        "2*f(x)*f(x+r)*f(r) - f(x)*f(x+r) - f(x)*f(r) - f(x+r)*f(r) + f(x+r)"
    )
    p = property_from_identity(ident)
    rec, cof = solve_recovery(p)
    want = parse("f(x+r)*(f(r)-1)/(2*f(x+r)*f(r)-f(x+r)-f(r))")
    assert not expand_to_polynomial(minus(rec, want))[0]


def test_solve_recovery_not_solvable():
    p = property_from_identity(parse("f(x)^2 - f(x+r)*f(x-r)"))
    with pytest.raises(NotSolvable):
        solve_recovery(p)
    q = property_from_identity(parse("f(x+r) - f(r)*f(x-r)"))
    with pytest.raises(NotSolvable):
        solve_recovery(q)  # f(x) absent


def test_normalize_identity_scale_and_sign():
    a = normalize_identity(parse("2*f(x+r) - 2*f(x) - 2*f(r)"))
    b = normalize_identity(parse("f(x)+f(r)-f(x+r)"))
    assert a == b == BLR


def test_identity_classes_form_on_arrival(monkeypatch):
    """One Property per normalized identity, from its lowest id; later
    arrivals only add their ids and skip stability and recovery, and a
    class met in an earlier run is not rebuilt."""
    calls = {"solve_recovery": 0, "stability_sample_complexity": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(discovery, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(discovery, name, counted)

    later = 0
    for name in ("linear", "squared", "floudas"):
        entry = registry_entry(name)
        cfg = InferConfig(max_degree=entry.degree_setting, seed=1)
        discovery._class_exprs.cache_clear()
        before = dict(calls)
        props, _, _, _ = infer(entry.oracle(), cfg)
        reps = list(props.values())
        ids = [int(pid[1:]) for pid in props]
        assert ids == sorted(ids), name  # ascending id order
        for fn in calls:
            assert calls[fn] - before[fn] == len(reps), (name, fn)
        before = dict(calls)
        assert infer(entry.oracle(), cfg)[0] == props
        assert calls["solve_recovery"] == before["solve_recovery"], name
        assert calls["stability_sample_complexity"] - before[
            "stability_sample_complexity"
        ] == len(reps), name
        assert len({p.identity for p in reps}) == len(reps), name
        for p in reps:
            ids = [int(d[1:]) for d in p.duplicates]
            assert ids == sorted(ids) and all(i > int(p.id[1:]) for i in ids)
            later += len(ids)
            rebuilt = canonicalize(
                Sum(
                    tuple(
                        Product((Const(c), monomial_to_expr(mono, p.basis)))
                        for mono, c in p.pairs
                    )
                )
            )
            assert normalize_identity(rebuilt) == p.identity
            poly, atoms = expand_to_polynomial(rebuilt)
            assert normal_scaling(poly, atoms) == poly  # scale 1
    assert later > 0


def test_process_caches_are_bounded():
    for cache in (
        discovery._basis_and_monomials,
        discovery._class_exprs,
        polyratio._substitution_table,
    ):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 10_000


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scaled_coefficients_key_the_same_classes_as_expressions(monkeypatch, seed):
    """Classes keyed by a candidate's coprime integer coefficients are the
    classes keyed by its normalized identity expression: the same
    representatives, identities and duplicates."""
    arrivals = []
    finish = discovery._Run.finish

    def recorded(run, tcol, support, raw, pid):
        survived = finish(run, tcol, support, raw, pid)
        if survived:
            rats = [rationalize(c, run.cfg.max_denominator) for c in raw]
            pairs = [(run.monomials[tcol], Rational(1))] + [
                (run.monomials[j], -r) for j, r in zip(support, rats) if not r.is_zero
            ]
            candidate = canonicalize(
                Sum(
                    tuple(
                        Product((Const(c), monomial_to_expr(m, run.basis)))
                        for m, c in pairs
                    )
                )
            )
            arrivals.append((pid, normalize_identity(candidate)))
        return survived

    monkeypatch.setattr(discovery._Run, "finish", recorded)
    for name in _EXACT_POLY:
        entry = registry_entry(name)
        arrivals.clear()
        cfg = InferConfig(
            max_degree=entry.degree_setting, seed=_entry_seed(seed, name, 0)
        )
        props, _, _, _ = infer(entry.oracle(), cfg)
        by_expr = {}
        for pid, identity in arrivals:
            by_expr.setdefault(identity, []).append(pid)
        want = {ids[0]: (identity, ids[1:]) for identity, ids in by_expr.items()}
        got = {p.id: (p.identity, list(p.duplicates)) for p in props.values()}
        assert got == want, name
        assert list(props) == list(want), name


def test_count_report():
    def mk(pid, status, with_recovery):
        p = property_from_identity(parse("f(x+r) - f(x) - f(r)"), pid=pid)
        from dataclasses import replace

        rec = parse("f(x+r) - f(r)") if with_recovery else None
        return replace(p, status=status, recovery=rec)

    props = [
        mk("p1", "verified_symbolic", True),
        mk("p2", "verified_numeric", True),
        mk("p3", "verified_symbolic", True),
        mk("p4", "verified_numeric", False),
        mk("p5", "unverified", False),
        mk("p6", "unverified", True),
    ]
    assert count_report(props) == (3, 4, 2)
    assert count_report([]) == (0, 0, 0)
    from dataclasses import replace

    allbad = [replace(p, status="unverified") for p in props]
    assert count_report(allbad) == (0, 0, 3 + 3)


def test_sigmoid_identity_normalized_coefficients():
    """The headline identity's normalized integer coefficient map."""
    ident = parse(
        "-2*f(x)*f(x+r)*f(r) + f(x)*f(x+r) + f(x)*f(r) + f(x+r)*f(r) - f(x+r)"
    )
    p = property_from_identity(ident)
    assert coefficient_map(p) == {
        "f(r)*f(x)*f(r + x)": Rational(2),
        "f(x)*f(r + x)": Rational(-1),
        "f(r)*f(x)": Rational(-1),
        "f(r)*f(r + x)": Rational(-1),
        "f(r + x)": Rational(1),
    }


def test_infer_config_validation():
    for eps in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            InferConfig(epsilon=eps)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        InferConfig(seed=-1)
    with pytest.raises(ValueError):
        InferConfig(max_degree=0)
    for m in (0, 4):  # split needs 5 rows
        with pytest.raises(ValueError, match="m must be at least 5"):
            InferConfig(m=m)
    assert InferConfig(m=5).m == 5
    with pytest.raises(ValueError, match="max_denominator must be at least 1"):
        InferConfig(max_denominator=0)


def test_snapshot_lists_every_field():
    from dataclasses import fields

    from rsrforge.bench import _OVERRIDE_KEYS

    keys = list(InferConfig().snapshot())
    assert keys == [f.name for f in fields(InferConfig)]
    assert _OVERRIDE_KEYS - {"approximate"} <= set(keys)
    queries = tuple(queries_by_name(["x+r", "x"], 1))
    assert InferConfig(queries=queries).snapshot()["queries"] == ["x+r", "x"]


def test_property_json_schema():
    oracle = oracle_from_expr("linear", parse("3*x"), 1)
    props, _, _, _ = infer(oracle, InferConfig(max_degree=1, m=50, seed=1))
    p = next(iter(props.values()))
    doc = p.to_json_dict()
    for key in (
        "id",
        "identity",
        "recovery",
        "side_condition",
        "queries",
        "coefficients",
        "train_mse",
        "test_residual",
        "status",
        "sample_complexity",
    ):
        assert key in doc
    assert doc["identity"].endswith("= 0")
    assert all(set(c) == {"monomial", "rational"} for c in doc["coefficients"])


def _replace_atom(e, atom, replacement):
    from rsrforge.expr import Builtin, FuncApp, Power, Product, Sum, Var, Const

    if e == atom:
        return replacement
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Builtin):
        return Builtin(e.name, tuple(_replace_atom(a, atom, replacement) for a in e.args))
    if isinstance(e, FuncApp):
        return FuncApp(e.name, tuple(_replace_atom(a, atom, replacement) for a in e.args))
    if isinstance(e, Sum):
        return Sum(tuple(_replace_atom(t, atom, replacement) for t in e.terms))
    if isinstance(e, Product):
        return Product(tuple(_replace_atom(f, atom, replacement) for f in e.factors))
    if isinstance(e, Power):
        return Power(_replace_atom(e.base, atom, replacement), e.exp)
    raise TypeError(e)


def test_recovery_substitutes_back_to_zero():
    """Substituting the solved form for f(x) kills the identity exactly."""
    for ident_text in (
        "f(x+r) - f(x) - f(r)",
        "2*f(x)*f(x+r)*f(r) - f(x)*f(x+r) - f(x)*f(r) - f(x+r)*f(r) + f(x+r)",
        "f(x+r)*f(x) + f(x+r)*f(r) - f(x)*f(r) + 1",
    ):
        p = property_from_identity(parse(ident_text))
        rec, _cof = solve_recovery(p)
        substituted = canonicalize(_replace_atom(p.identity, parse("f(x)"), rec))
        assert not expand_to_polynomial(substituted)[0], ident_text


def test_sigmoid_criterion_queries():
    oracle = oracle_from_expr("sigmoid", parse("1/(1+exp(-x))"), 1)
    queries = tuple(queries_by_name(["x+r", "x-r", "r", "x"]))
    cfg = InferConfig(queries=queries, max_degree=3, m=100, seed=0)
    props, _, _, _ = infer(oracle, cfg)
    want = normalize_identity(
        parse("2*f(x)*f(x+r)*f(r) - f(x)*f(x+r) - f(x)*f(r) - f(x+r)*f(r) + f(x+r)")
    )
    assert any(p.identity == want for p in props.values())


def test_overflowing_candidate_does_not_sink_infer(monkeypatch):
    # 84 monomials over 80 train rows, so the design is underdetermined;
    # a candidate's coprime integer coefficients pass 2^127 here, and it
    # must be dropped, not end the whole run
    raised = []

    def counted(*args, _original=discovery.normal_scaling):
        try:
            return _original(*args)
        except RationalOverflow:
            raised.append(args)
            raise

    monkeypatch.setattr(discovery, "normal_scaling", counted)
    entry = registry_entry("exp_x2")
    queries = tuple(default_query_class(1)) + tuple(queries_by_name(["sqrt(x^2+r^2)"]))
    cfg = InferConfig(queries=queries, max_degree=3, seed=_entry_seed(1, "exp_x2", 0))
    props, _errs, _scs, err = infer(entry.oracle(), cfg)
    assert err is None and props and raised
    assert ground_truth_check(entry, list(props.values())) == [
        "f(sqrt(r^2 + x^2)) - f(r)*f(x)"
    ]


def test_null_space_finds_exponential_law():
    # route A's elimination for the same target lands on
    # f(r)^2*f(x - r) - f(r)*f(x) here; the addition law itself comes
    # from the null-space echelon basis
    entry = registry_entry("10_to_x")
    cfg = InferConfig(max_degree=3, seed=_entry_seed(1, "10_to_x", 0))
    props, _, _, _ = infer(entry.oracle(), cfg)
    want = normalize_identity(parse("f(r + x) - f(r)*f(x)"))
    assert any(p.identity == want for p in props.values())


def test_infer_factors_its_design_once(monkeypatch):
    """One SVD per infer; least squares runs only in the stability count."""
    svds = []
    inside = []
    lstsq_outside = []
    svd, lstsq = np.linalg.svd, np.linalg.lstsq

    def counted_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    def watched_lstsq(*args, **kwargs):
        if not inside:
            lstsq_outside.append(args[0].shape)
        return lstsq(*args, **kwargs)

    def stability(*args, _original=discovery.stability_sample_complexity):
        inside.append(True)
        try:
            return _original(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "lstsq", watched_lstsq)
    monkeypatch.setattr(discovery, "stability_sample_complexity", stability)
    for name in ("linear", "mean", "floudas"):
        entry = registry_entry(name)
        svds.clear()
        cfg = InferConfig(max_degree=entry.degree_setting, seed=_entry_seed(1, name, 0))
        props, _, _, err = infer(entry.oracle(), cfg)
        assert err is None and props, name
        assert len(svds) == 1, name
    assert lstsq_outside == []


_JENSEN = {
    "linear": "f(x+r) + f(x-r) - 2*f(x)",
    "mean": "f(x+r1, y+r2) + f(x-r1, y-r2) - 2*f(x, y)",
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_JENSEN))
def test_elimination_finds_jensen_identity(name, seed):
    # route B's echelon rows pivot on the highest degree and miss the
    # Jensen-type identity; it comes from route A's odd ids
    entry = registry_entry(name)
    cfg = InferConfig(max_degree=entry.degree_setting, seed=_entry_seed(seed, name, 0))
    props, _, _, _ = infer(entry.oracle(), cfg)
    want = normalize_identity(parse(_JENSEN[name]))
    hits = [p for p in props.values() if p.identity == want]
    assert hits, (name, seed)
    assert int(hits[0].id[1:]) % 2 == 1


def test_elimination_support_is_a_fixed_point(monkeypatch):
    """No column of an elimination candidate's support can be dropped
    while a null vector with a nonzero target coefficient remains."""
    seen = []
    finish = discovery._Run.finish

    def recorded(run, tcol, support, raw, pid):
        if int(pid[1:]) % 2 == 1:
            seen.append((run.null, tcol, list(support)))
        return finish(run, tcol, support, raw, pid)

    monkeypatch.setattr(discovery._Run, "finish", recorded)
    for name in _EXACT_POLY:
        entry = registry_entry(name)
        seen.clear()
        cfg = InferConfig(max_degree=entry.degree_setting, seed=_entry_seed(1, name, 0))
        infer(entry.oracle(), cfg)
        assert seen, name
        for V, tcol, support in seen:
            target = V[:, tcol]
            for i in support:
                zero = [
                    c
                    for c in range(V.shape[1])
                    if c != tcol and (c == i or c not in support)
                ]
                # project the target's column off the span of the columns
                # forced to zero: it vanishes iff v[tcol] must vanish too
                u, sing, _ = np.linalg.svd(V[:, zero], full_matrices=False)
                span = u[:, sing > 1e-6 * max(1.0, sing[0])]
                rest = target - span @ (span.T @ target)
                assert np.linalg.norm(rest) < 1e-6, (name, tcol, i)
