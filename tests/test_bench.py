import json

import pytest

from rsrforge import discovery, polyratio
from rsrforge.bench import (
    BenchmarkEntry,
    DEGREE_EXCEPTIONS,
    _entry_seed,
    emit_report,
    ground_truth_check,
    registry,
    registry_entry,
    run_bench,
    select_entries,
)
from rsrforge.discovery import InferConfig
from rsrforge.expr import Env, evaluate
from rsrforge.parser import format_expr, parse
from rsrforge.queries import input_vars
from rsrforge.verification import VerifyConfig, symbolic_verify

TABLE_NAMES = [
    "linear", "exp", "exp_minus_one", "exp_div_by_x", "exp_div_by_x_composite",
    "floudas", "mean", "tan", "cot", "diff_squares",
    "inverse_square", "inverse", "inverse_add", "inverse_cot_plus_one",
    "inverse_tan_plus_one", "x_over_one_minus_x", "minus_x_over_one_minus_x",
    "cos", "cosh", "squared", "sin", "sinh", "cube", "log", "sec", "csc",
    "sinc", "sinc_composite", "mod", "mod_mult", "int_mult", "tanh",
    "sigmoid", "softmax2_1", "softmax2_2", "logistic", "logistic_scaled",
    "square_loss", "savage_loss_library", "savage_loss_basis",
    "arcsin", "arccos", "arctan", "arcsinh", "arccosh", "arctanh",
    "relu", "leaky_relu", "swish", "gelu", "log1p", "logit", "log2",
    "sqrt", "cbrt", "x_to_x", "floor", "ceil", "frac", "erf", "gamma",
    "exp_sin", "sin_exp", "log_cos", "sqrt_one_plus_x2", "abs", "sign",
    "gudermannian", "2_to_x", "10_to_x", "pade_1_1", "pade_2_2",
    "continued_fraction_golden", "continued_fraction_tan", "mobius_simple",
    "mobius_inversion", "mobius_cayley", "exp_x2", "exp_cos", "fourth",
]

CATEGORIES = {
    "basic", "exp/log", "trig", "hyperbolic", "inverse-trig",
    "ml-activation", "loss", "special", "discrete", "rational/möbius",
}


def test_registry_is_complete():
    entries = registry()
    assert len(entries) == 80
    assert [e.name for e in entries] == TABLE_NAMES
    assert len({e.name for e in entries}) == 80


def test_registry_categories_and_degree_rule():
    for e in registry():
        assert e.category in CATEGORIES
        expected = 3 if e.category in ("trig", "hyperbolic", "exp/log") else 2
        if e.name in DEGREE_EXCEPTIONS:
            assert e.degree_setting == DEGREE_EXCEPTIONS[e.name]
        else:
            assert e.degree_setting == expected


def test_closed_forms_evaluable_on_domain():
    for e in registry():
        boxes = e.oracle().coordinate_boxes()
        # generic interior point; midpoints can sit exactly on a pole
        point = {
            name: lo + 0.7 * (hi - lo)
            for name, (lo, hi) in zip(input_vars(e.arity), boxes)
        }
        value = evaluate(e.closed_form, Env(point))
        assert value == value  # finite by evaluate's contract


def test_required_entries_present():
    sigmoid = registry_entry("sigmoid")
    assert sigmoid.ground_truth  # the known cubic self-reduction
    assert sigmoid.approx_program == ("sigmoid", 30)
    mean = registry_entry("mean")
    assert mean.arity == 2
    gud = registry_entry("gudermannian")
    assert any("arctan" in format_expr(g) for g in gud.ground_truth)
    with pytest.raises(KeyError):
        registry_entry("nosuch")


def test_ground_truth_self_audit():
    """Every registered identity passes symbolic_verify against its own
    closed form (smaller point count than the default keeps this fast)."""
    cfg = VerifyConfig(hp_points=16)
    for e in registry():
        for gt in e.ground_truth:
            out = symbolic_verify(
                gt, e.closed_form, cfg, box=e.box, arity=e.arity, seed=31
            )
            assert out.passed, (e.name, format_expr(gt), out.reason)


def test_select_entries():
    assert [e.name for e in select_entries(names=["exp", "linear"])] == [
        "linear", "exp",  # registry order, not request order
    ]
    trig = select_entries(category="trig")
    assert all(e.category == "trig" for e in trig) and len(trig) == 10
    with pytest.raises(KeyError):
        select_entries(names=["nosuch"])
    with pytest.raises(KeyError):
        select_entries(category="nosuch")


def test_run_bench_linear_row():
    report = run_bench(names=["linear"], repetitions=2, seed=3, workers=1)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.verified >= 1
    assert row.rsr <= row.verified
    blr = "f(r + x) - f(r) - f(x)"
    matched = row.reps[0]["ground_truth_matched"]
    assert any("f(r + x)" in m for m in matched)


def test_run_bench_isolates_failures():
    bad = BenchmarkEntry(
        name="always_fails",
        closed_form=parse("log(x)"),
        arity=1,
        category="special",
        degree_setting=2,
        box=(-10.0, -1.0),  # never in log's domain: sampling exhausts
    )
    from rsrforge.bench import _run_entry

    row = _run_entry(bad, InferConfig(max_degree=2), VerifyConfig(), 1, 0)
    assert row.error
    assert row.verified == 0


def test_sinc_composite_empty_support_is_not_a_crash():
    # at this seed a fit rationalizes to an empty support; that candidate
    # must be dropped as vacuous instead of failing the whole repetition
    row = run_bench(names=["sinc_composite"], repetitions=1, seed=1, workers=1).rows[0]
    assert row.error == ""


def test_run_bench_approximate_oracles_match_ground_truth():
    report = run_bench(
        names=["exp", "cos", "sin"],
        cfg_overrides={"approximate": True},
        repetitions=1,
        seed=1,
        workers=1,
    )
    for row in report.rows:
        entry = registry_entry(row.name)
        assert entry.ground_truth
        assert row.error == ""
        want = {format_expr(gt) for gt in entry.ground_truth}
        assert set(row.reps[0]["ground_truth_matched"]) == want


def test_ground_truth_check_matching():
    entry = registry_entry("squared")
    from rsrforge.discovery import property_from_identity

    found = [
        property_from_identity(parse("2*f(x+r) + 2*f(x-r) - 4*f(x) - 4*f(r)")),
    ]
    matched = ground_truth_check(entry, found)
    assert len(matched) == 1  # scale-insensitive class match


def test_ground_truth_normalized_once_per_entry(monkeypatch):
    from dataclasses import replace

    import rsrforge.discovery as discovery
    from rsrforge.discovery import property_from_identity

    calls = []

    def counted(e, _original=discovery.property_from_identity):
        calls.append(e)
        return _original(e)

    monkeypatch.setattr(discovery, "property_from_identity", counted)
    entry = replace(registry_entry("squared"))  # a fresh entry, nothing kept
    found = [
        property_from_identity(parse("2*f(x+r) + 2*f(x-r) - 4*f(x) - 4*f(r)")),
    ]
    first = ground_truth_check(entry, found)
    assert ground_truth_check(entry, found) == first and len(first) == 1
    assert calls == list(entry.ground_truth)


def test_emit_report_formats():
    report = run_bench(names=["linear"], repetitions=1, seed=5, workers=1)
    table = emit_report(report, "table")
    header, row = table.splitlines()[:2]
    assert "R / V | U" in header
    assert row.startswith("linear")
    assert " / " in row and " | " in row
    assert row.rstrip().endswith("-")  # timing redacted by default

    timed = emit_report(report, "table", timings=True).splitlines()[1]
    assert timed.rstrip().endswith("s")

    csv_text = emit_report(report, "csv")
    assert csv_text.splitlines()[0].startswith("name,category,degree,rsr")

    doc = json.loads(emit_report(report, "json"))
    assert doc["rows"][0]["name"] == "linear"
    assert doc["rows"][0]["wall_time_seconds"] is None
    props = doc["rows"][0]["reps"][0]["properties"]
    assert props and all("identity" in p for p in props)

    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_empty_report():
    from rsrforge.bench import BenchReport

    text = emit_report(BenchReport(rows=[], seed=0, config={}), "table")
    assert text.splitlines()[0].startswith("name")
    assert len(text.splitlines()) == 1


def test_run_bench_output_does_not_depend_on_workers():
    names = ["linear", "squared", "mean", "sign", "exp"]
    serial = emit_report(run_bench(names, repetitions=1, seed=1, workers=1), "json")
    pooled = emit_report(run_bench(names, repetitions=1, seed=1, workers=2), "json")
    assert pooled == serial


def _clear_caches():
    discovery._basis_and_monomials.cache_clear()
    discovery._class_exprs.cache_clear()
    polyratio._substitution_table.cache_clear()


def test_run_bench_output_does_not_depend_on_caches():
    """The process-level caches of bases, identity classes and verdicts
    change no report: from cleared caches, after other entries filled
    them, on a worker pool from cleared caches, and with every class and
    verdict already cached."""
    names = ["linear", "squared", "mean", "sign", "exp"]

    def report(workers=1):
        return emit_report(
            run_bench(names, repetitions=1, seed=2, workers=workers), "json"
        )

    _clear_caches()
    cold = report()
    _clear_caches()
    others = ["int_mult", "cube", "frac", "cosh", "floudas", "diff_squares"]
    run_bench(others, repetitions=1, seed=1, workers=1)
    assert report() == cold
    assert report() == cold
    _clear_caches()
    assert report(workers=2) == cold


def test_entry_seeds_do_not_alias_modulo_2_32():
    for rep in range(3):
        assert _entry_seed(0, "linear", rep) != _entry_seed(2**32, "linear", rep)
        assert _entry_seed(1, "linear", rep) != _entry_seed(2**32 + 1, "linear", rep)


def test_run_bench_rejects_unknown_override():
    with pytest.raises(ValueError, match="n_test"):
        run_bench(names=["linear"], cfg_overrides={"n_test": 10}, repetitions=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"repetitions": 0},
        {"seed": -1},
        {"cfg_overrides": {"m": 0}},
        {"cfg_overrides": {"max_denominator": 0}},
        {"cfg_overrides": {"max_degree": 0}},
        {"cfg_overrides": {"epsilon": 0}},
        {"workers": 0},
        {"workers": -1},
        {"cfg_overrides": {"epsilon": float("nan")}},
        {"cfg_overrides": {"epsilon": float("inf")}},
        {"cfg_overrides": {"m": 4}},  # split needs 5 rows
    ],
)
def test_run_bench_rejects_bad_shared_settings_before_running(monkeypatch, kwargs):
    import rsrforge.bench as bench

    calls = []
    monkeypatch.setattr(bench, "infer", lambda *args: calls.append(args))
    with pytest.raises(ValueError):
        run_bench(["linear"], **{"workers": 1, **kwargs})
    assert calls == []


def test_bench_monotone_verified_with_more_samples():
    r_small = run_bench(
        names=["linear"], cfg_overrides={"m": 40}, repetitions=1, seed=9, workers=1
    )
    r_big = run_bench(
        names=["linear"], cfg_overrides={"m": 90}, repetitions=1, seed=9, workers=1
    )
    small_matched = set(r_small.rows[0].reps[0]["ground_truth_matched"])
    big_matched = set(r_big.rows[0].reps[0]["ground_truth_matched"])
    assert small_matched <= big_matched
