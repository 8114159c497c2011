"""Where the traced run hooks into rsrforge, and the per-layer metrics.

The layers are rsrforge's modules.  Each hook names the module attribute
a caller looks up, so a call is traced where it crosses into another
module.  ``parser`` is exercised only by registry loading (inside
``setup_s``) and ``cli`` is not driven at all.
"""

from __future__ import annotations

from tracer import Tracer, self_times

LAYERS = (
    "bench",
    "discovery",
    "queries",
    "sampling",
    "regression",
    "polyratio",
    "expr",
    "verification",
)

# spans reported one by one: <name>.calls and <name>.self_pct
SPANS = (
    "regression.fit_lasso",
    "regression.fit_ridge",
    "regression.fit_lstsq",
    "regression.cross_validate",
    "regression.sparsify",
    "regression.rationalize",
    "regression.stability",
    "sampling.draw_samples",
    "expr.canonicalize",
    "expr.evaluate_hp",
    "polyratio.identity_normal_form",
    "polyratio.rational_residual_zero",
    "discovery.infer",
    "discovery.solve_recovery",
    "queries.build_basis",
    "queries.gen_monomials",
    "verification.symbolic_verify",
    "verification.property_test",
    "verification.classify",
    "bench.run_bench",
    "bench.ground_truth_check",
)

# (name, unit, better) of every per-layer metric, in output order
COUNTERS = (
    ("sampling.rows_drawn", "count", "lower"),
    ("sampling.rows_accepted", "count", "lower"),
    ("sampling.accept_ratio", "ratio", "higher"),
    ("sampling.oracle_calls", "count", "lower"),
    ("sampling.oracle_errors", "count", "lower"),
    ("polyratio.exact_zero_ratio", "ratio", "higher"),
    ("queries.columns", "count", "lower"),
    ("discovery.targets", "count", "lower"),
    ("discovery.candidates", "count", "lower"),
    ("discovery.properties", "count", "higher"),
    ("discovery.yield", "ratio", "higher"),
    ("discovery.dedupe_ratio", "ratio", "higher"),
    ("verification.exact_passes", "count", "higher"),
    ("verification.numeric_passes", "count", "higher"),
    ("verification.property_passes", "count", "higher"),
    ("verification.rejects", "count", "lower"),
    ("verification.verified_ratio", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.hooks_absent", "count", "lower"),
)


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric."""
    out = []
    for name in SPANS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_pct", "%", "lower"))
    for layer in LAYERS:
        out.append((f"{layer}.self_pct", "%", "lower"))
    out.extend(COUNTERS)
    return out


def _fit_name(args, kwargs) -> str:
    reg = args[2] if len(args) > 2 else kwargs.get("reg")
    if reg is None or reg.kind == "none" or reg.lam == 0.0:
        return "regression.fit_lstsq"
    return f"regression.fit_{reg.kind}"


def install(tracer: Tracer, oracles) -> None:
    """Put the timing wrappers and counters in place.

    ``oracles`` are the oracles the benchmark built; oracles that
    ``run_bench`` builds for itself are counted through
    ``rsrforge.bench.oracle_from_expr``.
    """
    count = tracer.count

    def columns(out, _a, _k):
        count("queries.columns", len(out))
        count("discovery.targets", sum(1 for m in out if m.degree > 0))

    def accepted(out, _a, _k):
        count("sampling.rows_accepted", out.m)

    def inferred(out, _a, _k):
        props = out[0]
        count("discovery.properties", len(props))
        count("discovery.candidates", sum(1 + len(p.duplicates) for p in props.values()))

    def symbolic(out, _a, _k):
        if not out.passed:
            count("verification.rejects")
        elif out.channel == "symbolic_exact":
            count("verification.exact_passes")
        else:
            count("verification.numeric_passes")

    def tested(out, _a, _k):
        count("verification.property_passes" if out.passed else "verification.rejects")

    def zero(out, _a, _k):
        if out:
            count("polyratio.exact_zero")

    hooks = (
        ("rsrforge.bench.run_bench", "bench.run_bench", None),
        ("rsrforge.bench.ground_truth_check", "bench.ground_truth_check", None),
        ("rsrforge.bench.infer", "discovery.infer", inferred),
        ("rsrforge.bench.classify", "verification.classify", None),
        ("rsrforge.discovery.build_basis", "queries.build_basis", None),
        ("rsrforge.discovery.gen_monomials", "queries.gen_monomials", columns),
        ("rsrforge.discovery.draw_samples", "sampling.draw_samples", accepted),
        ("rsrforge.discovery.fit", _fit_name, None),
        ("rsrforge.discovery.cross_validate", "regression.cross_validate", None),
        ("rsrforge.discovery.sparsify", "regression.sparsify", None),
        ("rsrforge.discovery.rationalize", "regression.rationalize", None),
        ("rsrforge.discovery.stability_sample_complexity", "regression.stability", None),
        ("rsrforge.discovery.canonicalize", "expr.canonicalize", None),
        ("rsrforge.discovery.identity_normal_form", "polyratio.identity_normal_form", None),
        ("rsrforge.discovery.solve_recovery", "discovery.solve_recovery", None),
        ("rsrforge.regression.fit", _fit_name, None),
        ("rsrforge.queries.canonicalize", "expr.canonicalize", None),
        ("rsrforge.polyratio.canonicalize", "expr.canonicalize", None),
        ("rsrforge.verification.symbolic_verify", "verification.symbolic_verify", symbolic),
        ("rsrforge.verification.property_test", "verification.property_test", tested),
        ("rsrforge.verification.draw_samples", "sampling.draw_samples", accepted),
        ("rsrforge.verification.evaluate_hp", "expr.evaluate_hp", None),
        ("rsrforge.verification.rational_residual_zero", "polyratio.rational_residual_zero", zero),
    )
    for target, name, on_return in hooks:
        tracer.wrap(target, name, on_return)

    def count_rows(original):
        def wrapper(*args, **kwargs):
            count("sampling.rows_drawn")
            return original(*args, **kwargs)

        return wrapper

    tracer.patch("rsrforge.sampling.evaluate_atom_row", count_rows)

    def counting(evaluator):
        def wrapper(*args):
            count("sampling.oracle_calls")
            try:
                return evaluator(*args)
            except Exception:
                count("sampling.oracle_errors")
                raise

        wrapper.__wrapped__ = evaluator
        return wrapper

    def counted_oracles(original):
        def wrapper(*args, **kwargs):
            oracle = original(*args, **kwargs)
            oracle.evaluator = counting(oracle.evaluator)
            return oracle

        return wrapper

    tracer.patch("rsrforge.bench.oracle_from_expr", counted_oracles)
    for oracle in oracles:
        oracle.evaluator = counting(oracle.evaluator)
        tracer.on_uninstall(lambda o=oracle: setattr(o, "evaluator", o.evaluator.__wrapped__))


def metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}.

    Self time is reported as a percentage of the traced wall time; spans
    on parallel worker threads can make the layer shares sum past 100.
    """
    spans = tracer.spans()
    per_name = self_times(spans)
    counts = tracer.counts()
    wall = max(traced_wall, 1e-12)

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name in SPANS:
        calls, busy = per_name.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_pct"] = pct(busy)
    for layer in LAYERS:
        busy = sum(s for n, (_c, s) in per_name.items() if n.split(".")[0] == layer)
        out[f"{layer}.self_pct"] = pct(busy)

    c = counts.get
    out["sampling.rows_drawn"] = c("sampling.rows_drawn", 0)
    out["sampling.rows_accepted"] = c("sampling.rows_accepted", 0)
    out["sampling.accept_ratio"] = ratio(c("sampling.rows_accepted", 0), c("sampling.rows_drawn", 0))
    out["sampling.oracle_calls"] = c("sampling.oracle_calls", 0)
    out["sampling.oracle_errors"] = c("sampling.oracle_errors", 0)
    out["polyratio.exact_zero_ratio"] = ratio(
        c("polyratio.exact_zero", 0), per_name.get("polyratio.rational_residual_zero", (0, 0))[0]
    )
    out["queries.columns"] = c("queries.columns", 0)
    out["discovery.targets"] = c("discovery.targets", 0)
    out["discovery.candidates"] = c("discovery.candidates", 0)
    out["discovery.properties"] = c("discovery.properties", 0)
    out["discovery.yield"] = ratio(c("discovery.properties", 0), c("discovery.targets", 0))
    out["discovery.dedupe_ratio"] = ratio(c("discovery.properties", 0), c("discovery.candidates", 0))
    passes = sum(
        c(k, 0)
        for k in (
            "verification.exact_passes",
            "verification.numeric_passes",
            "verification.property_passes",
        )
    )
    out["verification.exact_passes"] = c("verification.exact_passes", 0)
    out["verification.numeric_passes"] = c("verification.numeric_passes", 0)
    out["verification.property_passes"] = c("verification.property_passes", 0)
    out["verification.rejects"] = c("verification.rejects", 0)
    out["verification.verified_ratio"] = ratio(passes, passes + c("verification.rejects", 0))
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / max(untraced_wall, 1e-12)
    out["trace.unattributed_pct"] = pct(per_name.get("job", (0, 0.0))[1])
    out["trace.spans"] = len(spans)
    out["trace.hooks_absent"] = len(tracer.absent)

    units = {name: unit for name, unit, _b in per_layer_spec()}
    return {name: (float(value), units[name]) for name, value in out.items()}
