import random
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rsrforge.expr as expr
import rsrforge.polyratio as polyratio
import rsrforge.verification as verification
from rsrforge.bench import registry_entry, run_bench
from rsrforge.discovery import property_from_identity
from rsrforge.errors import DomainError, ExpansionTooLarge, SamplingExhausted
from rsrforge.expr import Const, Product, Sum, canonicalize
from rsrforge.parser import parse
from rsrforge.polyratio import rational_residual_zero
from rsrforge.queries import input_vars, monomial_to_expr
from rsrforge.rational import Rational
from rsrforge.sampling import Oracle, draw_samples, oracle_from_expr, taylor_program
from rsrforge.verification import (
    CHANNEL_PROPERTY_TEST,
    CHANNEL_SYMBOLIC_EXACT,
    CHANNEL_SYMBOLIC_NUMERIC,
    VerifyConfig,
    VerifyOutcome,
    classify,
    property_test,
    symbolic_verify,
)

CFG = VerifyConfig()
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_property_test_true_identity():
    p = property_from_identity(parse("f(x+r) - f(x)*f(r)"))
    oracle = oracle_from_expr("exp", parse("exp(x)"), 1, box=(-3, 3))
    out = property_test(p, oracle, CFG, seed=1)
    assert out.passed and out.channel == CHANNEL_PROPERTY_TEST
    assert out.mean_abs_residual < 1e-12


def test_property_test_wrong_oracle():
    p = property_from_identity(parse("f(x+r) - f(x)*f(r)"))
    oracle = oracle_from_expr("sin", parse("sin(x)"), 1)
    out = property_test(p, oracle, CFG, seed=1)
    assert not out.passed
    assert out.reason.endswith("over 1000 fresh samples")


def test_property_test_sigmoid_mutant():
    ident = parse(
        "2*f(x)*f(x+r)*f(r) - f(x)*f(x+r) - f(x)*f(r) - f(x+r)*f(r) + f(x+r)"
    )
    p = property_from_identity(ident)
    oracle = oracle_from_expr("sigmoid", parse("1/(1+exp(-x))"), 1)
    assert property_test(p, oracle, CFG, seed=2).passed
    # perturb the leading 2 to 201/100
    mono, coef = p.pairs[0]
    assert coef == Rational(2)
    mutant = replace(p, pairs=((mono, Rational(201, 100)),) + p.pairs[1:])
    out = property_test(mutant, oracle, CFG, seed=2)
    assert not out.passed


def _full_table_reference(p, oracle, cfg, seed):
    """property_test as it was before it could stop early: all 1000 rows
    from draw_samples, then the mean and max of the scaled residuals."""
    monomials = [mono for mono, _coef in p.pairs]
    coeffs = np.array([float(coef) for _mono, coef in p.pairs])
    values = draw_samples(oracle, p.basis, monomials, 1000, seed).monomial_values
    residual = np.abs(values @ coeffs)
    scaled = residual / np.maximum(1.0, np.max(np.abs(values), axis=1))
    mean_res, max_res = float(np.mean(scaled)), float(np.max(scaled))
    return mean_res <= cfg.epsilon and max_res <= 10 * cfg.epsilon, mean_res, max_res


@pytest.fixture(scope="module")
def verify_known_cases():
    """The verify-known benchmark's cases: the 49 registered ground truths
    and a 1/100 mutant of each, built by the benchmark's own setup."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    workload = workloads.VerifyKnownWorkload()
    workload.setup(11)
    assert len(workload.cases) == 98
    return workload.cases


def test_property_test_matches_full_table_on_verify_known(verify_known_cases):
    """Stopping early changes no verdict, and a pass reports the full
    table's mean and max bit for bit."""
    early = 0
    for k, case in enumerate(verify_known_cases):
        for seed in range(5):
            seed = 1000 * k + seed
            out = property_test(case.prop, case.oracle, CFG, seed=seed)
            passed, mean_res, max_res = _full_table_reference(
                case.prop, case.oracle, CFG, seed
            )
            assert out.passed == passed, (case.label, seed)
            if passed:
                assert (out.mean_abs_residual, out.max_abs_residual) == (
                    mean_res,
                    max_res,
                ), (case.label, seed)
            else:
                # an early fail reports lower bounds on the full figures
                assert out.mean_abs_residual <= mean_res * (1 + 1e-12)
                assert out.max_abs_residual <= max_res
                early += (out.mean_abs_residual, out.max_abs_residual) != (
                    mean_res,
                    max_res,
                )
    assert early > 0


def test_property_test_stops_early_only_on_a_certain_fail():
    ident = parse(
        "2*f(x)*f(x+r)*f(r) - f(x)*f(x+r) - f(x)*f(r) - f(x+r)*f(r) + f(x+r)"
    )
    p = property_from_identity(ident)
    oracle = oracle_from_expr("sigmoid", parse("1/(1+exp(-x))"), 1)
    inner = oracle.evaluator
    calls = []
    oracle.evaluator = lambda x: calls.append(x) or inner(x)
    assert len(p.basis) == 3  # f(x), f(r) and f(x+r): three calls per row
    assert property_test(p, oracle, CFG, seed=2).passed
    assert len(calls) == 3 * 1000
    mono, coef = p.pairs[0]
    mutant = replace(p, pairs=((mono, Rational(201, 100)),) + p.pairs[1:])
    calls.clear()
    out = property_test(mutant, oracle, CFG, seed=2)
    assert not out.passed
    rows = len(calls) // 3
    assert len(calls) == 3 * rows and rows < 1000
    assert f"the first {rows} rows" in out.reason
    assert out.reason.endswith("over 1000 fresh samples")


def test_property_test_fails_before_the_oracle_exhausts():
    # the oracle leaves its domain for good after 900 calls (300 rows):
    # the full table raises SamplingExhausted, but the first rows already
    # refute the identity, so property_test fails without drawing further
    p = property_from_identity(parse("f(x+r) - f(x)*f(r)"))
    inner = oracle_from_expr("sin", parse("sin(x)"), 1).evaluator
    calls = []

    def failing(x):
        calls.append(x)
        if len(calls) > 900:
            raise DomainError("outside the domain from here on")
        return inner(x)

    oracle = Oracle(arity=1, evaluator=failing, name="sin")
    with pytest.raises(SamplingExhausted):
        _full_table_reference(p, oracle, CFG, 1)
    calls.clear()
    out = property_test(p, oracle, CFG, seed=1)
    assert not out.passed and len(calls) < 900
    # classify gives unverified either way: here from the fail, and from
    # SamplingExhausted once every call leaves the domain
    assert classify(p, oracle, None, CFG, seed=1).status == "unverified"
    calls.extend([0.0] * 900)
    out = classify(p, oracle, None, CFG, seed=1)
    assert out.status == "unverified" and "consecutive rejected draws" in out.reason


def test_property_test_epsilon_monotone():
    ident = parse("f(x+r) - f(x) - f(r)")
    p = property_from_identity(ident)
    oracle = oracle_from_expr("linear", parse("3*x"), 1)
    for eps in (1e-6, 1e-3, 1e-1):
        out = property_test(p, oracle, VerifyConfig(epsilon=eps), seed=3)
        assert out.passed  # pass at eps implies pass at larger eps, same seed


def test_verify_config_rejects_non_finite_epsilon():
    for eps in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            VerifyConfig(epsilon=eps)


def test_symbolic_exact_linearity_example():
    out = symbolic_verify("Eq(f(x) + f(y) - f(x+y), 0)", parse("c*x"), CFG)
    assert out.passed and out.channel == CHANNEL_SYMBOLIC_EXACT
    assert out.reason == ""
    out2 = symbolic_verify("f(x) + f(y) - f(x+y)", parse("c*x"), CFG)
    assert out2.passed and out2.channel == CHANNEL_SYMBOLIC_EXACT


def test_symbolic_fail_carries_witness():
    out = symbolic_verify("f(x+y) - f(x) - f(y)", parse("sin(x)"), CFG, seed=4)
    assert not out.passed
    assert "witness" in out.reason


def test_symbolic_numeric_log():
    out = symbolic_verify(
        "f(x*r) - f(x) - f(r)", parse("log(x)"), CFG, box=(0.001, 10), seed=5
    )
    assert out.passed and out.channel == CHANNEL_SYMBOLIC_NUMERIC
    assert out.max_abs_residual < 2**-100


@pytest.mark.parametrize(
    "closed_form, channel",
    [("3*x", CHANNEL_SYMBOLIC_EXACT), ("sin(x)", CHANNEL_SYMBOLIC_NUMERIC)],
)
def test_negative_seed_rejected_up_front(monkeypatch, closed_form, channel):
    # the exact channel decides 3*x and the 256-bit channel sin(x); a
    # negative seed is refused before either runs, whichever would decide
    ident, cf = "f(x+r) - f(x) - f(r)", parse(closed_form)
    assert symbolic_verify(ident, cf, CFG, seed=0).channel == channel
    calls = []
    exact = verification.rational_residual_zero
    monkeypatch.setattr(
        verification, "rational_residual_zero", lambda *a: calls.append(a) or exact(*a)
    )
    with pytest.raises(ValueError, match="seed must be non-negative"):
        symbolic_verify(ident, cf, CFG, seed=-1)
    assert calls == []
    p = property_from_identity(parse(ident))
    oracle = oracle_from_expr("o", cf, 1)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        property_test(p, oracle, CFG, seed=-1)
    for form in (cf, None):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            classify(p, oracle, form, CFG, seed=-1)


def test_verify_outcome_requires_reason_on_fail():
    with pytest.raises(ValueError):
        VerifyOutcome("fail", CHANNEL_PROPERTY_TEST, 1.0, 1.0, reason="")


def test_classify_paths():
    blr = property_from_identity(parse("f(x+r) - f(x) - f(r)"))
    linear = oracle_from_expr("linear", parse("3*x"), 1)
    out = classify(blr, linear, closed_form=parse("3*x"), cfg=CFG, seed=6)
    assert out.status == "verified_symbolic"
    assert out.channel == CHANNEL_SYMBOLIC_EXACT

    # no closed form registered: numeric at best
    taylor = taylor_program("sigmoid", 30, box=(-4, 4))
    ident = parse(
        "2*f(x)*f(x+r)*f(r) - f(x)*f(x+r) - f(x)*f(r) - f(x+r)*f(r) + f(x+r)"
    )
    p = property_from_identity(ident)
    out = classify(p, taylor, closed_form=None, cfg=CFG, seed=6)
    assert out.status == "verified_numeric"

    # a wrong identity ends up unverified with a reason
    bad = property_from_identity(parse("f(x+r) - f(x) - 2*f(r)"))
    out = classify(bad, linear, closed_form=parse("3*x"), cfg=CFG, seed=6)
    assert out.status == "unverified"
    assert out.reason


def test_classify_symbolic_fail_is_final(monkeypatch):
    # the registered closed form refutes the identity, so the oracle is
    # never sampled and the reason is the witness line alone
    def no_sampling(*args, **kwargs):
        raise AssertionError("property_test ran after a symbolic fail")

    monkeypatch.setattr(verification, "property_test", no_sampling)
    closed = parse("exp(x)")
    oracle = oracle_from_expr("exp", closed, 1, box=(-3.0, 3.0))
    p = property_from_identity(parse("f(x+r) - f(x) - f(r)"))
    out = classify(p, oracle, closed_form=closed, cfg=CFG, seed=5)
    witness = symbolic_verify(p.identity, closed, CFG, box=(-3.0, 3.0), seed=5)
    assert not witness.passed
    assert out.status == "unverified"
    assert out.channel == ""
    assert out.reason == witness.reason
    assert "witness point" in out.reason


def test_classify_falls_back_to_property_test_without_test_points():
    # on (20, 30) every guard atom exceeds the pole-guard magnitude, so
    # symbolic_verify finds no in-domain point and the oracle decides
    closed = parse("exp(x)")
    oracle = oracle_from_expr("exp", closed, 1, box=(20.0, 30.0))
    p = property_from_identity(parse("f(x+r) - f(x)*f(r)"))
    with pytest.raises(DomainError):
        symbolic_verify(p.identity, closed, CFG, box=oracle.box, seed=5)
    out = classify(p, oracle, closed_form=closed, cfg=CFG, seed=5)
    assert out.status == "verified_numeric"
    assert out.channel == CHANNEL_PROPERTY_TEST


def _random_false_identity(rng):
    """A rational expression that is not identically zero."""
    atoms = ["f(x)", "f(r)", "f(x+r)", "x", "r"]
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(1, 5) * rng.choice((1, -1))
        a = rng.choice(atoms)
        b = rng.choice(atoms)
        terms.append(f"{c}*{a}*{b}")
    offset = rng.randint(1, 9)
    return " + ".join(terms) + f" + {offset}/7"


def test_fuzzed_false_identities_never_pass():
    """Neither channel may pass a false rational identity (smoke-scale;
    the acceptance suite runs the full 10^3)."""
    rng = random.Random(77)
    closed = parse("c*x + 1/3")
    for _ in range(100):
        text = _random_false_identity(rng)
        out = symbolic_verify(text, closed, CFG, box=(0.5, 3.0), seed=8)
        assert not out.passed, text


def test_classify_per_coordinate_box_symbolic():
    # x and r1 draw from (0, 1), y and r2 from (0.5, 1.5)
    oracle = oracle_from_expr(
        "exp_sum", parse("exp(x+y)"), 2, box=((0.0, 1.0), (0.5, 1.5))
    )
    p = property_from_identity(parse("f(x+r1, y+r2) - f(x, y)*f(r1, r2)"))
    out = classify(p, oracle, closed_form=parse("exp(x+y)"), cfg=CFG, seed=4)
    assert out.status == "verified_symbolic"


def test_exact_expansion_beyond_128_bits():
    # (x+1)^140 has binomial coefficients above 2^127; the exact channel
    # expands over unbounded integers, so they cancel instead of raising
    closed = parse("x + 1")
    out = symbolic_verify("f(x)^140 - (x^2 + 2*x + 1)^70", closed, CFG)
    assert out.passed and out.channel == CHANNEL_SYMBOLIC_EXACT
    out = symbolic_verify("f(x)^140 - (x^2 + 2*x + 1)^70 - 1", closed, CFG)
    assert not out.passed


def test_exact_nonzero_without_atoms_is_final():
    # the 256-bit channel reads 0 at every point here: its absolute 2^-100
    # bound loses the constant 1 next to terms above 2^256
    closed = parse("x + 1")
    text = "f(x)^60 - (x^2 + 2*x + 1)^30 - 1"
    out = symbolic_verify(text, closed, CFG, box=(20.0, 30.0))
    assert not out.passed
    assert out.channel == CHANNEL_SYMBOLIC_EXACT
    assert "exact rational simplification" in out.reason
    # a failing point keeps its witness on the 256-bit channel
    out = symbolic_verify("f(x)^2 - x^2 - 2*x", closed, CFG)
    assert out.channel == CHANNEL_SYMBOLIC_NUMERIC and "witness" in out.reason


def _square_loss_identities():
    report = run_bench(["square_loss"], repetitions=1, seed=1, workers=1)
    texts = {
        p["identity"] for rep in report.rows[0].reps for p in rep.get("properties", ())
    }
    return [parse(t.removesuffix(" = 0")) for t in sorted(texts)]


def test_substitution_table_expands_each_monomial_once(monkeypatch):
    entry = registry_entry("square_loss")
    identities = _square_loss_identities()
    substituted = Counter()
    expanded = Counter()
    subst_func = polyratio.subst_func
    expand_monomial = polyratio._SubstitutionTable._expand_monomial

    def counted_subst(atom, *args):
        substituted[atom] += 1
        return subst_func(atom, *args)

    def counted_expand(table, key):
        expanded[key] += 1
        return expand_monomial(table, key)

    monkeypatch.setattr(polyratio, "subst_func", counted_subst)
    monkeypatch.setattr(polyratio._SubstitutionTable, "_expand_monomial", counted_expand)
    polyratio._substitution_table.cache_clear()
    for e in identities:
        symbolic_verify(e, entry.closed_form, CFG, box=entry.box, arity=entry.arity)
    assert len(identities) > 1
    assert substituted and set(substituted.values()) == {1}
    assert expanded and set(expanded.values()) == {1}
    assert len(expanded) < sum(len(polyratio.expand_to_polynomial(e)[0]) for e in identities)


def test_substitution_table_is_thread_safe(monkeypatch):
    """Threads verifying one closed form's identities give the serial
    outcomes and still substitute each atom once: a slow substitution
    keeps one thread inside a fill while the others ask for the same atom."""
    entry = registry_entry("square_loss")
    identities = _square_loss_identities()

    def verify_all(out, barrier=None):
        if barrier is not None:
            barrier.wait(timeout=60)
        for e in identities:
            out.append(
                symbolic_verify(e, entry.closed_form, CFG, box=entry.box, arity=entry.arity)
            )

    polyratio._substitution_table.cache_clear()
    serial = []
    verify_all(serial)

    substituted = Counter()
    subst_func = polyratio.subst_func

    def slow_subst(atom, *args):
        substituted[atom] += 1
        time.sleep(0.001)
        return subst_func(atom, *args)

    monkeypatch.setattr(polyratio, "subst_func", slow_subst)
    polyratio._substitution_table.cache_clear()
    # the table exists before the race, which is about its fills
    table = polyratio._substitution_table(entry.closed_form, input_vars(entry.arity))
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    results = [[] for _ in range(n_threads)]
    threads = [threading.Thread(target=verify_all, args=(out, barrier)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(out == serial for out in results)
    assert substituted and set(substituted.values()) == {1}
    # every identity's verdict was kept once the race was over
    assert set(table.verdicts) == set(identities)


def test_symbolic_verify_compiles_each_identity_once(monkeypatch):
    """A warm identity substitutes and compiles nothing, and its outcome
    at any seed equals a cold call's."""
    # exp is an application the exact channel leaves to the 256-bit one
    entry = registry_entry("exp")
    true, mutant = "f(x+r) - f(x)*f(r)", "f(x+r) - 101/100*f(x)*f(r)"
    identities = [true, mutant]
    counts = Counter()
    for name in ("subst_func", "compile_hp"):
        original = getattr(verification, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(verification, name, counted)

    def outcome(text, seed, precision=256):
        cfg = VerifyConfig(hp_precision_bits=precision)
        out = symbolic_verify(text, entry.closed_form, cfg, entry.box, seed)
        return out.to_json_dict()

    verification._identity_programs.cache_clear()
    for text in identities:
        outcome(text, 0)
    assert counts["subst_func"] == 2 and counts["compile_hp"] > 2
    counts.clear()
    warm = {(text, seed): outcome(text, seed) for text in identities for seed in (1, 2)}
    assert counts == {}
    assert warm[(true, 1)]["channel"] == CHANNEL_SYMBOLIC_NUMERIC
    assert warm[(true, 1)]["status"] == "pass"
    assert warm[(mutant, 1)]["status"] == "fail"
    # the precision is part of the key
    outcome(true, 1, precision=128)
    assert counts["subst_func"] == 1
    for (text, seed), got in warm.items():
        verification._identity_programs.cache_clear()
        assert outcome(text, seed) == got


def test_symbolic_verify_domain_retries_exhausted():
    with pytest.raises(DomainError):
        # log of a negative box never yields a valid point
        symbolic_verify("f(x) - w", parse("log(x)"), CFG, box=(-5.0, -1.0), seed=9)


# sign's registered ground truth; frac has none registered, so its case is
# the identity its discovery verifies at seed 1: d^2 + d = 0 for
# d = f(x+r) - f(x) - f(r), which is 0 or -1.  Each mutant shifts one
# coefficient by 1/100.  The exact channel decides all four on their open
# cells, so the 256-bit channel runs on each substituted identity
# directly; mpmath is pure Python, so the recorded residuals are exact.
_SIGN = "f(x*r) - f(x)*f(r)"
_SIGN_MUTANT = "f(x*r) - 99/100*f(x)*f(r)"
_FRAC = "(f(x+r) - f(x) - f(r))^2 + f(x+r) - f(x) - f(r)"
_FRAC_MUTANT = "(f(x+r) - f(x) - f(r))^2 + 101/100*f(x+r) - f(x) - f(r)"
_PASS = ("pass", CHANNEL_SYMBOLIC_NUMERIC, "0.0", "0.0", "")
_WITNESS = (
    "{'r': 2.739234, 'x': -4.604266}",
    "{'r': 0.236432, 'x': 9.009274}",
    "{'r': -4.767757, 'x': -4.030177}",
)
_MUTANT_RESIDUALS = {
    _SIGN_MUTANT: (("0.01", "1.000e-02"),) * 3,
    _FRAC_MUTANT: (
        ("0.0013496802170649236", "1.350e-03"),
        ("0.0024570642052383993", "2.457e-03"),
        ("0.002020655532687945", "2.021e-03"),
    ),
}


def _pinned(text: str, seed: int) -> tuple:
    if text in (_SIGN, _FRAC):
        return _PASS
    mag, short = _MUTANT_RESIDUALS[text][seed]
    reason = f"residual {short} at witness point {_WITNESS[seed]} exceeds 2^-100"
    return ("fail", CHANNEL_SYMBOLIC_NUMERIC, mag, mag, reason)


@pytest.mark.parametrize(
    "name,text,builtin",
    [
        ("sign", _SIGN, "sign"),
        ("sign", _SIGN_MUTANT, "sign"),
        ("frac", _FRAC, "floor"),
        ("frac", _FRAC_MUTANT, "floor"),
    ],
)
def test_high_precision_channel_pinned(monkeypatch, name, text, builtin):
    entry = registry_entry(name)
    double, hp_impl = expr._BUILTINS[builtin]
    args = []

    def counted(a, prec, rnd):
        args.append(a)
        return hp_impl(a, prec, rnd)

    monkeypatch.setitem(expr._BUILTINS, builtin, (double, counted))
    substituted = expr.subst_func(parse(text), "f", ("x",), entry.closed_form)
    for seed in range(3):
        args.clear()
        out = verification._high_precision_test(substituted, CFG, entry.box, seed, 1)
        got = (
            out.status,
            out.channel,
            repr(out.mean_abs_residual),
            repr(out.max_abs_residual),
            out.reason,
        )
        assert got == _pinned(text, seed)
        # three atoms (x, r and their product or sum), each evaluated once
        # per point: the residual reuses the pole guard's values
        points = CFG.hp_points if out.passed else 1
        assert len(args) == 3 * points
        assert len(set(args)) == len(args)


# --------------------------------------------------------------------------
# The exact channel on the open cells of the piecewise builtins
# --------------------------------------------------------------------------

_PIECEWISE = ("sign", "abs", "relu", "leaky_relu", "floor", "ceil", "frac")


def _first_coefficient_mutant(identity):
    """identity with its first normalized coefficient shifted by 1/100."""
    prop = property_from_identity(identity)
    pairs = list(prop.pairs)
    pairs[0] = (pairs[0][0], pairs[0][1] + Rational(1, 100))
    return canonicalize(
        Sum(tuple(Product((Const(c), monomial_to_expr(m, prop.basis))) for m, c in pairs))
    )


def test_piecewise_exact_passes_hold_at_256_bits_and_mutants_fail():
    """Every piecewise identity that discovery verifies at seeds 1-3, and
    the registered ground truths of sign and abs, pass on symbolic_exact
    and on the 64-point 2^-100 channel; a one-coefficient mutant of each
    fails on symbolic_exact."""
    texts = {}
    for seed in (1, 2, 3):
        report = run_bench(list(_PIECEWISE), repetitions=1, seed=seed, workers=1)
        for row in report.rows:
            texts.setdefault(row.name, set()).update(
                p["identity"]
                for rep in row.reps
                for p in rep.get("properties", ())
                if p["status"] == "verified_symbolic"
            )
    cases = []
    for name in _PIECEWISE:
        entry = registry_entry(name)
        found = sorted(texts[name])
        cases += [(entry, parse(t.removesuffix(" = 0"))) for t in found]
        cases += [(entry, gt) for gt in entry.ground_truth]
    names = {entry.name for entry, _e in cases}
    assert names == {"sign", "abs", "relu", "floor", "ceil", "frac"}
    for entry, e in cases:
        label = f"{entry.name}: {e}"
        out = symbolic_verify(e, entry.closed_form, CFG, box=entry.box)
        assert out.passed and out.channel == CHANNEL_SYMBOLIC_EXACT, label
        substituted = expr.subst_func(e, "f", ("x",), entry.closed_form)
        for seed in range(2):
            hp = verification._high_precision_test(substituted, CFG, entry.box, seed, 1)
            assert hp.passed and hp.max_abs_residual < 2**-100, label
        mutant = _first_coefficient_mutant(e)
        out = symbolic_verify(mutant, entry.closed_form, CFG, box=entry.box)
        assert not out.passed and out.channel == CHANNEL_SYMBOLIC_EXACT, label
        assert "open cell" in out.reason


@pytest.mark.parametrize(
    "closed_form, text, verdict",
    [
        # wrong on some cells only: x < 0 < x + r, or {x} + {r} > 1
        ("sign(x)", "f(x+r) - f(x)", False),
        ("floor(x)", "f(x+r) - f(x) - f(r)", False),
        ("ceil(x)", "f(x-r) - f(x) + f(r)", False),
        # the cells do not decide these arguments
        ("floor(x)", "f(x*r) - f(x*r + 1) + 1", None),
        ("sign(x)", "f(x^2 + 1) - 1", None),
        ("floor(x)", "f(2*x) - f(x) - f(x + 1/2)", None),
        # a builtin the cells do not cover
        ("mod(x, 1)", "f(f(x)) - f(x)", None),
    ],
)
def test_cells_decide_only_their_arguments(closed_form, text, verdict):
    cf = parse(closed_form)
    assert rational_residual_zero(parse(text), cf, ("x",)) is verdict
    out = symbolic_verify(text, cf, CFG)
    if verdict is None:
        assert out.passed and out.channel == CHANNEL_SYMBOLIC_NUMERIC
    else:
        assert not out.passed and out.channel == CHANNEL_SYMBOLIC_EXACT


def test_cells_decide_nested_and_scaled_arguments():
    relu = parse("(x + abs(x))/2")
    for text in ("f(x)*f(-x)", "f(2*x*r) - 2*f(x*r)", "f(x)*f(x - r)*f(r - x)"):
        assert rational_residual_zero(parse(text), relu, ("x",)) is True, text
    sign = parse("sign(x)")
    assert rational_residual_zero(parse("f(x^3*r^-1) - f(x*r)"), sign, ("x",)) is True
    assert rational_residual_zero(parse("f(x)^2 - 1"), sign, ("x",)) is True
    # the same identity at arity 2 is left to the 256-bit channel
    assert rational_residual_zero(parse("f(x, y)^2 - 1"), sign, ("x", "y")) is None


def test_refuted_candidate_with_atoms_is_not_expanded():
    """Seed 3's 21-term route-A candidate of inverse_cot_plus_one, whose
    exact expansion over cot atoms took over 20 s, is classified on the
    256-bit channel without it."""
    text = (
        "718208665631577120*f(r)^3 + 736391163495667680*f(x)^3"
        " - 3069604159959617280*f(r*x)*f(r + x) - 1549818699520771680*f(r)*f(x)^2"
        " - 1222026684805967040*f(r)^2*f(r*x) - 1134013682576174400*f(r)*f(x)"
        " - 767740297744099680*f(x)*f(r*x)^2 - 680408209545704640*f(r)^2*f(r + x)"
        " - 455786268573885480*f(r*x)*f(x - r) + 584305355090096640*f(r)*f(r + x)"
        " + 622447510214033504*f(r)*f(x - r) + 631153069797446560*f(r)*f(r*x)^2"
        " + 3635931369759859170*f(x)*f(r*x) - 2187774089154650304*f(r)*f(x)*f(r*x)"
        " - 2059568967619963800*f(x)*f(r*x)*f(x - r)"
        " - 1234421144054273175*f(r)*f(r + x)*f(x - r)"
        " - 738728913221050752*f(x)*f(r + x)*f(x - r)"
        " + 1209228875808267600*f(r)*f(r*x)*f(x - r)"
        " + 2154625996894731360*f(r*x)*f(r + x)*f(x - r)"
        " + 2196873565461294720*f(r)*f(r*x)*f(r + x)"
        " + 2411894772643356000*f(r)*f(x)*f(r + x)"
    )
    entry = registry_entry("inverse_cot_plus_one")
    prop = property_from_identity(parse(text))
    assert len(prop.pairs) == 21
    polyratio._substitution_table.cache_clear()
    t0 = time.perf_counter()
    out = classify(prop, entry.oracle(), entry.closed_form, CFG, seed=3)
    assert time.perf_counter() - t0 < 10
    assert out.status == "unverified" and "witness" in out.reason
    table = polyratio._substitution_table(entry.closed_form, ("x",))
    assert table.verdicts == {prop.identity: None} and not table.monomials


def test_term_budget_stops_an_expansion():
    x = parse("x")
    assert rational_residual_zero(parse("(x + r)^255 - f(x + r)^255"), x, ("x",))
    with pytest.raises(ExpansionTooLarge):
        rational_residual_zero(parse("(x + r)^512 - f(x + r)^512"), x, ("x",))
    out = symbolic_verify("f(x)^300 - (x + 1)^300", parse("x + 1"), CFG)
    assert out.passed and out.channel == CHANNEL_SYMBOLIC_EXACT
    out = symbolic_verify("f(x) - x + (x*r + 1)^600", parse("x"), CFG)
    assert not out.passed and out.channel == CHANNEL_SYMBOLIC_EXACT
    assert "budget" in out.reason
