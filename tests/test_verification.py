import random
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

import rsrforge.expr as expr
import rsrforge.polyratio as polyratio
import rsrforge.verification as verification
from rsrforge.bench import registry_entry, run_bench
from rsrforge.discovery import property_from_identity
from rsrforge.errors import DomainError
from rsrforge.parser import parse
from rsrforge.queries import input_vars
from rsrforge.rational import Rational
from rsrforge.sampling import oracle_from_expr, taylor_program
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


def test_symbolic_verify_domain_retries_exhausted():
    with pytest.raises(DomainError):
        # log of a negative box never yields a valid point
        symbolic_verify("f(x) - w", parse("log(x)"), CFG, box=(-5.0, -1.0), seed=9)


# sign's registered ground truth; frac has none registered, so its case is
# the identity its discovery verifies at seed 1: d^2 + d = 0 for
# d = f(x+r) - f(x) - f(r), which is 0 or -1.  Each mutant shifts one
# coefficient by 1/100.  Neither closed form simplifies exactly, so every
# case runs on the 256-bit channel; mpmath is pure Python, so the
# recorded residuals are exact.
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
    for seed in range(3):
        args.clear()
        out = symbolic_verify(text, entry.closed_form, CFG, box=entry.box, seed=seed)
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
