"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Criteria that specify a CLI invocation run the real CLI in a subprocess;
the rest drive the library API with the stated parameters.
"""

import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import replace

from rsrforge.discovery import (
    InferConfig,
    infer,
    normalize_identity,
    property_from_identity,
)
from rsrforge.expr import canonicalize, evaluate
from rsrforge.parser import parse
from rsrforge.polyratio import rational_residual_zero
from rsrforge.queries import queries_by_name
from rsrforge.rational import Rational
from rsrforge.regression import rationalize
from rsrforge.sampling import oracle_from_expr, taylor_program
from rsrforge.verification import VerifyConfig, property_test, symbolic_verify

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (101, 202, 303, 404, 505)

S2_IDENTITY = "2*f(x)*f(x+r)*f(r) - f(x)*f(x+r) - f(x)*f(r) - f(x+r)*f(r) + f(x+r)"
S2_RECOVERY = "f(x+r)*(f(r)-1)/(2*f(x+r)*f(r)-f(x+r)-f(r))"
TAN_IDENTITY = "f(x+r) - f(x) - f(r) - f(x+r)*f(x)*f(r)"


def announce(n: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {n:>2} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(PKG_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rsrforge.cli", *argv],
        capture_output=True,
        cwd=PKG_ROOT,
        env=env,
        timeout=600,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def _find_class(props, identity_text):
    want = normalize_identity(parse(identity_text))
    return [p for p in props.values() if p.identity == want]


def test_criterion_1_blr_linear():
    """BLR recovery from the CLI with exact (1, -1, -1) in 5/5 runs."""
    ok_runs = 0
    worst_time = 0.0
    for seed in SEEDS:
        code, out, elapsed = run_cli(
            "infer", "--function", "linear", "--degree", "1",
            "--samples", "50", "--seed", str(seed),
        )
        worst_time = max(worst_time, elapsed)
        if code != 0 or elapsed >= 5.0:
            continue
        doc = json.loads(out)
        for prop in doc["properties"].values():
            coeffs = {
                c["monomial"]: c["rational"] for c in prop["coefficients"]
            }
            if coeffs == {"f(r + x)": "1", "f(x)": "-1", "f(r)": "-1"} and (
                prop["test_residual"] < 1e-9
            ):
                ok_runs += 1
                break
    announce(
        1, ok_runs == 5,
        f"BLR exact coefficients in {ok_runs}/5 seeded runs, "
        f"slowest run {worst_time:.2f}s (< 5s)",
    )


def test_criterion_2_squared_parallelogram():
    oracle = oracle_from_expr("squared", parse("x^2"), 1)
    want = normalize_identity(parse("f(x+r) + f(x-r) - 2*f(x) - 2*f(r)"))
    ok_runs = 0
    for seed in SEEDS:
        t0 = time.perf_counter()
        props, _, _, _ = infer(oracle, InferConfig(max_degree=1, m=50, seed=seed))
        elapsed = time.perf_counter() - t0
        hits = [p for p in props.values() if p.identity == want]
        if hits and elapsed < 5.0:
            p = hits[0]
            exact = p.coefficient_map() == {
                "f(r + x)": Rational(1),
                "f(x - r)": Rational(1),
                "f(x)": Rational(-2),
                "f(r)": Rational(-2),
            }
            if exact:
                ok_runs += 1
    announce(2, ok_runs == 5, f"parallelogram identity exact in {ok_runs}/5 runs")


def test_criterion_3_exp_addition():
    oracle = oracle_from_expr("exp", parse("exp(x)"), 1, box=(-3.0, 3.0))
    ok_runs = 0
    for seed in SEEDS:
        props, _, _, _ = infer(oracle, InferConfig(max_degree=2, m=100, seed=seed))
        hits = _find_class(props, "f(x+r) - f(x)*f(r)")
        if hits and hits[0].test_residual < 1e-8:
            ok_runs += 1
    announce(3, ok_runs == 5, f"exp addition law in {ok_runs}/5 runs, residual < 1e-8")


def test_criterion_4_sigmoid_headline():
    oracle = oracle_from_expr("sigmoid", parse("1/(1+exp(-x))"), 1)
    queries = tuple(queries_by_name(["x+r", "x-r", "r", "x"]))
    expected_map = {
        "f(r)*f(x)*f(r + x)": Rational(2),
        "f(x)*f(r + x)": Rational(-1),
        "f(r)*f(x)": Rational(-1),
        "f(r)*f(r + x)": Rational(-1),
        "f(r + x)": Rational(1),
    }
    want_rec = parse(S2_RECOVERY)
    ok_runs = 0
    worst = 0.0
    for seed in SEEDS:
        t0 = time.perf_counter()
        props, _, _, _ = infer(
            oracle, InferConfig(queries=queries, max_degree=3, m=100, seed=seed)
        )
        worst = max(worst, time.perf_counter() - t0)
        hits = _find_class(props, S2_IDENTITY)
        if not hits:
            continue
        p = hits[0]
        if p.coefficient_map() != expected_map:
            continue
        if not rational_residual_zero(p.recovery - want_rec):
            continue
        pt = property_test(
            p, oracle, VerifyConfig(n_test=1000, epsilon=1e-6), seed=seed
        )
        if pt.passed and pt.mean_abs_residual < 1e-6:
            ok_runs += 1
    announce(
        4, ok_runs >= 4 and worst < 60.0,
        f"sigmoid S2 identity, coefficients (2,-1,-1,-1,1), recovery formula, "
        f"residual < 1e-6 in {ok_runs}/5 runs (need >= 4); slowest {worst:.1f}s",
    )


def test_criterion_5_sigmoid_from_taylor_program():
    oracle = taylor_program("sigmoid", 30, box=(-4.0, 4.0))
    queries = tuple(queries_by_name(["x+r", "x-r", "r", "x"]))
    ok_runs = 0
    for seed in SEEDS:
        props, _, _, _ = infer(
            oracle,
            InferConfig(queries=queries, max_degree=3, m=100, seed=seed),
        )
        if _find_class(props, S2_IDENTITY):
            ok_runs += 1
    announce(
        5, ok_runs >= 3,
        f"S2 identity from the 30-term Taylor program in {ok_runs}/5 runs (need >= 3)",
    )


def test_criterion_6_tangent_addition():
    oracle = oracle_from_expr("tan", parse("tan(x)"), 1, box=(-1.4, 1.4))
    ok_runs = 0
    for seed in SEEDS:
        props, _, _, _ = infer(oracle, InferConfig(max_degree=3, m=100, seed=seed))
        if _find_class(props, TAN_IDENTITY):
            ok_runs += 1
    announce(
        6, ok_runs >= 4,
        f"tan addition-law identity in {ok_runs}/5 runs (need >= 4)",
    )


def test_criterion_7_rationalization_optimality():
    rng = random.Random(4242)
    t0 = time.perf_counter()
    agree = 0
    for _ in range(1000):
        q = rng.randint(1, 50)
        p = rng.randint(-50 * q, 50 * q)
        c = p / q + rng.uniform(-1e-9, 1e-9)
        got = rationalize(c, 50)
        best_err = None
        for den in range(1, 51):
            num = round(c * den)
            err = abs(c - num / den)
            if best_err is None or err < best_err - 1e-18:
                best_err = err
        if got == Rational(p, q) and abs(c - float(got)) <= best_err + 1e-15:
            agree += 1
    elapsed = time.perf_counter() - t0
    announce(
        7, agree == 1000 and elapsed < 1.0,
        f"rationalize matched p/q and the brute-force optimum "
        f"{agree}/1000 times in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_8_mutation_rejection():
    cases = {
        "sigmoid": ("1/(1+exp(-x))", S2_IDENTITY, (-10, 10)),
        "exp": ("exp(x)", "f(x+r) - f(x)*f(r)", (-3, 3)),
        "squared": ("x^2", "f(x+r) + f(x-r) - 2*f(x) - 2*f(r)", (-10, 10)),
        "tan": ("tan(x)", TAN_IDENTITY, (-1.4, 1.4)),
    }
    cfg = VerifyConfig(n_test=1000)
    total = rejected = 0
    for name, (closed, ident, box) in cases.items():
        oracle = oracle_from_expr(name, parse(closed), 1, box)
        base = property_from_identity(parse(ident))
        assert property_test(base, oracle, cfg, seed=1).passed, name
        for k in range(len(base.pairs)):
            mono, coef = base.pairs[k]
            mutated = base.pairs[:k] + ((mono, coef + Rational(1, 100)),) + base.pairs[k + 1:]
            mutant = replace(base, pairs=mutated)
            total += 1
            if not property_test(mutant, oracle, cfg, seed=1).passed:
                rejected += 1
    announce(
        8, rejected == total and total >= 12,
        f"{rejected}/{total} single-coefficient mutants rejected "
        f"(criterion floor 12/12)",
    )


def test_criterion_10_verification_channels():
    worked = symbolic_verify(
        "Eq(f(x) + f(y) - f(x+y), 0)", parse("c*x"), VerifyConfig()
    )
    exact_ok = worked.passed and worked.channel == "symbolic_exact"

    rng = random.Random(31337)
    atoms = ["f(x)", "f(r)", "f(x+r)", "x", "r"]
    closed = parse("c*x + 1/3")
    cfg = VerifyConfig()
    false_pass = 0
    produced = 0
    while produced < 1000:
        terms = []
        for _ in range(rng.randint(1, 3)):
            c = rng.randint(1, 5) * rng.choice((1, -1))
            terms.append(f"{c}*{rng.choice(atoms)}*{rng.choice(atoms)}")
        text = " + ".join(terms) + f" + {rng.randint(1, 9)}/7"
        # independent falseness screen: double evaluation at fixed points
        residual_expr = parse(text)
        sub = canonicalize(residual_expr)
        from rsrforge.expr import Env, subst_func

        substituted = subst_func(sub, "f", ("t",), closed)
        try:
            vals = [
                evaluate(substituted, Env({"x": 0.7, "r": 1.3, "c": 0.9})),
                evaluate(substituted, Env({"x": -1.1, "r": 2.2, "c": 1.7})),
            ]
        except Exception:
            continue
        if max(abs(v) for v in vals) < 1e-6:
            continue  # accidentally (near) true; regenerate
        produced += 1
        out = symbolic_verify(text, closed, cfg, box=(0.5, 3.0), seed=17)
        if out.passed:
            false_pass += 1
    announce(
        10, exact_ok and false_pass == 0,
        f"worked example passed symbolic_exact; {false_pass}/1000 fuzzed "
        f"false identities passed (must be 0)",
    )


BENCH_SUBSET = [
    "linear", "squared", "cube", "sqrt",           # basic
    "exp", "2_to_x", "10_to_x", "log",             # exp/log
    "sin", "cos", "tan",                           # trig
    "sinh", "cosh",                                # hyperbolic
    "sigmoid", "relu",                             # ml-activation
    "arctan",                                      # inverse-trig
    "square_loss",                                 # loss
    "erf",                                         # special
    "abs",                                         # discrete
    "mobius_inversion",                            # rational/möbius
]

MUST_VERIFY = [
    "linear", "squared", "cube", "exp", "2_to_x", "10_to_x",
    "sin", "cos", "tan", "sinh", "cosh", "sigmoid", "sqrt", "log",
]


def test_criterion_11_bench_smoke():
    assert len(BENCH_SUBSET) == 20
    code, out, elapsed = run_cli(
        "bench", "--names", ",".join(BENCH_SUBSET),
        "--repetitions", "1", "--seed", "29", "--format", "table",
    )
    lines = out.decode().splitlines()
    shape_ok = code == 0 and len(lines) == 21
    row_re = re.compile(r"^\S+\s+\d+ / \d+ \| \d+\s+\S+")
    counts = {}
    for line in lines[1:]:
        if not row_re.match(line):
            shape_ok = False
            continue
        name = line.split()[0]
        counts[name] = int(line.split()[3])  # the V column
    missing = [n for n in MUST_VERIFY if counts.get(n, 0) < 1]
    announce(
        11, shape_ok and not missing and elapsed < 300.0,
        f"20-function bench in {elapsed:.0f}s (< 300s), rows well-formed, "
        f"verified >= 1 for all of {len(MUST_VERIFY)} ground-truth functions"
        + (f"; MISSING {missing}" if missing else ""),
    )


def test_criterion_12_byte_determinism():
    invocations = [
        ("infer", "--function", "squared", "--degree", "1",
         "--samples", "50", "--seed", "12"),
        ("verify", "--expr", "f(x*r)-f(x)-f(r)", "--function", "log",
         "--seed", "12"),
        ("bench", "--names", "linear,cube", "--repetitions", "1",
         "--seed", "12", "--samples", "60", "--format", "json"),
    ]
    identical = 0
    for argv in invocations:
        _, out1, _ = run_cli(*argv)
        _, out2, _ = run_cli(*argv)
        if out1 == out2 and out1:
            identical += 1
    announce(
        12, identical == len(invocations),
        f"byte-identical stdout for {identical}/{len(invocations)} repeated "
        f"invocations (infer, verify, bench)",
    )
