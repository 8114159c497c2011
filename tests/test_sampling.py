import math
import tracemalloc

import numpy as np
import pytest

from rsrforge import sampling
from rsrforge.bench import registry
from rsrforge.discovery import property_from_identity
from rsrforge.errors import (
    DomainError,
    RSRError,
    SamplingExhausted,
    TooFewRows,
    UnknownSeries,
)
from rsrforge.expr import Var, compile_double
from rsrforge.parser import parse
from rsrforge.queries import (
    build_basis,
    default_query_class,
    gen_monomials,
    input_vars,
    randomness_vars,
)
from rsrforge.sampling import (
    _MAX_RETRIES_PER_ROW,
    Oracle,
    SampleTable,
    draw_samples,
    oracle_from_expr,
    split,
    taylor_program,
)


def _table(oracle, m=20, seed=0, degree=1):
    basis = build_basis("f", default_query_class(oracle.arity), oracle.arity)
    monos = gen_monomials(basis, degree)
    return draw_samples(oracle, basis, monos, m, seed)


def test_reproducibility_bit_for_bit():
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    t1 = _table(oracle, m=30, seed=42)
    t2 = _table(oracle, m=30, seed=42)
    assert np.array_equal(t1.monomial_values, t2.monomial_values)
    assert np.array_equal(t1.xs, t2.xs)
    assert np.array_equal(t1.rs, t2.rs)
    t3 = _table(oracle, m=30, seed=43)
    assert not np.array_equal(t1.xs, t3.xs)


def test_all_values_finite():
    oracle = oracle_from_expr("inv", parse("1/x"), 1)
    t = _table(oracle, m=50, seed=1, degree=2)
    assert np.all(np.isfinite(t.monomial_values))


def test_log_domain_rejection():
    oracle = oracle_from_expr("log", parse("log(x)"), 1)
    t = _table(oracle, m=40, seed=5)
    xs, rs = t.xs[:, 0], t.rs[:, 0]
    assert np.all(xs > 0) and np.all(rs > 0)
    assert np.all(xs * rs > 0)
    assert np.all(xs - rs > 0)  # the x-r query must stay in the domain too


def test_sigmoid_fifteen_rows():
    oracle = oracle_from_expr("sigmoid", parse("1/(1+exp(-x))"), 1)
    t = _table(oracle, m=15, seed=9)
    assert t.m == 15
    assert np.all(np.isfinite(t.monomial_values))


def test_sampling_exhausted():
    oracle = oracle_from_expr("log", parse("log(x)"), 1, box=(-10.0, -1.0))
    with pytest.raises(SamplingExhausted):
        _table(oracle, m=5, seed=0)


def test_atom_row_hook_sees_every_drawn_row(monkeypatch):
    # an instrumented evaluate_atom_row, patched on the module, is called
    # once per drawn row, rejected rows included, in draw order
    calls = []
    original = sampling.evaluate_atom_row

    def recording(programs, x, r):
        try:
            out = original(programs, x, r)
        except DomainError:
            calls.append((x, r, False))
            raise
        calls.append((x, r, True))
        return out

    monkeypatch.setattr(sampling, "evaluate_atom_row", recording)
    oracle = oracle_from_expr("log", parse("log(x)"), 1, box=(-2.0, 8.0))
    t = _table(oracle, m=30, seed=4)

    rng = np.random.Generator(np.random.PCG64(4))
    for x, r, _ in calls:
        assert x == [rng.uniform(-2.0, 8.0)] and r == [rng.uniform(-2.0, 8.0)]
    accepted = [(x, r) for x, r, ok in calls if ok]
    assert len(accepted) == t.m < len(calls)
    assert [[x[0], r[0]] for x, r in accepted] == np.hstack([t.xs, t.rs]).tolist()


def test_wrapped_evaluator_counts_every_oracle_call():
    # a wrapper put on oracle.evaluator after oracle_from_expr returns
    # sees every call the sampler makes
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    basis = build_basis("f", default_query_class(1), 1)
    inner = oracle.evaluator
    calls = []

    def counting(*args):
        calls.append(args)
        return inner(*args)

    oracle.evaluator = counting
    table = draw_samples(oracle, basis, gen_monomials(basis, 1), 25, 3)
    assert len(calls) == 25 * len(basis) > 0
    assert table.monomial_values.shape[0] == 25


def test_split_rules():
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    t = _table(oracle, m=100, seed=2)
    train, test = split(t, 0.8)
    assert (train.m, test.m) == (80, 20)

    t15 = _table(oracle, m=15, seed=2)
    train, test = split(t15, 0.8)
    assert (train.m, test.m) == (12, 3)  # floor rule

    again_train, _ = split(t15, 0.8)
    assert np.array_equal(train.monomial_values, again_train.monomial_values)

    with pytest.raises(TooFewRows):
        split(_table(oracle, m=4, seed=2), 0.8)


def test_taylor_sigmoid_values():
    prog = taylor_program("sigmoid", 30)
    assert prog.evaluator(0.0) == 0.5
    exact = 1 / (1 + math.exp(-2.0))
    assert abs(prog.evaluator(2.0) - exact) < 1e-9
    exact25 = 1 / (1 + math.exp(-25.0))
    assert abs(prog.evaluator(25.0) - exact25) > 1e-3  # truncation blows up


def test_taylor_exp_and_trig():
    assert abs(taylor_program("exp", 30).evaluator(1.0) - math.e) < 1e-12
    assert abs(taylor_program("sin", 30).evaluator(0.5) - math.sin(0.5)) < 1e-14
    assert abs(taylor_program("cos", 30).evaluator(0.5) - math.cos(0.5)) < 1e-14


def test_unknown_series():
    with pytest.raises(UnknownSeries):
        taylor_program("gamma", 30)


def test_marginal_uniformity_ks():
    """Empirical CDF of accepted draws within KS distance 0.02 of uniform."""
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    basis = build_basis("f", default_query_class(1), 1)
    monos = gen_monomials(basis, 1)
    t = draw_samples(oracle, basis, monos, 10_000, 123)
    for column in (t.xs[:, 0], t.rs[:, 0]):
        u = np.sort((column + 10.0) / 20.0)
        n = len(u)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(grid - u)), np.max(np.abs(u - (grid - 1 / n))))
        assert ks < 0.02


@pytest.mark.parametrize("box", [(5.0,), (3.0, -3.0), (2.0, 2.0), (0.0, math.inf)])
def test_malformed_box_rejected(box):
    oracle = oracle_from_expr("sq", parse("x^2"), 1, box=box)
    with pytest.raises(RSRError, match="box range"):
        _table(oracle)


def test_per_coordinate_boxes():
    oracle = Oracle(
        arity=2,
        evaluator=lambda a, b: a + b,
        name="mean-ish",
        box=((0.0, 1.0), (5.0, 6.0)),
    )
    basis = build_basis("f", default_query_class(2), 2)
    monos = gen_monomials(basis, 1)
    t = draw_samples(oracle, basis, monos, 20, 0)
    assert np.all((t.xs[:, 0] >= 0) & (t.xs[:, 0] <= 1))
    assert np.all((t.xs[:, 1] >= 5) & (t.xs[:, 1] <= 6))


def _draw_rowwise(oracle, basis, monomials, m, seed):
    """The row-at-a-time sampler that block drawing replaced.

    Kept verbatim, apart from its name and the old ``evaluate_atom_row``
    body written inline, as the reference ``draw_samples`` must match bit
    for bit: same tables, same exceptions, same oracle calls in the same
    order.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    boxes = oracle.coordinate_boxes()
    rng = np.random.Generator(np.random.PCG64(seed))

    arity = oracle.arity
    names = input_vars(arity) + randomness_vars(arity)
    slots = {Var(name): i for i, name in enumerate(names)}
    funcs = {"f": oracle.evaluator}
    programs = [compile_double(term, slots, funcs) for term in basis.terms]
    expmat = np.array([mono.exponents for mono in monomials], dtype=np.int64)

    mono_rows = np.empty((m, len(monomials)))
    xs = np.empty((m, arity))
    rs = np.empty((m, arity))

    row = 0
    failures = 0
    while row < m:
        x = [rng.uniform(lo, hi) for lo, hi in boxes]
        r = [rng.uniform(lo, hi) for lo, hi in boxes]
        try:
            values = x + r
            atoms = np.array([program(values) for program in programs], dtype=float)
        except DomainError:
            mono = None
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                mono = np.prod(np.power(atoms[None, :], expmat), axis=1)
        if mono is None or not np.all(np.isfinite(mono)):
            failures += 1
            if failures >= _MAX_RETRIES_PER_ROW:
                raise SamplingExhausted(
                    f"{failures} consecutive rejected draws for {oracle.name}"
                )
            continue
        mono_rows[row] = mono
        xs[row] = x
        rs[row] = r
        row += 1
        failures = 0

    return SampleTable(monomial_values=mono_rows, xs=xs, rs=rs)


def _outcome(draw, oracle, basis, monomials, m, seed):
    """(table bytes or exception, oracle-call arguments) of one draw."""
    inner = oracle.evaluator
    calls = []

    def recording(*args):
        calls.append(args)
        return inner(*args)

    oracle.evaluator = recording
    try:
        t = draw(oracle, basis, monomials, m, seed)
    except Exception as exc:  # the reference must raise the same way
        result = (type(exc), str(exc))
    else:
        result = tuple(a.tobytes() for a in (t.monomial_values, t.xs, t.rs))
    finally:
        oracle.evaluator = inner
    return result, calls


def _assert_same_as_rowwise(oracle, basis, monomials, m, seed):
    got = _outcome(draw_samples, oracle, basis, monomials, m, seed)
    want = _outcome(_draw_rowwise, oracle, basis, monomials, m, seed)
    assert got == want, (oracle.name, len(monomials), seed)
    return got[0]


def _registry_cases():
    for entry in registry():
        bases = [build_basis("f", default_query_class(entry.arity), entry.arity)]
        bases += [property_from_identity(gt).basis for gt in entry.ground_truth]
        for basis in bases:
            for degree in (1, 2, 3):
                yield entry, basis, gen_monomials(basis, degree)


def test_block_draws_match_rowwise_on_registry():
    # every registry oracle, the default basis and each ground-truth basis,
    # degrees 1-3: byte-equal tables and the same oracle calls
    for i, (entry, basis, monos) in enumerate(_registry_cases()):
        _assert_same_as_rowwise(entry.oracle(), basis, monos, 100, 1 + i % 2)


def test_atomless_basis_matches_rowwise():
    # a constant identity has no atoms: its one monomial is the empty product
    p = property_from_identity(parse("2"))
    assert len(p.basis) == 0
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    monos = [mono for mono, _ in p.pairs]
    values, _, _ = _assert_same_as_rowwise(oracle, p.basis, monos, 10, 1)
    assert np.frombuffer(values).tolist() == [1.0] * 10


def test_failure_counter_carries_across_blocks():
    # log(x) on (-7, 3) accepts about one draw in ten, so runs of 100
    # rejections span several blocks; both outcomes must occur
    oracle = oracle_from_expr("log", parse("log(x)"), 1, box=(-7.0, 3.0))
    basis = build_basis("f", default_query_class(1), 1)
    monos = gen_monomials(basis, 2)
    outcomes = [
        _assert_same_as_rowwise(oracle, basis, monos, 200, seed) for seed in range(30)
    ]
    exhausted = [o for o in outcomes if o[0] is SamplingExhausted]
    assert 0 < len(exhausted) < len(outcomes)
    assert {o[1] for o in exhausted} == {
        f"{_MAX_RETRIES_PER_ROW} consecutive rejected draws for log"
    }


def test_block_memory_stays_near_the_table():
    # block temporaries are capped at _MAX_RETRIES_PER_ROW rows, so the
    # peak stays near the returned table however large m is
    oracle = oracle_from_expr("mul", parse("x*y"), 2)
    basis = build_basis("f", default_query_class(2), 2)
    monos = gen_monomials(basis, 3)
    assert len(monos) == 56
    draw_samples(oracle, basis, monos, 5, 0)  # loads numpy.random lazily first
    tracemalloc.start()
    try:
        t = draw_samples(oracle, basis, monos, 2000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = t.monomial_values.nbytes + t.xs.nbytes + t.rs.nbytes
    assert peak <= 1.5 * table_bytes


def test_empty_monomial_list_rejected():
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    basis = build_basis("f", default_query_class(1), 1)
    with pytest.raises(ValueError, match="monomials"):
        draw_samples(oracle, basis, [], 5, 1)
