import math
import tracemalloc

import numpy as np
import pytest

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
    queries_by_name,
    randomness_vars,
)
from rsrforge.sampling import (
    _MAX_RETRIES_PER_ROW,
    Oracle,
    SampleTable,
    draw_blocks,
    draw_samples,
    oracle_from_expr,
    split,
    taylor_program,
)


def _table(oracle, m=20, seed=0, degree=1):
    basis = build_basis("f", default_query_class(oracle.arity), oracle.arity)
    monos = gen_monomials(basis, degree)
    return draw_samples(oracle, basis, monos, m, seed)


def _columns(table, basis, monomials, names):
    """The named raw variables' values in each row (m x len(names)), read
    from the degree-1 monomial of each one's atom: 1.0 * v is v."""
    exponents = [mono.exponents for mono in monomials]
    cols = []
    for name in names:
        i = basis.terms.index(Var(name))
        unit = tuple(int(j == i) for j in range(len(basis)))
        cols.append(table.monomial_values[:, exponents.index(unit)])
    return np.column_stack(cols)


def _draws(oracle, m, seed, queries=None):
    """(table, xs, rs) of a degree-1 draw over the default queries (or
    the given ones) plus the raw variables, which make the x and r draws
    columns of the table; raw variables never reject a row."""
    arity = oracle.arity
    chosen = queries if queries is not None else default_query_class(arity)
    basis = build_basis("f", chosen, arity, include_raw_vars=True)
    monos = gen_monomials(basis, 1)
    t = draw_samples(oracle, basis, monos, m, seed)
    xs = _columns(t, basis, monos, input_vars(arity))
    return t, xs, _columns(t, basis, monos, randomness_vars(arity))


def test_reproducibility_bit_for_bit():
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    t1, xs1, rs1 = _draws(oracle, 30, 42)
    t2, xs2, rs2 = _draws(oracle, 30, 42)
    assert np.array_equal(t1.monomial_values, t2.monomial_values)
    assert np.array_equal(xs1, xs2)
    assert np.array_equal(rs1, rs2)
    _t3, xs3, _rs3 = _draws(oracle, 30, 43)
    assert not np.array_equal(xs1, xs3)


def test_all_values_finite():
    oracle = oracle_from_expr("inv", parse("1/x"), 1)
    t = _table(oracle, m=50, seed=1, degree=2)
    assert np.all(np.isfinite(t.monomial_values))


def test_log_domain_rejection():
    oracle = oracle_from_expr("log", parse("log(x)"), 1)
    _t, xs, rs = _draws(oracle, 40, 5)
    xs, rs = xs[:, 0], rs[:, 0]
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


def test_oracle_sees_every_drawn_point():
    # with the atoms f(x), f(r), x, r, a recording oracle.evaluator sees
    # every drawn point in draw order, rejected points included: f(x)
    # first, then f(r) unless f(x) rejected the point
    oracle = oracle_from_expr("log", parse("log(x)"), 1, box=(-2.0, 8.0))
    inner = oracle.evaluator
    calls = []

    def recording(v):
        try:
            out = inner(v)
        except DomainError:
            calls.append((v, False))
            raise
        calls.append((v, True))
        return out

    oracle.evaluator = recording
    t, xs, rs = _draws(oracle, 30, 4, queries_by_name(["x", "r"]))

    rng = np.random.Generator(np.random.PCG64(4))
    points = []
    queue = iter(calls)
    for x, ok in queue:
        assert x == rng.uniform(-2.0, 8.0)
        r = rng.uniform(-2.0, 8.0)
        if ok:
            seen, ok = next(queue)
            assert seen == r
        points.append((x, r, ok))
    accepted = [[x, r] for x, r, ok in points if ok]
    assert len(accepted) == t.m < len(points)
    assert accepted == np.hstack([xs, rs]).tolist()


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


def test_draw_blocks_concatenate_to_the_table():
    # log(x) on (-2, 8) rejects some draws, so the blocks vary in size
    oracle = oracle_from_expr("log", parse("log(x)"), 1, box=(-2.0, 8.0))
    basis = build_basis("f", default_query_class(1), 1)
    monos = gen_monomials(basis, 2)
    blocks = list(draw_blocks(oracle, basis, monos, 300, 5))
    assert len({len(b) for b in blocks}) > 1
    assert all(0 < len(b) <= _MAX_RETRIES_PER_ROW for b in blocks)
    table = draw_samples(oracle, basis, monos, 300, 5).monomial_values
    assert np.array_equal(np.concatenate(blocks), table)
    # the checks run at the call, not at the first block
    for m, seed, mon in ((0, 1, monos), (5, -1, monos), (5, 1, [])):
        with pytest.raises(ValueError):
            draw_blocks(oracle, basis, mon, m, seed)


def test_block_program_compiled_once_per_evaluator(monkeypatch):
    # the basis is compiled once per (basis, arity, evaluator object); an
    # evaluator rebound on the oracle is compiled afresh and sees its calls
    import rsrforge.sampling as sampling

    sampling._block_program.cache_clear()
    compiled = []
    original = sampling.compile_double_block

    def counted(*args):
        compiled.append(args)
        return original(*args)

    monkeypatch.setattr(sampling, "compile_double_block", counted)
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    basis = build_basis("f", default_query_class(1), 1)
    monos = gen_monomials(basis, 1)
    first = draw_samples(oracle, basis, monos, 25, 3).monomial_values
    assert len(compiled) == 1
    again = draw_samples(oracle, basis, monos, 25, 3).monomial_values
    assert np.array_equal(again, first)
    draw_samples(oracle, basis, monos, 10, 4)
    assert len(compiled) == 1
    inner = oracle.evaluator
    calls = []
    oracle.evaluator = lambda *args: calls.append(args) or inner(*args)
    rebound = draw_samples(oracle, basis, monos, 25, 3).monomial_values
    assert len(compiled) == 2 and len(calls) == 25 * len(basis)
    assert np.array_equal(rebound, first)


def test_split_rules():
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    t = _table(oracle, m=100, seed=2)
    train, test = split(t)
    assert (train.m, test.m) == (80, 20)

    t15 = _table(oracle, m=15, seed=2)
    train, test = split(t15)
    assert (train.m, test.m) == (12, 3)  # floor rule

    again_train, _ = split(t15)
    assert np.array_equal(train.monomial_values, again_train.monomial_values)

    with pytest.raises(TooFewRows):
        split(_table(oracle, m=4, seed=2))


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


def _reference_series(name: str, terms: int):
    """The four hand-written reference loops that the series programs
    replace, kept verbatim as the oracle of their bit-for-bit test."""

    def sigmoid(x):
        total = 1.0
        trm = 1.0
        neg_x = -x
        for n in range(1, terms):
            trm *= neg_x / n
            total += trm
        denom = 1.0 + total
        if denom == 0.0 or not math.isfinite(denom):
            raise DomainError("truncated sigmoid series denominator vanished")
        return 1.0 / denom

    def exp(x):
        total = 1.0
        trm = 1.0
        for n in range(1, terms):
            trm *= x / n
            total += trm
        if not math.isfinite(total):
            raise DomainError("truncated exp series overflowed")
        return total

    def sin(x):
        total = 0.0
        trm = x
        for k in range(terms):
            total += trm
            trm *= -x * x / ((2 * k + 2) * (2 * k + 3))
        if not math.isfinite(total):
            raise DomainError("truncated sin series overflowed")
        return total

    def cos(x):
        total = 0.0
        trm = 1.0
        for k in range(terms):
            total += trm
            trm *= -x * x / ((2 * k + 1) * (2 * k + 2))
        if not math.isfinite(total):
            raise DomainError("truncated cos series overflowed")
        return total

    return {"sigmoid": sigmoid, "exp": exp, "sin": sin, "cos": cos}[name]


def _series_outcome(program, x):
    try:
        return repr(program(x))
    except DomainError as exc:
        return f"DomainError: {exc}"


def test_series_programs_match_reference_loops():
    """Every value (by repr, so sign of zero and nan count) and every
    DomainError message equals the reference loop's, at terms 1 to 1000
    and |x| up to 800, where sums overflow to inf and to nan."""
    xs = [0.0, -0.0, 2.0, 1e-300, 800.0, -800.0, 1.5, 25, -25]
    xs += np.random.default_rng(7).uniform(-800.0, 800.0, 60).tolist()
    xs += np.random.default_rng(8).uniform(-12.0, 12.0, 60).tolist()
    errors = {}
    for name in ("sigmoid", "exp", "sin", "cos"):
        for terms in (1, 2, 3, 5, 10, 30, 60, 100, 400, 1000):
            program = taylor_program(name, terms).evaluator
            reference = _reference_series(name, terms)
            for x in xs:
                got = _series_outcome(program, x)
                assert got == _series_outcome(reference, x), (name, terms, x)
                if got.startswith("DomainError"):
                    errors[name] = errors.get(name, 0) + 1
    # every program raised somewhere: overflow, and for sigmoid also the
    # vanishing denominator 1 + (1 - x) at x = 2 with two terms
    assert set(errors) == {"sigmoid", "exp", "sin", "cos"}
    vanished = _series_outcome(taylor_program("sigmoid", 2).evaluator, 2.0)
    assert vanished == "DomainError: truncated sigmoid series denominator vanished"
    assert _series_outcome(taylor_program("exp", 1000).evaluator, 800.0) == (
        "DomainError: truncated exp series overflowed"
    )
    for name, value in (("exp", "1.0"), ("cos", "1.0"), ("sin", "-800.0")):
        assert _series_outcome(taylor_program(name, 1).evaluator, -800.0) == value


def test_unknown_series():
    with pytest.raises(UnknownSeries):
        taylor_program("gamma", 30)


def test_marginal_uniformity_ks():
    """Empirical CDF of accepted draws within KS distance 0.02 of uniform."""
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    _t, xs, rs = _draws(oracle, 10_000, 123)
    for column in (xs[:, 0], rs[:, 0]):
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
    _t, xs, rs = _draws(oracle, 20, 0)
    for draws in (xs, rs):
        assert np.all((draws[:, 0] >= 0) & (draws[:, 0] <= 1))
        assert np.all((draws[:, 1] >= 5) & (draws[:, 1] <= 6))


def _draw_rowwise(oracle, basis, monomials, m, seed):
    """The row-at-a-time sampler that block drawing replaced.

    Kept verbatim, apart from its name, the old ``evaluate_atom_row``
    body written inline and the (x, r) draws it no longer records, as
    the reference ``draw_samples`` must match bit for bit: same tables,
    same exceptions, same oracle calls in the same order.
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

    row = 0
    failures = 0
    while row < m:
        x = [rng.uniform(lo, hi) for lo, hi in boxes]
        r = [rng.uniform(lo, hi) for lo, hi in boxes]
        try:
            values = x + r
            atoms = np.array([program(*values) for program in programs], dtype=float)
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
        row += 1
        failures = 0

    return SampleTable(monomial_values=mono_rows)


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
        result = (t.monomial_values.tobytes(),)
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
    (values,) = _assert_same_as_rowwise(oracle, p.basis, monos, 10, 1)
    assert np.frombuffer(values).tolist() == [1.0] * 10


@pytest.mark.parametrize(
    "arity,closed_form,queries,raw",
    [
        (1, "log(x)", ["f(x)", "x", "r"], False),  # atoms f(f(x)), f(x), f(r)
        (1, "log(x)", None, True),  # the default atoms, then x and r
        (2, "log(x + y)", None, False),
    ],
)
def test_more_bases_match_rowwise(arity, closed_form, queries, raw):
    # f(f(x)) and f(x) each call the oracle at x: no call is shared
    oracle = oracle_from_expr("o", parse(closed_form), arity, box=(-2.0, 8.0))
    chosen = queries_by_name(queries) if queries else default_query_class(arity)
    basis = build_basis("f", chosen, arity, include_raw_vars=raw)
    for degree in (1, 2, 3):
        monos = gen_monomials(basis, degree)
        for seed in (1, 2):
            _assert_same_as_rowwise(oracle, basis, monos, 100, seed)


def _reference_evaluator(closed_form, arity):
    """The two ``oracle_from_expr`` evaluators the bare compiled program
    replaced, kept as the reference: ``float`` on each argument, then
    the program."""
    slots = {Var(v): i for i, v in enumerate(input_vars(arity))}
    program = compile_double(closed_form, slots, {})
    if arity == 1:

        def evaluator(x):
            return program(float(x))

    else:

        def evaluator(*args):
            return program(*[float(a) for a in args])

    return evaluator


def _call_outcome(evaluator, args):
    try:
        value = evaluator(*args)
    except TypeError:
        return TypeError  # its message names the function called
    except (DomainError, OverflowError) as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


@pytest.mark.parametrize(
    "arity,closed_form,calls",
    [
        (
            1,
            "x^2 + 1/3",
            [
                ((3,), float), ((True,), float), ((np.float64(0.1),), float),
                ((math.nan,), DomainError), ((10**400,), OverflowError),
                ((), TypeError), ((1.0, 2.0), TypeError),
            ],
        ),
        (
            2,
            "x*y - 1/3",
            [
                ((3, True), float), ((np.float64(0.1), 7), float),
                ((1.0, math.nan), DomainError), ((10**400, 1.0), OverflowError),
                ((1.0,), TypeError), ((1.0, 2.0, 3.0), TypeError),
            ],
        ),
    ],
)
def test_evaluator_matches_old_wrappers(arity, closed_form, calls):
    oracle = oracle_from_expr("o", parse(closed_form), arity)
    reference = _reference_evaluator(parse(closed_form), arity)
    for args, kind in calls:
        got = _call_outcome(oracle.evaluator, args)
        assert got == _call_outcome(reference, args), args
        assert (got if got is TypeError else got[0]) is kind, args


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
    assert peak <= 1.5 * t.monomial_values.nbytes


def test_negative_seed_rejected():
    # numpy would raise its own ValueError at the first draw; the check
    # comes first, before any oracle call
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    calls = []
    inner = oracle.evaluator
    oracle.evaluator = lambda *args: calls.append(args) or inner(*args)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        _table(oracle, m=5, seed=-1)
    assert calls == []


def test_empty_monomial_list_rejected():
    oracle = oracle_from_expr("sq", parse("x^2"), 1)
    basis = build_basis("f", default_query_class(1), 1)
    with pytest.raises(ValueError, match="monomials"):
        draw_samples(oracle, basis, [], 5, 1)
