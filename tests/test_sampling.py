import math

import numpy as np
import pytest

from rsrforge import sampling
from rsrforge.errors import (
    DomainError,
    RSRError,
    SamplingExhausted,
    TooFewRows,
    UnknownSeries,
)
from rsrforge.parser import parse
from rsrforge.queries import build_basis, default_query_class, gen_monomials
from rsrforge.sampling import (
    Oracle,
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
