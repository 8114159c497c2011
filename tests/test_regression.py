import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsrforge import discovery, regression
from rsrforge.bench import run_bench
from rsrforge.errors import NoSparseModel
from rsrforge.rational import Rational
from rsrforge.regression import (
    _DROP_THRESHOLD,
    _QUALITY_FLOOR,
    _SPARSIFY_ATTEMPTS,
    _as_matrix,
    _lstsq,
    rationalize,
    sparsify,
    stability_sample_complexity,
)


def test_fit_exact_line():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([2.0, 4.0, 6.0])
    sup, coef = sparsify(X, y, 1e-3)
    assert sup == [0]
    assert coef[0] == pytest.approx(2.0, abs=1e-12)


def test_singular_design():
    # a zero design fits y = 1 by zero, missing any eps below 1
    with pytest.raises(NoSparseModel):
        sparsify(np.zeros((5, 2)), np.ones(5), 1e-3)


def _squared_design(m=50, seed=4):
    """Columns f(x+r), f(x-r), f(x), f(r) for f = t^2; target f(x+r)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, size=m)
    r = rng.uniform(-10, 10, size=m)
    cols = np.stack([(x - r) ** 2, x**2, r**2], axis=1)
    y = (x + r) ** 2
    return cols, y


def _counting_lstsq(monkeypatch):
    """Record the design of every np.linalg.lstsq call."""
    lstsq = np.linalg.lstsq
    designs = []

    def counted(a, b, rcond=None):
        designs.append(a.tobytes())
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return designs


def test_sparsify_parallelogram():
    X, y = _squared_design()
    sup, coef = sparsify(X, y, 1e-3)
    assert sup == [0, 1, 2]
    assert np.allclose(coef, [-1.0, 2.0, 2.0], atol=1e-9)
    res = y - X[:, sup] @ coef
    assert float(res @ res) / len(y) <= 1e-3


def test_sparsify_solves_each_column_set_once(monkeypatch):
    # nothing drops here: the full fit is the answer, not solved again
    X, y = _squared_design()
    designs = _counting_lstsq(monkeypatch)
    sup, _ = sparsify(X, y, 1e-3)
    monkeypatch.undo()
    assert sup == [0, 1, 2]
    assert len(designs) == 4  # the full fit, then three rejected trials
    assert len(set(designs)) == len(designs)


def test_sparsify_drops_noise_column():
    X, y = _squared_design()
    rng = np.random.default_rng(9)
    X = np.column_stack([X, rng.normal(size=len(y))])
    sup, _ = sparsify(X, y, 1e-3)
    assert 3 not in sup


def test_sparsify_reuses_accepted_refit(monkeypatch):
    X, y = _squared_design()
    rng = np.random.default_rng(9)
    X = np.column_stack([X, rng.normal(size=len(y))])
    designs = _counting_lstsq(monkeypatch)
    sup, coef = sparsify(X, y, 1e-3)
    monkeypatch.undo()
    # the full fit, one accepted drop (the noise column), then three
    # rejected trials; the survivors are not refit a second time
    assert sup == [0, 1, 2]
    assert len(designs) == 5
    assert len(set(designs)) == len(designs)
    want = np.linalg.lstsq(X[:, sup], y, rcond=None)[0]
    assert np.array_equal(coef, want)


def test_sparsify_is_fixed_point():
    X, y = _squared_design()
    rng = np.random.default_rng(9)
    X = np.column_stack([X, rng.normal(size=len(y))])
    sup, coef = sparsify(X, y, 1e-3)
    again, coef_again = sparsify(X[:, sup], y, 1e-3)
    assert again == list(range(len(sup)))
    assert np.allclose(coef, coef_again)


def test_sparsify_eps_zero_noisy():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(30, 2))
    y = X[:, 0] + 0.1 * rng.normal(size=30)
    with pytest.raises(NoSparseModel):
        sparsify(X, y, 0.0)


def _sparsify_one_at_a_time(X, y, eps: float) -> tuple:
    """The backward elimination that drops one column per round.

    Kept verbatim, apart from its name, as the reference ``sparsify``
    must match: the same support, bit-equal coefficients and
    NoSparseModel in the same cases.
    """
    X, y = _as_matrix(X, y)
    active = list(range(X.shape[1]))
    coef, current = _lstsq(X, y, active)
    if current > eps:
        raise NoSparseModel(
            f"full model train MSE {current:.3g} already exceeds eps {eps:.3g}"
        )
    while active:
        magnitudes = np.abs(coef)
        below = int(np.sum(magnitudes < _DROP_THRESHOLD * float(magnitudes.max())))
        bound = min(eps, max(16.0 * current, _QUALITY_FLOOR))
        order = sorted(range(len(active)), key=lambda i: (magnitudes[i], i))
        for i in order[: below + _SPARSIFY_ATTEMPTS]:
            trial = active[:i] + active[i + 1 :]
            new_coef, new_mse = _lstsq(X, y, trial)
            if new_mse <= bound:
                active, coef, current = trial, new_coef, new_mse
                break
        else:
            break
    return active, coef


def _outcome(fn, X, y, eps):
    try:
        sup, coef = fn(X, y, eps)
    except NoSparseModel:
        return None
    return sup, coef.tobytes()


# the registry entries of the exact-poly benchmark workload
_EXACT_POLY = (
    "linear", "squared", "int_mult", "sign", "frac",
    "floudas", "mean", "diff_squares", "square_loss", "inverse",
)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparsify_matches_one_at_a_time_on_route_a_designs(monkeypatch, seed):
    designs = []

    def recorded(X, y, eps):
        designs.append((X, y, eps))
        return sparsify(X, y, eps)

    monkeypatch.setattr(discovery, "sparsify", recorded)
    run_bench(names=list(_EXACT_POLY), repetitions=1, seed=seed, workers=1)
    monkeypatch.undo()
    assert len(designs) > 100
    skipped = 0
    for X, y, eps in designs:
        got = _outcome(sparsify, X, y, eps)
        assert got == _outcome(_sparsify_one_at_a_time, X, y, eps)
        skipped += got is None
    assert 0 < skipped < len(designs)


def test_sparsify_drops_below_threshold_columns_in_one_refit(monkeypatch):
    # four noise columns get coefficients near 1e-15 in the exact full
    # fit; one refit leaves them all out, then the three ground-truth
    # columns are each tried once and kept
    X, y = _squared_design()
    rng = np.random.default_rng(9)
    X = np.column_stack([X, rng.normal(size=(len(y), 4))])
    calls = []

    def counted(X, y, cols):
        calls.append(list(cols))
        return _lstsq(X, y, cols)

    monkeypatch.setattr(regression, "_lstsq", counted)
    sup, _ = sparsify(X, y, 1e-3)
    monkeypatch.undo()
    assert sup == [0, 1, 2]
    assert calls[:2] == [list(range(7)), [0, 1, 2]]
    # one at a time takes 8: the full fit, 4 accepted and 3 rejected drops
    assert len(calls) == 5
    assert _outcome(sparsify, X, y, 1e-3) == _outcome(
        _sparsify_one_at_a_time, X, y, 1e-3
    )


def test_rationalize_examples():
    assert rationalize(0.5, 100) == Rational(1, 2)
    assert rationalize(0.3333333, 10) == Rational(1, 3)
    assert rationalize(3.14159265, 113) == Rational(355, 113)
    assert rationalize(-0.25, 100) == Rational(-1, 4)


def _brute_force_best(c: float, max_den: int) -> Rational:
    best = None
    err = None
    for q in range(1, max_den + 1):
        p = round(c * q)
        cand = abs(c - p / q)
        if err is None or cand < err - 1e-18:
            best, err = Rational(int(p), q), cand
    return best


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(-200, 200),
    q=st.integers(1, 50),
    max_den=st.integers(1, 50),
)
def test_rationalize_optimality_vs_brute_force(p, q, max_den):
    c = p / q
    got = rationalize(c, max_den)
    best = _brute_force_best(c, max_den)
    assert abs(c - float(got)) <= abs(c - float(best)) + 1e-15


def test_stability_sample_complexity():
    rng = np.random.default_rng(13)
    x = rng.uniform(-10, 10, size=50)
    r = rng.uniform(-10, 10, size=50)
    X = np.stack([3 * x, 3 * r], axis=1)
    y = 3 * (x + r)
    rats = [Rational(1), Rational(1)]
    sc = stability_sample_complexity(X, y, rats, 100)
    assert sc <= 4  # |MON| + 2 for an exact linear relation

    # appending rows never increases the stability point
    X2 = np.vstack([X, X[:10]])
    y2 = np.concatenate([y, y[:10]])
    assert stability_sample_complexity(X2, y2, rats, 100) <= sc

    # pure noise never stabilizes to a fixed snap
    noise_y = rng.normal(size=50)
    coef = np.linalg.lstsq(X, noise_y, rcond=None)[0]
    final = [rationalize(float(c), 100) for c in coef]
    sc_noise = stability_sample_complexity(X, noise_y, final, 100)
    assert sc_noise >= 45
