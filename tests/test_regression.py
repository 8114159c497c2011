import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsrforge.errors import NoSparseModel
from rsrforge.rational import Rational
from rsrforge.regression import (
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
