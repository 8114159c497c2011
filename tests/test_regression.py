from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsrforge.errors import RationalOverflow
from rsrforge.rational import Rational
from rsrforge.regression import rationalize, stability_sample_complexity

# the registry entries of the exact-poly benchmark workload
_EXACT_POLY = (
    "linear", "squared", "int_mult", "sign", "frac",
    "floudas", "mean", "diff_squares", "square_loss", "inverse",
)


def test_rationalize_examples():
    assert rationalize(0.5, 100) == Rational(1, 2)
    assert rationalize(0.3333333, 10) == Rational(1, 3)
    assert rationalize(3.14159265, 113) == Rational(355, 113)
    assert rationalize(-0.25, 100) == Rational(-1, 4)


def _rationalize_sweep():
    """Seeded values plus negatives, integers, exact small-denominator
    values, subnormals, signed zeros and dyadic midpoints, where the
    convergent and the semiconvergent of a power-of-two bound tie."""
    rng = np.random.default_rng(17)
    values = list(rng.uniform(-10, 10, 2000))
    values += list(rng.normal(size=500) * 10.0 ** rng.integers(-300, 30, 500))
    values += [float(p / q) for p in range(-40, 41) for q in range(1, 30)]
    values += [k / 256 for k in range(-600, 601)]
    values += [float(n) for n in range(-20, 21)] + [1e15, -(2.0**100)]
    values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310]
    return values


@pytest.mark.parametrize("max_den", [1, 2, 4, 7, 100, 1000])
def test_rationalize_matches_limit_denominator(max_den):
    for c in _rationalize_sweep():
        want = Fraction(c).limit_denominator(max_den)
        got = rationalize(np.float64(c), max_den)
        assert (got.num, got.den) == (want.numerator, want.denominator), c


def test_rationalize_ties_and_errors():
    # halfway between the two candidates, the convergent is kept
    assert rationalize(0.5, 1) == Rational(0)
    assert rationalize(-0.5, 1) == Rational(-1)
    assert rationalize(2.5, 1) == Rational(2)
    assert rationalize(0.125, 4) == Rational(0)
    assert rationalize(-0.0, 7) == Rational(0)
    for c in (2.0**127, -(2.0**127), 1e300):
        with pytest.raises(RationalOverflow):
            rationalize(c, 100)
    with pytest.raises(RationalOverflow):
        rationalize(5e-324, 2**1100)  # the exact dyadic denominator is kept
    for c in (float("nan"), float("inf"), -np.inf):
        with pytest.raises(ValueError):
            rationalize(c, 100)


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
