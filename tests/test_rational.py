import pickle
import time

import pytest

from rsrforge.errors import DomainError, RationalOverflow
from rsrforge.rational import ONE, ZERO, Rational


def test_normalization():
    assert Rational(2, 4) == Rational(1, 2)
    assert Rational(-3, -6) == Rational(1, 2)
    assert Rational(3, -6) == Rational(-1, 2)
    assert Rational(0, 7) == Rational(0)
    assert Rational(10, 5).den == 1


def test_zero_denominator_rejected():
    with pytest.raises(DomainError):
        Rational(1, 0)


def test_arithmetic():
    a, b = Rational(1, 2), Rational(1, 3)
    assert a + b == Rational(5, 6)
    assert a - b == Rational(1, 6)
    assert a * b == Rational(1, 6)
    assert a / b == Rational(3, 2)
    assert -a == Rational(-1, 2)
    assert abs(Rational(-7, 3)) == Rational(7, 3)
    # integer sums and products skip the gcd and stay normalized
    assert Rational(3) + Rational(-3) == ZERO
    assert Rational(6) * Rational(-7) == Rational(-42, 1)
    assert (Rational(6) * Rational(-7)).den == 1
    assert hash(Rational(2) + Rational(3)) == hash(Rational(10, 2))


def test_powers():
    assert Rational(2, 3) ** 3 == Rational(8, 27)
    assert Rational(2, 3) ** -2 == Rational(9, 4)
    assert Rational(5) ** 0 == ONE
    with pytest.raises(DomainError):
        ZERO**-1


def test_division_by_zero():
    with pytest.raises(DomainError):
        ONE / ZERO


def test_comparisons_and_float():
    assert Rational(1, 3) < Rational(1, 2)
    assert Rational(-5) < ZERO
    assert float(Rational(3, 4)) == 0.75


def test_overflow_detection():
    big = Rational(2**126)
    with pytest.raises(RationalOverflow):
        big * Rational(4)
    with pytest.raises(RationalOverflow):
        big + big
    # never silently wraps: a legal nearby computation still works
    assert big * ONE == big


def test_hopeless_power_refused_before_computing():
    start = time.perf_counter()
    for base, k in ((Rational(7), 30_000_000), (Rational(1, 7), -30_000_000)):
        with pytest.raises(RationalOverflow):
            base**k
    assert time.perf_counter() - start < 1.0
    # the message names bit lengths, never a huge integer
    with pytest.raises(RationalOverflow, match="exceeds 128-bit range") as info:
        Rational(1 << 200)
    assert str(info.value) == "201-bit integer exceeds 128-bit range"
    assert Rational(2) ** 126 == Rational(1 << 126)
    assert Rational(1, 2) ** -126 == Rational(1 << 126)
    with pytest.raises(RationalOverflow):
        Rational(2) ** 127


def test_parse_and_repr():
    assert str(Rational(-3, 9)) == "-1/3"
    assert str(Rational(5)) == "5"


def test_pickle_round_trip():
    for r in (ZERO, ONE, Rational(-3, 7), Rational(2**126), Rational(5) * Rational(4)):
        back = pickle.loads(pickle.dumps(r))
        assert back == r and hash(back) == hash(r) and repr(back) == repr(r)
