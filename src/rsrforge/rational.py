"""Exact rational numbers over checked 128-bit integers.

Python integers never wrap, so the "overflow" contract is enforced
explicitly: any result whose numerator or denominator leaves the signed
128-bit range raises RationalOverflow instead of silently growing.
Continued-fraction snapping with denominators up to 10**6 stays far
inside this range.  The contract covers Rational values; polyratio's
exact expansion multiplies plain Python ints and converts only its
result, so its intermediate integers may pass 2^127.

``Rational`` is a slotted frozen dataclass, so equality, hashing, repr
and pickling come from its two fields.  The constructor normalizes;
``_make`` wraps a pair that is already normalized and range-checked,
which is how the sum and the product of two integers skip the gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RationalOverflow

_LIMIT = 1 << 127


def _check(n: int) -> int:
    # names the bit length: past 4300 digits Python refuses to print n
    if n >= _LIMIT or n <= -_LIMIT:
        raise RationalOverflow(f"{n.bit_length()}-bit integer exceeds 128-bit range")
    return n


@dataclass(frozen=True, slots=True)
class Rational:
    """Normalized fraction: gcd(|num|, den) == 1 and den > 0."""

    num: int
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if den == 0:
            raise DomainError("rational with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        _check(num)
        _check(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # --- arithmetic ---------------------------------------------------

    def __add__(self, other: "Rational") -> "Rational":
        if self.den == 1 and other.den == 1:
            return _make(_check(self.num + other.num), 1)
        return Rational(
            _check(self.num * other.den + other.num * self.den),
            _check(self.den * other.den),
        )

    def __sub__(self, other: "Rational") -> "Rational":
        return Rational(
            _check(self.num * other.den - other.num * self.den),
            _check(self.den * other.den),
        )

    def __mul__(self, other: "Rational") -> "Rational":
        if self.den == 1 and other.den == 1:
            return _make(_check(self.num * other.num), 1)
        return Rational(_check(self.num * other.num), _check(self.den * other.den))

    def __truediv__(self, other: "Rational") -> "Rational":
        if other.num == 0:
            raise DomainError("division by zero rational")
        return Rational(_check(self.num * other.den), _check(self.den * other.num))

    def __neg__(self) -> "Rational":
        return Rational(-self.num, self.den)

    def __abs__(self) -> "Rational":
        return Rational(abs(self.num), self.den)

    def __pow__(self, k: int) -> "Rational":
        if not isinstance(k, int):
            raise TypeError("rational powers must have integer exponents")
        # |n| >= 2^(bits - 1), so |n|^|k| cannot fit once (bits - 1)|k|
        # reaches 127: refuse before computing a power that may not end
        if (max(self.num.bit_length(), self.den.bit_length()) - 1) * abs(k) >= 127:
            raise RationalOverflow(f"{self!r} to the power {k} exceeds 128-bit range")
        if k >= 0:
            return Rational(_check(self.num**k), _check(self.den**k))
        if self.num == 0:
            raise DomainError("zero raised to a negative power")
        return Rational(_check(self.den ** (-k)), _check(self.num ** (-k)))

    # --- comparisons ---------------------------------------------------

    def __lt__(self, other: "Rational") -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "Rational") -> bool:
        return self.num * other.den <= other.num * self.den

    def __float__(self) -> float:
        return self.num / self.den

    def __repr__(self) -> str:
        return f"{self.num}" if self.den == 1 else f"{self.num}/{self.den}"

    # --- helpers --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num == 0


_new = object.__new__
_set_num = Rational.num.__set__
_set_den = Rational.den.__set__


def _make(num: int, den: int) -> Rational:
    """Rational(num, den) for a pair already in lowest terms with den > 0
    and both inside the 128-bit range; the caller guarantees all three."""
    r = _new(Rational)
    _set_num(r, num)
    _set_den(r, den)
    return r


ZERO = Rational(0)
ONE = Rational(1)
