"""Rational coefficient recovery and its sample complexity.

Discovery reads its identities from the null space of the sampled
design (``discovery``); this module turns their float coefficients into
exact ones.  ``rationalize`` snaps a coefficient to the best rational
with bounded denominator by the continued-fraction walk of
``Fraction.limit_denominator``, on the double's exact integer ratio and
without building a Fraction.  ``stability_sample_complexity`` counts
the train rows a minimum-norm least-squares refit of an identity's
support needs before its coefficients snap to the same rationals.
"""

from __future__ import annotations

import math

import numpy as np

from .rational import Rational


def _as_matrix(design, targets):
    X = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2:
        raise ValueError("design must be a 2-D matrix")
    if X.shape[0] != y.shape[0]:
        raise ValueError("design and target row counts differ")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("design must have at least one row and one column")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("design and targets must be finite")
    return X, y


def rationalize(c: float, max_denominator: int) -> Rational:
    """Best rational approximation with bounded denominator.

    The continued-fraction walk of ``Fraction.limit_denominator`` run on
    the exact ratio of the double c: the last convergent with
    denominator at most max_denominator, or the semiconvergent beyond it
    when that is strictly closer to c.  No rational with denominator at
    most max_denominator is strictly closer to c, and both candidates are
    in lowest terms.  Raises ValueError for NaN or infinity and
    RationalOverflow when the result leaves the 128-bit range.
    """
    c = float(c)
    if not math.isfinite(c):
        raise ValueError("cannot rationalize a non-finite value")
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    num, den = c.as_integer_ratio()
    if den <= max_denominator:
        return Rational(num, den)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    # c lies between p1/q1 and the semiconvergent p/q; they are
    # 1/(q1 q) apart and p1/q1 is d/(q1 den) from c, so p1/q1 is at
    # least as close iff 2 d q <= den (a tie keeps p1/q1)
    k = (max_denominator - q0) // q1
    q = q0 + k * q1
    if 2 * d * q <= den:
        return Rational(p1, q1)
    return Rational(p0 + k * p1, q)


def stability_sample_complexity(X, y, rats, max_denominator: int) -> int:
    """Smallest train-prefix length whose refit on every column of X
    rationalizes to rats; the row count if it never stabilizes, or if
    rats holds a zero.  Each prefix stops at its first coefficient that
    misses its target."""
    X, y = _as_matrix(X, y)
    m = X.shape[0]
    target = list(rats)
    if len(target) != X.shape[1] or any(r.is_zero for r in target):
        return m
    for mprime in range(1, m + 1):
        coef = np.linalg.lstsq(X[:mprime], y[:mprime], rcond=None)[0]
        if all(rationalize(c, max_denominator) == t for c, t in zip(coef, target)):
            return mprime
    return m
