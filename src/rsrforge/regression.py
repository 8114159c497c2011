"""Sparsifying linear regression with rational coefficient recovery.

sparsify operates on a plain matrix; the discovery pipeline owns row and
column scaling.  Its full fit, and every refit inside it, is
minimum-norm least squares, so the final coefficients on the surviving
support are unbiased and snap cleanly to rationals; the package has no
other estimator.  Sparsification is greedy backward elimination: columns
with coefficients below the relative threshold go first, all of them in
one refit when the error bound allows it, one at a time otherwise; once
none remain, the smallest surviving coefficient is tentatively dropped
and kept out only while the refit error stays within the bound.
``rationalize`` snaps a coefficient to the best rational with bounded
denominator by the continued-fraction walk of
``Fraction.limit_denominator``, on the double's exact integer ratio and
without building a Fraction.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoSparseModel
from .rational import Rational

_DROP_THRESHOLD = 1e-3  # relative coefficient cut; columns below it go first
_SPARSIFY_ATTEMPTS = 6
_QUALITY_FLOOR = 1e-20


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


def _lstsq(X: np.ndarray, y: np.ndarray, cols: list):
    """Minimum-norm least squares of y on the columns cols of X, and its
    train MSE; no columns fit y by zero."""
    if not cols:
        return np.zeros(0), float(y @ y) / len(y)
    sub = X[:, cols]
    coef = np.linalg.lstsq(sub, y, rcond=None)[0]
    res = y - sub @ coef
    return coef, float(res @ res) / len(y)


def sparsify(X, y, eps: float) -> tuple:
    """Least squares of y on every column of X, then backward elimination
    until no single column can be removed: (surviving columns, their
    coefficients).  Raises NoSparseModel when the full fit's train MSE
    already exceeds eps.

    A round where more than one column is below _DROP_THRESHOLD
    (relative to the largest coefficient) first refits without all of
    them and keeps that refit if its train MSE is within bounds.
    Otherwise the round walks the surviving columns by ascending
    |coefficient| and removes the first one whose refit keeps the train
    MSE within bounds; the below-threshold columns are the primary
    candidates, and at most a handful of above-threshold drops are
    attempted per round so the loop stays near-linear.  A drop
    must keep the MSE within eps AND must not degrade an (almost) exact
    fit into a merely eps-good one, so machine-precision identities never
    get pruned into loose approximations.  The accepted refit is the
    survivors' fit; the survivors are not solved again.
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
        small = magnitudes < _DROP_THRESHOLD * float(magnitudes.max())
        below = int(np.sum(small))
        bound = min(eps, max(16.0 * current, _QUALITY_FLOOR))
        if below > 1:
            trial = [c for c, s in zip(active, small) if not s]
            new_coef, new_mse = _lstsq(X, y, trial)
            if new_mse <= bound:
                active, coef, current = trial, new_coef, new_mse
                continue
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
