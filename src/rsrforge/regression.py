"""Sparsifying linear regression with rational coefficient recovery.

fit/sparsify operate on plain matrices; the discovery pipeline owns row
and column scaling.  Every fit, and every refit inside sparsify, is
minimum-norm least squares, so the final coefficients on the surviving
support are unbiased and snap cleanly to rationals; the package has no
other estimator.  Sparsification is greedy backward elimination: columns
with coefficients below the relative threshold are always dropped, and
once none remain, the smallest surviving coefficient is tentatively
dropped and kept out only while the refit error stays within the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NoSparseModel, SingularDesign
from .rational import Rational


@dataclass(frozen=True)
class FitResult:
    coefficients: np.ndarray
    surviving: tuple
    train_mse: float


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


def mse(X: np.ndarray, y: np.ndarray, coef: np.ndarray) -> float:
    res = y - X @ coef
    return float(res @ res) / len(y)


def fit(design, targets) -> np.ndarray:
    """Minimum-norm least-squares solution of the rank-revealing SVD solver."""
    X, y = _as_matrix(design, targets)
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank == 0:
        raise SingularDesign("design matrix has rank zero")
    return coef


_SPARSIFY_ATTEMPTS = 6
_QUALITY_FLOOR = 1e-20


def sparsify(
    design,
    targets,
    coefficients,
    drop_threshold: float = 1e-3,
    eps: float = 1e-3,
) -> FitResult:
    """Backward elimination from a full coefficient vector until no single
    column can be removed.

    Each round walks the surviving columns by ascending |coefficient| and
    removes the first one whose refit keeps the train MSE within bounds;
    columns below drop_threshold (relative to the largest coefficient)
    are the primary candidates, and at most a handful of above-threshold
    drops are attempted per round so the loop stays near-linear.  A drop
    must keep the MSE within eps AND must not degrade an (almost) exact
    fit into a merely eps-good one, so machine-precision identities never
    get pruned into loose approximations.  Refits are minimum-norm least
    squares, which debiases the survivors.
    """
    X, y = _as_matrix(design, targets)
    k = X.shape[1]
    active = list(range(k))
    coef = np.asarray(coefficients, dtype=float).copy()
    if len(coef) != k:
        raise ValueError("coefficient count does not match design width")

    current = mse(X, y, coef)
    if current > eps:
        raise NoSparseModel(
            f"full model train MSE {current:.3g} already exceeds eps {eps:.3g}"
        )

    def refit(cols):
        if not cols:
            return np.zeros(0), float(y @ y) / len(y)
        sub = X[:, cols]
        c, _, _, _ = np.linalg.lstsq(sub, y, rcond=None)
        return c, mse(sub, y, c)

    def allowed(cur: float) -> float:
        return min(eps, max(16.0 * cur, _QUALITY_FLOOR))

    coef_active = coef[list(active)]
    dropped_any = False
    while active:
        magnitudes = np.abs(coef_active)
        tau = drop_threshold * float(magnitudes.max())
        bound = allowed(current)
        order = sorted(range(len(active)), key=lambda i: (magnitudes[i], i))
        dropped = False
        attempts = 0
        for i in order:
            below = magnitudes[i] < tau
            if not below:
                attempts += 1
                if attempts > _SPARSIFY_ATTEMPTS:
                    break
            trial = [c for pos, c in enumerate(active) if pos != i]
            new_coef, new_mse = refit(trial)
            if new_mse <= bound:
                active = trial
                coef_active = new_coef
                current = new_mse
                dropped = dropped_any = True
                break
        if not dropped:
            break

    # after a drop, coef_active and current already are refit(active)
    if not dropped_any:
        coef_active, current = refit(active)
    if current > eps:
        raise NoSparseModel(
            f"sparsified model MSE {current:.3g} exceeds eps {eps:.3g}"
        )
    coef_full = np.zeros(k)
    coef_full[active] = coef_active
    return FitResult(
        coefficients=coef_full, surviving=tuple(active), train_mse=current
    )


def rationalize(c: float, max_denominator: int) -> Rational:
    """Best rational approximation with bounded denominator.

    Continued-fraction convergents/semiconvergents via
    Fraction.limit_denominator: no rational with denominator at most
    max_denominator is strictly closer to c.
    """
    if not np.isfinite(c):
        raise ValueError("cannot rationalize a non-finite value")
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    frac = Fraction(float(c)).limit_denominator(max_denominator)
    return Rational(frac.numerator, frac.denominator)


def stability_sample_complexity(
    design,
    targets,
    surviving,
    final_rationals,
    max_denominator: int = 100,
) -> int:
    """Smallest train-prefix length whose support-restricted refit
    rationalizes to the final coefficients; m if it never stabilizes."""
    X, y = _as_matrix(design, targets)
    m = X.shape[0]
    cols = list(surviving)
    if not cols:
        return m
    sub = X[:, cols]
    target = list(final_rationals)
    for mprime in range(1, m + 1):
        coef, _, _, _ = np.linalg.lstsq(sub[:mprime], y[:mprime], rcond=None)
        snapped = [rationalize(c, max_denominator) for c in coef]
        if snapped == target and not any(r.is_zero for r in snapped):
            return mprime
    return m
