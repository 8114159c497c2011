"""Sparsifying linear regression with rational coefficient recovery.

fit/sparsify operate on plain matrices; the discovery pipeline owns row
and column scaling.  Every fit, and every refit inside sparsify, is
minimum-norm least squares, so the final coefficients on the surviving
support are unbiased and snap cleanly to rationals.  Sparsification is
greedy backward elimination: columns with coefficients below the
relative threshold are always dropped, and once none remain, the
smallest surviving coefficient is tentatively dropped and kept out only
while the refit error stays within the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NoSparseModel, SearchSpaceTooLarge, SingularDesign
from .rational import Rational

_TIE_REL = 1e-9
INTEGER_MAX_COLUMNS = 12  # widest design fit_integer_bounded searches


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


# --------------------------------------------------------------------------
# Bounded integer-coefficient exact search
# --------------------------------------------------------------------------


def _tie_better(cand, best) -> bool:
    """cand/best are (mse, nnz, coef_tuple); exact-mse ties break toward
    fewer nonzeros, then the lexicographically smallest vector."""
    mse_c, nnz_c, vec_c = cand
    mse_b, nnz_b, vec_b = best
    tol = _TIE_REL * max(1.0, abs(mse_b))
    if mse_c < mse_b - tol:
        return True
    if mse_c > mse_b + tol:
        return False
    return (nnz_c, vec_c) < (nnz_b, vec_b)


def fit_integer_bounded(design, targets, var_bound: int) -> FitResult:
    """Exact search over integer coefficient vectors in [-B, B]^k.

    Finds the vector minimizing train MSE; among minimizers, fewest
    nonzeros, then lexicographically smallest.  Branch and bound with a
    real-relaxation lower bound per prefix; instances beyond the
    documented desk scale raise.
    """
    X, y = _as_matrix(design, targets)
    m, k = X.shape
    if k > INTEGER_MAX_COLUMNS:
        raise SearchSpaceTooLarge(
            f"{k} columns exceeds the {INTEGER_MAX_COLUMNS}-column limit"
        )
    if var_bound > 10:
        raise SearchSpaceTooLarge("var_bound above 10 is not supported")
    if var_bound < 0:
        raise ValueError("var_bound must be nonnegative")

    zero_mse = float(y @ y) / m
    best = (zero_mse, 0, (0,) * k)

    if var_bound == 0:
        return FitResult(
            coefficients=np.zeros(k),
            surviving=(),
            train_mse=zero_mse,
        )

    # Residual lower bound: projecting out all still-free columns can only
    # reduce the norm, so ||P_j r||^2/m under-estimates every completion.
    projs = []
    for j in range(k + 1):
        suffix = X[:, j:]
        if suffix.shape[1] == 0:
            projs.append(None)
            continue
        q, _ = np.linalg.qr(suffix, mode="reduced")
        projs.append(q)

    values = [0]
    for v in range(1, var_bound + 1):
        values.extend((v, -v))

    budget = [5_000_000]
    prefix = [0] * k

    def descend(j: int, residual: np.ndarray, nnz: int):
        nonlocal best
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchSpaceTooLarge("node budget exhausted in integer search")
        if j == k:
            cand = (float(residual @ residual) / m, nnz, tuple(prefix))
            if _tie_better(cand, best):
                best = cand
            return
        q = projs[j]
        if q is not None:
            proj = residual - q @ (q.T @ residual)
            lower = float(proj @ proj) / m
        else:
            lower = float(residual @ residual) / m
        if lower > best[0] + _TIE_REL * max(1.0, best[0]):
            return
        col = X[:, j]
        for v in values:
            prefix[j] = v
            descend(j + 1, residual - v * col, nnz + (v != 0))
        prefix[j] = 0

    descend(0, y.copy(), 0)

    coef = np.array(best[2], dtype=float)
    return FitResult(
        coefficients=coef,
        surviving=tuple(int(j) for j in np.nonzero(coef)[0]),
        train_mse=best[0],
    )


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
