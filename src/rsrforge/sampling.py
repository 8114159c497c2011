"""Black-box oracles and correlated sample generation.

Draws come from a seeded PCG64 stream (the documented, cross-platform
generator numpy guarantees stable streams for) inside the oracle's box,
so the oracle, basis, monomials, row count and seed reproduce a
SampleTable bit for bit.  A draw is rejected and redrawn whenever any
basis atom or monomial value raises a domain error or comes out
non-finite; this keeps accepted rows i.i.d. on the feasible region.
The table holds monomial values only; a basis built with raw variables
makes x and r monomials of their own.

``draw_samples`` works on blocks of attempts: one ``rng.random`` call
draws a block's (x, r) points, one generated Python function loops over
them in draw order and computes every basis atom of a point inline (and
through the atoms calls the oracle), and one column-by-column numpy fold
raises the block's atom rows to the monomial exponents.  Each step
performs the same floating-point operations, and makes the same oracle
calls, as evaluating each atom's tree row by row, so tables and
exceptions are unchanged.  A block holds at most as many attempts as the
rows still missing and as the rejections still allowed, so it never
makes an attempt that a row-at-a-time sampler would not, and its
temporaries stay below _MAX_RETRIES_PER_ROW rows of monomial values.

Each ``draw_samples`` call compiles its basis once into that block
function (``expr.compile_double_block``), with f bound to the oracle's
evaluator as it stands at the call.  An oracle built from a closed form
compiles it once, and its evaluator is that compiled program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, RSRError, SamplingExhausted, TooFewRows, UnknownSeries
from .expr import Expr, Var, compile_double, compile_double_block
from .queries import TermBasis, input_vars, randomness_vars

DEFAULT_BOX = (-10.0, 10.0)
_MAX_RETRIES_PER_ROW = 100  # consecutive rejected draws before SamplingExhausted
_TRAIN_FRACTION = 0.8  # share of a table's rows that split gives to training
MIN_SPLIT_ROWS = 5  # fewest rows split accepts


def expand_box(box, arity: int) -> list:
    """One (lo, hi) float pair per coordinate.

    box is a single (lo, hi) pair applied to every coordinate, or a
    sequence of arity pairs.  Each pair must hold two finite bounds with
    lo < hi; anything else raises RSRError naming the offending range.
    """
    pairs = list(box) if box and isinstance(box[0], (tuple, list)) else [box] * arity
    if len(pairs) != arity:
        raise RSRError(f"box has {len(pairs)} coordinate ranges for arity {arity}")
    out = []
    for pair in pairs:
        try:
            lo, hi = map(float, pair)
        except (TypeError, ValueError):
            raise RSRError(f"box range {pair!r} is not a pair of numbers") from None
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise RSRError(f"box range ({lo}, {hi}) needs finite bounds with lo < hi")
        out.append((lo, hi))
    return out


@dataclass
class Oracle:
    """Deterministic black-box program allegedly computing some f."""

    arity: int
    evaluator: Callable
    name: str = "oracle"
    box: tuple = DEFAULT_BOX  # one (lo, hi) applied per coordinate, or a tuple of them

    def coordinate_boxes(self) -> list:
        return expand_box(self.box, self.arity)


def oracle_from_expr(name: str, expr: Expr, arity: int, box=DEFAULT_BOX) -> Oracle:
    """Oracle evaluating a closed form over x (x, y, or x1..xn) in doubles.

    Its evaluator is the closed form's compiled program, which takes one
    argument per coordinate and passes each through ``float``.
    """
    slots = {Var(v): i for i, v in enumerate(input_vars(arity))}
    program = compile_double(expr, slots, {})
    return Oracle(arity=arity, evaluator=program, name=name, box=box)


@dataclass
class SampleTable:
    """Evaluated monomials, one row per accepted (x, r) draw."""

    monomial_values: np.ndarray  # m x |MON|

    @property
    def m(self) -> int:
        return self.monomial_values.shape[0]


def split(table: SampleTable) -> tuple:
    """Prefix/suffix partition of m >= MIN_SPLIT_ROWS rows: floor(0.8 m) train."""
    if table.m < MIN_SPLIT_ROWS:
        raise TooFewRows(f"need at least {MIN_SPLIT_ROWS} rows to split, have {table.m}")
    k = int(math.floor(_TRAIN_FRACTION * table.m))  # 1 <= k < m, as m >= 5
    values = table.monomial_values
    return SampleTable(values[:k]), SampleTable(values[k:])


def draw_samples(
    oracle: Oracle, basis: TermBasis, monomials: list, m: int, seed: int
) -> SampleTable:
    """Draw m accepted rows of correlated samples from the oracle's box.

    Attempts run in blocks of k = min(m - row, _MAX_RETRIES_PER_ROW -
    failures).  A block draws its k x 2·arity uniforms in one call (x
    coordinates, then r coordinates), runs the compiled basis over its
    points, then folds the successful atom rows into monomial values one
    atom column at a time and keeps the rows that are finite throughout.

    Raises ValueError for m < 1, a negative seed or an empty monomial
    list, and SamplingExhausted after _MAX_RETRIES_PER_ROW consecutive
    rejections, which signals that the box is not usefully contained in
    the oracle's domain.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not monomials:
        raise ValueError("monomials must not be empty")
    boxes = oracle.coordinate_boxes()
    rng = np.random.Generator(np.random.PCG64(seed))

    arity = oracle.arity
    names = input_vars(arity) + randomness_vars(arity)
    slots = {Var(name): i for i, name in enumerate(names)}
    evaluate_block = compile_double_block(basis.terms, slots, {"f": oracle.evaluator})
    expmat = np.array([mono.exponents for mono in monomials], dtype=np.int64)
    # columns are the x coordinates, then the r coordinates, each in its box
    low = np.array([lo for lo, _ in boxes] * 2)
    width = np.array([hi - lo for lo, hi in boxes] * 2)

    mono_rows = np.empty((m, len(monomials)))

    row = 0
    failures = 0
    while row < m:
        k = min(m - row, _MAX_RETRIES_PER_ROW - failures)
        # lo + width * u is rng.uniform(lo, hi) bit for bit, in stream order
        draws = low + width * rng.random((k, 2 * arity))
        evaluated, atom_rows = evaluate_block(draws.tolist())
        hits = np.array(evaluated, dtype=np.intp)
        if hits.size:
            atoms = np.array(atom_rows, dtype=float)
            # the np.power calls and left-fold multiplies of a per-row
            # np.prod(np.power(atoms, expmat), axis=1), with no
            # k x |MON| x |atoms| temporary; 1.0 * v is v exactly, and a
            # basis with no atoms gives the empty product 1
            mono = np.ones((hits.size, len(monomials)))
            with np.errstate(over="ignore", invalid="ignore"):
                for j in range(atoms.shape[1]):
                    mono *= atoms[:, j : j + 1] ** expmat[:, j]
            finite = np.isfinite(mono).all(axis=1)
            hits = hits[finite]
            end = row + hits.size
            mono_rows[row:end] = mono[finite]
            row = end
        # the run of rejections now ends the block: the attempts after its
        # last accepted row, or the whole block added to the run before it
        failures = k - 1 - int(hits[-1]) if hits.size else failures + k
        if failures >= _MAX_RETRIES_PER_ROW:
            raise SamplingExhausted(
                f"{failures} consecutive rejected draws for {oracle.name}"
            )

    return SampleTable(monomial_values=mono_rows)


# --------------------------------------------------------------------------
# Truncated-series reference programs
# --------------------------------------------------------------------------


def _taylor_sigmoid(terms: int):
    def program(x: float) -> float:
        # mirrors the reference C loop: sum accumulates the series of
        # exp(-x) truncated to `terms` terms, then 1/(1+sum)
        total = 1.0
        trm = 1.0
        neg_x = -x
        for n in range(1, terms):
            trm *= neg_x / n
            total += trm
        denom = 1.0 + total
        if denom == 0.0 or not math.isfinite(denom):
            raise DomainError("truncated sigmoid series denominator vanished")
        return 1.0 / denom

    return program


def _taylor_exp(terms: int):
    def program(x: float) -> float:
        total = 1.0
        trm = 1.0
        for n in range(1, terms):
            trm *= x / n
            total += trm
        if not math.isfinite(total):
            raise DomainError("truncated exp series overflowed")
        return total

    return program


def _taylor_sin(terms: int):
    def program(x: float) -> float:
        total = 0.0
        trm = x
        for k in range(terms):
            total += trm
            trm *= -x * x / ((2 * k + 2) * (2 * k + 3))
        if not math.isfinite(total):
            raise DomainError("truncated sin series overflowed")
        return total

    return program


def _taylor_cos(terms: int):
    def program(x: float) -> float:
        total = 0.0
        trm = 1.0
        for k in range(terms):
            total += trm
            trm *= -x * x / ((2 * k + 1) * (2 * k + 2))
        if not math.isfinite(total):
            raise DomainError("truncated cos series overflowed")
        return total

    return program


_SERIES = {
    "sigmoid": _taylor_sigmoid,
    "exp": _taylor_exp,
    "sin": _taylor_sin,
    "cos": _taylor_cos,
}


def taylor_program(builtin_name: str, terms: int, box=DEFAULT_BOX) -> Oracle:
    """Oracle computing the truncated Taylor series of a registered function."""
    maker = _SERIES.get(builtin_name)
    if maker is None:
        raise UnknownSeries(
            f"no truncated series registered for {builtin_name!r}; "
            f"known: {sorted(_SERIES)}"
        )
    if terms < 1:
        raise ValueError("terms must be at least 1")
    return Oracle(
        arity=1,
        evaluator=maker(terms),
        name=f"taylor:{builtin_name}:{terms}",
        box=box,
    )
