"""Black-box oracles and correlated sample generation.

Draws come from a seeded PCG64 stream (the documented, cross-platform
generator numpy guarantees stable streams for) inside the oracle's box,
so the oracle, basis, monomials, row count and seed reproduce a
SampleTable bit for bit.  A draw is rejected and redrawn whenever any
basis atom or monomial value raises a domain error or comes out
non-finite; this keeps accepted rows i.i.d. on the feasible region.
The table holds monomial values only; a basis built with raw variables
makes x and r monomials of their own.

``draw_blocks`` works on blocks of attempts: one ``rng.random`` call
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
``draw_blocks`` yields each block's accepted rows as it draws them, so a
caller such as ``verification.property_test`` can stop once the rows so
far decide its question; ``draw_samples`` is the concatenation of those
blocks into one SampleTable, with no second code path.

The basis is compiled into that block function
(``expr.compile_double_block``) once per (basis terms, arity, evaluator
object), with f bound to that evaluator, and kept in a bounded LRU.  An
evaluator rebound on the oracle is a new key, so it sees every call the
draws make.  An oracle built from a closed form compiles it once, and
its evaluator is that compiled program.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, RSRError, SamplingExhausted, TooFewRows, UnknownSeries
from .expr import Expr, Var, compile_double, compile_double_block
from .queries import TermBasis, input_vars, randomness_vars

DEFAULT_BOX = (-10.0, 10.0)
_MAX_RETRIES_PER_ROW = 100  # consecutive rejected draws before SamplingExhausted
_TRAIN_FRACTION = 0.8  # share of a table's rows that split gives to training
MIN_SPLIT_ROWS = 5  # fewest rows split accepts
# compiled block functions kept, about 1-3 kB each, one per (basis terms,
# arity, evaluator object): a verify-known run draws from 49 of them, and
# run_bench builds a fresh oracle per entry and repetition, so its keys
# never recur
_BLOCK_PROGRAMS = 64


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
    """Deterministic black-box program allegedly computing some f.

    The evaluator must be hashable: draws keep the basis compiled per
    evaluator object.
    """

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


def draw_blocks(
    oracle: Oracle, basis: TermBasis, monomials: list, m: int, seed: int
) -> Iterator[np.ndarray]:
    """The accepted rows of m correlated samples, one array per block.

    Attempts run in blocks of k = min(m - row, _MAX_RETRIES_PER_ROW -
    failures).  A block draws its k x 2·arity uniforms in one call (x
    coordinates, then r coordinates), runs the compiled basis over its
    points, then folds the successful atom rows into monomial values one
    atom column at a time and keeps the rows that are finite throughout.
    Each block with an accepted row yields those rows (a fresh
    rows x |MON| array); the blocks of one call hold m rows in all.

    The argument checks run at the call, before any draw: ValueError for
    m < 1, a negative seed or an empty monomial list.  The iterator
    raises SamplingExhausted after _MAX_RETRIES_PER_ROW consecutive
    rejections, which signals that the box is not usefully contained in
    the oracle's domain.  A block that accepts a row ends a run shorter
    than that, so the raise comes from a block that yields nothing.  A
    caller that stops early makes no further draw or oracle call.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not monomials:
        raise ValueError("monomials must not be empty")
    evaluate_block = _block_program(tuple(basis.terms), oracle.arity, oracle.evaluator)
    return _blocks(oracle, evaluate_block, monomials, m, seed)


@functools.lru_cache(maxsize=_BLOCK_PROGRAMS)
def _block_program(terms: tuple, arity: int, evaluator: Callable) -> Callable:
    """The basis atoms compiled into one block function over (x, r) points,
    with f bound to this evaluator object."""
    names = input_vars(arity) + randomness_vars(arity)
    slots = {Var(name): i for i, name in enumerate(names)}
    return compile_double_block(terms, slots, {"f": evaluator})


def _blocks(oracle: Oracle, evaluate_block: Callable, monomials, m: int, seed: int):
    boxes = oracle.coordinate_boxes()
    rng = np.random.Generator(np.random.PCG64(seed))
    arity = oracle.arity
    expmat = np.array([mono.exponents for mono in monomials], dtype=np.int64)
    # columns are the x coordinates, then the r coordinates, each in its box
    low = np.array([lo for lo, _ in boxes] * 2)
    width = np.array([hi - lo for lo, hi in boxes] * 2)

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
            if hits.size:
                row += hits.size
                yield mono[finite]
        # the run of rejections now ends the block: the attempts after its
        # last accepted row, or the whole block added to the run before it
        failures = k - 1 - int(hits[-1]) if hits.size else failures + k
        if failures >= _MAX_RETRIES_PER_ROW:
            raise SamplingExhausted(
                f"{failures} consecutive rejected draws for {oracle.name}"
            )


def draw_samples(
    oracle: Oracle, basis: TermBasis, monomials: list, m: int, seed: int
) -> SampleTable:
    """Draw m accepted rows of correlated samples from the oracle's box:
    the blocks of ``draw_blocks``, in order, as one table.

    Raises what ``draw_blocks`` raises: ValueError for m < 1, a negative
    seed or an empty monomial list, and SamplingExhausted after
    _MAX_RETRIES_PER_ROW consecutive rejections.
    """
    blocks = draw_blocks(oracle, basis, monomials, m, seed)
    mono_rows = np.empty((m, len(monomials)))
    row = 0
    for block in blocks:
        mono_rows[row : row + len(block)] = block
        row += len(block)
    return SampleTable(monomial_values=mono_rows)


# --------------------------------------------------------------------------
# Truncated-series reference programs
# --------------------------------------------------------------------------


def _exp_series(x: float, terms: int) -> float:
    """1 + x + x^2/2! + ... truncated to `terms` terms, summed as the
    reference C loop sums it."""
    total = 1.0
    trm = 1.0
    for n in range(1, terms):
        trm *= x / n
        total += trm
    return total


def _alternating_series(x: float, terms: int, odd: int) -> float:
    """x^odd/odd! - x^(odd+2)/(odd+2)! + ... truncated to `terms` terms:
    sin for odd = 1, cos for odd = 0."""
    total = 0.0
    trm = x if odd else 1.0
    for j in range(odd, odd + 2 * terms, 2):
        total += trm
        trm *= -x * x / ((j + 1) * (j + 2))
    return total


_ODD = {"sin": 1, "cos": 0}  # the first power of each alternating series
_SERIES = ("sigmoid", "exp", "sin", "cos")


def _series_program(name: str, terms: int) -> Callable:
    if name == "sigmoid":

        def program(x: float) -> float:
            denom = 1.0 + _exp_series(-x, terms)
            if denom == 0.0 or not math.isfinite(denom):
                raise DomainError("truncated sigmoid series denominator vanished")
            return 1.0 / denom

    elif name == "exp":

        def program(x: float) -> float:
            total = _exp_series(x, terms)
            if not math.isfinite(total):
                raise DomainError("truncated exp series overflowed")
            return total

    else:
        odd = _ODD[name]

        def program(x: float) -> float:
            total = _alternating_series(x, terms, odd)
            if not math.isfinite(total):
                raise DomainError(f"truncated {name} series overflowed")
            return total

    return program


def taylor_program(builtin_name: str, terms: int, box=DEFAULT_BOX) -> Oracle:
    """Oracle computing the truncated Taylor series of a registered function."""
    if builtin_name not in _SERIES:
        raise UnknownSeries(
            f"no truncated series registered for {builtin_name!r}; "
            f"known: {sorted(_SERIES)}"
        )
    if terms < 1:
        raise ValueError("terms must be at least 1")
    return Oracle(
        arity=1,
        evaluator=_series_program(builtin_name, terms),
        name=f"taylor:{builtin_name}:{terms}",
        box=box,
    )
