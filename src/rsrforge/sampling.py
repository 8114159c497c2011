"""Black-box oracles and correlated sample generation.

Draws come from a seeded PCG64 stream (the documented, cross-platform
generator numpy guarantees stable streams for) inside the oracle's box,
so the oracle, basis, monomials, row count and seed reproduce a
SampleTable bit for bit.  A draw is rejected and redrawn whenever any
basis atom or monomial value raises a domain error or comes out
non-finite; this keeps accepted rows i.i.d. on the feasible region.

``draw_samples`` works on blocks of attempts: one ``rng.random`` call
draws a block's (x, r) points, the compiled basis atoms (and through them
the oracle) run as scalar ``math`` programs attempt by attempt, in draw
order, and one column-by-column numpy fold raises the block's atom rows
to the monomial exponents.  Each step performs the same floating-point
operations the row-at-a-time loop did, so tables, exceptions and oracle
calls are unchanged.  A block holds at most as many attempts as the rows
still missing and as the rejections still allowed, so it never makes an
attempt that a row-at-a-time sampler would not, and its temporaries stay
below _MAX_RETRIES_PER_ROW rows of monomial values.

Each ``draw_samples`` call compiles every basis atom once
(``expr.compile_double``), with f bound to the oracle's evaluator as it
stands at the call; an oracle built from a closed form compiles it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, RSRError, SamplingExhausted, TooFewRows, UnknownSeries
from .expr import Expr, Var, compile_double
from .queries import TermBasis, input_vars, randomness_vars

DEFAULT_BOX = (-10.0, 10.0)
_MAX_RETRIES_PER_ROW = 100  # consecutive rejected draws before SamplingExhausted


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

    def __call__(self, *args):
        return self.evaluator(*args)


def oracle_from_expr(name: str, expr: Expr, arity: int, box=DEFAULT_BOX) -> Oracle:
    """Oracle evaluating a closed form over x (x, y, or x1..xn) in doubles."""
    slots = {Var(v): i for i, v in enumerate(input_vars(arity))}
    program = compile_double(expr, slots, {})

    def evaluator(*args):
        return program([float(a) for a in args])

    return Oracle(arity=arity, evaluator=evaluator, name=name, box=box)


@dataclass
class SampleTable:
    """Evaluated monomials plus the draws behind them, one row per (x, r)."""

    monomial_values: np.ndarray  # m x |MON|
    xs: np.ndarray  # m x arity
    rs: np.ndarray  # m x arity

    @property
    def m(self) -> int:
        return self.monomial_values.shape[0]

    def _take(self, rows: slice) -> "SampleTable":
        return SampleTable(self.monomial_values[rows], self.xs[rows], self.rs[rows])


def split(table: SampleTable, train_fraction: float) -> tuple:
    """Prefix/suffix row partition: floor(train_fraction * m) rows train."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie strictly in (0, 1)")
    if table.m < 5:
        raise TooFewRows(f"need at least 5 rows to split, have {table.m}")
    k = int(math.floor(train_fraction * table.m))
    k = max(1, min(table.m - 1, k))
    return table._take(slice(0, k)), table._take(slice(k, table.m))


def evaluate_atom_row(programs: list, x: list, r: list) -> list:
    """Every compiled basis atom at one (x, r) draw; DomainError on trouble.

    ``draw_samples`` calls this once per attempted draw, rejected draws
    included, in draw order, so a wrapper patched onto the module sees
    every row the sampler tries.
    """
    values = x + r
    return [program(values) for program in programs]


def draw_samples(
    oracle: Oracle, basis: TermBasis, monomials: list, m: int, seed: int
) -> SampleTable:
    """Draw m accepted rows of correlated samples from the oracle's box.

    Attempts run in blocks of k = min(m - row, _MAX_RETRIES_PER_ROW -
    failures).  A block draws its k x 2·arity uniforms in one call (x
    coordinates, then r coordinates), evaluates the atoms one attempt at
    a time, then folds the successful atom rows into monomial values one
    atom column at a time and keeps the rows that are finite throughout.

    Raises ValueError for m < 1 or an empty monomial list, and
    SamplingExhausted after _MAX_RETRIES_PER_ROW consecutive rejections,
    which signals that the box is not usefully contained in the oracle's
    domain.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not monomials:
        raise ValueError("monomials must not be empty")
    boxes = oracle.coordinate_boxes()
    rng = np.random.Generator(np.random.PCG64(seed))

    arity = oracle.arity
    names = input_vars(arity) + randomness_vars(arity)
    slots = {Var(name): i for i, name in enumerate(names)}
    funcs = {"f": oracle.evaluator}
    programs = [compile_double(term, slots, funcs) for term in basis.terms]
    expmat = np.array([mono.exponents for mono in monomials], dtype=np.int64)
    # columns are the x coordinates, then the r coordinates, each in its box
    low = np.array([lo for lo, _ in boxes] * 2)
    width = np.array([hi - lo for lo, hi in boxes] * 2)

    mono_rows = np.empty((m, len(monomials)))
    xs = np.empty((m, arity))
    rs = np.empty((m, arity))

    row = 0
    failures = 0
    while row < m:
        k = min(m - row, _MAX_RETRIES_PER_ROW - failures)
        # lo + width * u is rng.uniform(lo, hi) bit for bit, in stream order
        draws = low + width * rng.random((k, 2 * arity))
        evaluated = []
        atom_rows = []
        for i, point in enumerate(draws.tolist()):
            try:
                atoms = evaluate_atom_row(programs, point[:arity], point[arity:])
            except DomainError:
                continue
            evaluated.append(i)
            atom_rows.append(atoms)
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
            xs[row:end] = draws[hits, :arity]
            rs[row:end] = draws[hits, arity:]
            row = end
        # the run of rejections now ends the block: the attempts after its
        # last accepted row, or the whole block added to the run before it
        failures = k - 1 - int(hits[-1]) if hits.size else failures + k
        if failures >= _MAX_RETRIES_PER_ROW:
            raise SamplingExhausted(
                f"{failures} consecutive rejected draws for {oracle.name}"
            )

    return SampleTable(monomial_values=mono_rows, xs=xs, rs=rs)


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
