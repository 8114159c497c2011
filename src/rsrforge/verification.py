"""Validation of candidate identities.

Two independent channels:

  * property_test draws fresh correlated samples from the black-box
    oracle and checks the identity's scale-normalized residuals against
    the statistical error bound.  The residuals are never negative, so
    the rows drawn so far bound the 1000-row mean and max from below;
    the test stops drawing, and fails, as soon as a bound is certain to
    be broken.  Such a fail reports those lower bounds.  A pass still
    draws, and reports the mean and max of, all 1000 rows;
  * symbolic_verify substitutes a closed form for the function symbol
    and first attempts exact rational simplification (sound), falling
    back to randomized identity testing at high precision
    (probabilistically sound; a false polynomial identity of modest
    degree passing 64 random points below 2^-100 has negligible
    probability).  The exact channel is one call,
    polyratio.rational_residual_zero(e, closed_form, params), which
    combines the closed form's cached monomial expansions, so the
    identities of one closed form share each substitution, and keeps
    each identity's verdict.  Its verdict is True (symbolic_exact pass),
    False or None:
      - True means zero on every open cell.  Without an application in
        the substitution there is one cell, the whole space.  The
        piecewise builtins sign and abs (hence relu and leaky_relu) of
        a constant times a product of powers of x, r and x +- r, and
        floor and ceil (hence frac) of +-x, +-r and +-x +- r, are
        decided on the open cones or unit-square cells of polyratio, at
        arity 1.  The measure-zero cell walls are left out: there
        sign(0) = 0 breaks f(x)^2 - 1, and the 256-bit channel never
        samples them either.
      - False after a cell rewrite fails on symbolic_exact at once: the
        identity is wrong on an open cell.  False with no application
        is a rational function of the variables: the 256-bit test runs
        for a witness, and if it passes the identity still fails on
        symbolic_exact, since that test's 2^-100 bound is absolute.
      - None means an application the cells do not decide is left
        (exp, mod, floor(x*r), sign(x^2 + 1), arity 2, ...): nothing was
        expanded, and the 256-bit test decides.
    An expansion past polyratio's term budget fails on symbolic_exact
    with that reason; it never becomes a 256-bit pass.  The 256-bit test
    builds the substituted expression and compiles its pole-guard atoms
    and its residual (expr.compile_hp) once per process for each
    (identity, closed form, arity, precision), in a bounded LRU; the
    residual reads the atoms' values from slots, and a call pays only
    for its points.  Each program carries its own precision and reads
    no global mpmath setting.

classify() stamps the property status.  With a closed form, the
symbolic outcome is final: verified_symbolic when it passes, unverified
with its witness or exact-channel reason when it fails.  The closed form
is f, so an identity it refutes is not an identity of f, whatever a
fresh sample of the oracle says.  property_test decides (verified_numeric
or unverified) only when no closed form is given, or when
symbolic_verify finds no in-domain test point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from mpmath import libmp

from .discovery import (
    Property,
    STATUS_UNVERIFIED,
    STATUS_VERIFIED_NUMERIC,
    STATUS_VERIFIED_SYMBOLIC,
    _row_scales,
)
from .errors import DomainError, ExpansionTooLarge, SamplingExhausted
from .expr import (
    HP_MAX_BITS,
    HP_MIN_BITS,
    Builtin,
    Expr,
    FuncApp,
    Var,
    children,
    compile_hp,
    free_vars,
    subst_func,
)
from .parser import parse
from .polyratio import rational_residual_zero
from .queries import input_vars, randomness_vars
from .sampling import DEFAULT_BOX, Oracle, draw_blocks, expand_box

CHANNEL_PROPERTY_TEST = "property_test"
CHANNEL_SYMBOLIC_EXACT = "symbolic_exact"
CHANNEL_SYMBOLIC_NUMERIC = "symbolic_numeric"

_HP_TOLERANCE_EXPONENT = 100  # symbolic_numeric residuals must stay below 2^-100
_GUARD_MAGNITUDE = 1e6  # atoms above this sit inside a pole's guard band
_MAX_POINT_RETRIES = 500  # rejected points before symbolic_verify gives up
_PROPERTY_TEST_ROWS = 1000  # fresh rows each property_test draws
# property_test stops once a lower bound on the full table's mean or max
# breaks its bound.  BLAS may round a row's dot product differently in a
# block than in the full table (about 1 % of rows of random 1000-row
# tables differ), but each is within n u sum|a c| of the exact value, with
# unit roundoff u over n coefficients, and the row's norm is at least its
# largest |a|: the two scaled residuals differ by less than 2^-50 of one
# plus (n + 1) 2^-50 sum|c|.  The block sums, their running total and
# np.mean's pairwise sum each lose far less than 2^-40 of 1000
# non-negative terms, so shrinking the sums and the max by 2^-37 keeps
# every bound below the value the full table would give.
_STOP_SHRINK = 1.0 - 2.0**-37
_STOP_ROW_SLACK = 2.0**-50
# compiled 256-bit programs kept, about 7 kB each, one entry per
# (identity, closed form, arity, precision): verify-known's 98 identities
# fill 76, the others being decided by the exact channel
_IDENTITY_PROGRAMS = 1024


@dataclass
class VerifyConfig:
    epsilon: float = 1e-3
    hp_points: int = 64
    hp_precision_bits: int = 256

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and positive")
        if self.hp_points <= 0:
            raise ValueError("hp_points must be positive")
        if not HP_MIN_BITS <= self.hp_precision_bits <= HP_MAX_BITS:
            raise ValueError(
                f"hp_precision_bits must lie in [{HP_MIN_BITS}, {HP_MAX_BITS}]"
            )


@dataclass
class VerifyOutcome:
    status: str  # "pass" | "fail"
    channel: str
    mean_abs_residual: float
    max_abs_residual: float
    reason: str = ""

    def __post_init__(self):
        if self.status == "fail" and not self.reason:
            raise ValueError("failing outcomes must carry a reason")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "channel": self.channel,
            "mean_abs_residual": self.mean_abs_residual,
            "max_abs_residual": self.max_abs_residual,
            "reason": self.reason,
        }


def property_test(
    p: Property, oracle: Oracle, cfg: VerifyConfig, seed: int = 0
) -> VerifyOutcome:
    """Statistical test on fresh draws.

    Residuals are normalized per row by max(1, largest |monomial value|)
    so the bound is meaningful across functions of any scale.  Passes
    when the mean normalized residual over 1000 fresh rows is at most
    epsilon and the maximum at most 10 * epsilon.

    Normalized residuals are never negative, so the rows drawn so far
    bound the full table's from below: their sum over 1000 bounds its
    mean, and their max its max.  The test reads the rows block by block
    (``sampling.draw_blocks``) and fails as soon as either lower bound
    exceeds its bound, with room for rounding, so it stops drawing only
    when the full table would fail as well.  Such an early fail reports
    the sum so far over 1000 as its mean and the max so far as its max,
    and its reason gives the number of rows that decided it.  A table
    with a non-finite residual is judged on all 1000 rows.  Otherwise
    the test draws all 1000 rows and computes mean and max over them, so
    every pass, and every fail decided only at the end, reports those
    exact figures.  An oracle that would exhaust its domain only after
    the rejection is certain is never asked: the test fails rather than
    raising SamplingExhausted.
    """
    monomials = [mono for mono, _coef in p.pairs]
    coeffs = np.array([float(coef) for _mono, coef in p.pairs])
    blocks = draw_blocks(oracle, p.basis, monomials, _PROPERTY_TEST_ROWS, seed)
    slack = _STOP_ROW_SLACK * (len(coeffs) + 1) * float(np.sum(np.abs(coeffs)))
    mean_bound = _PROPERTY_TEST_ROWS * cfg.epsilon
    max_bound = 10 * cfg.epsilon
    values = np.empty((_PROPERTY_TEST_ROWS, len(monomials)))
    row = 0
    total = peak = 0.0
    for block in blocks:
        values[row : row + len(block)] = block
        row += len(block)
        scaled = _scaled_residuals(block, coeffs)
        total += float(np.sum(scaled))
        peak = max(peak, float(np.max(scaled)))
        if math.isfinite(total) and (
            total * _STOP_SHRINK - row * slack > mean_bound
            or peak * _STOP_SHRINK - slack > max_bound
        ):
            blocks.close()
            mean_res = total / _PROPERTY_TEST_ROWS
            return VerifyOutcome(
                "fail",
                CHANNEL_PROPERTY_TEST,
                mean_res,
                peak,
                reason=(
                    f"the first {row} rows put the mean residual at {mean_res:.3g} "
                    f"or more (bound {cfg.epsilon:.3g}) and the max at {peak:.3g} "
                    f"or more (bound {max_bound:.3g}): out of bounds over "
                    f"{_PROPERTY_TEST_ROWS} fresh samples"
                ),
            )
    scaled = _scaled_residuals(values, coeffs)
    mean_res = float(np.mean(scaled))
    max_res = float(np.max(scaled))
    if mean_res <= cfg.epsilon and max_res <= max_bound:
        return VerifyOutcome("pass", CHANNEL_PROPERTY_TEST, mean_res, max_res)
    return VerifyOutcome(
        "fail",
        CHANNEL_PROPERTY_TEST,
        mean_res,
        max_res,
        reason=(
            f"mean residual {mean_res:.3g} (bound {cfg.epsilon:.3g}) or max "
            f"{max_res:.3g} (bound {max_bound:.3g}) out of bounds over "
            f"{_PROPERTY_TEST_ROWS} fresh samples"
        ),
    )


def _scaled_residuals(values: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """|values @ coeffs| per row over max(1, the row's largest |value|)."""
    return np.abs(values @ coeffs) / _row_scales(values)


def _collect_atoms(e: Expr) -> list:
    """Maximal function-application subterms (opaque atoms for the guard)."""
    out = {}

    def walk(n: Expr):
        if isinstance(n, (Builtin, FuncApp)):
            out[n] = None
            return
        for c in children(n):
            walk(c)

    walk(e)
    return list(out)


def symbolic_verify(
    expr_or_text,
    closed_form: Expr,
    cfg: VerifyConfig = None,
    box=DEFAULT_BOX,
    seed: int = 0,
    arity: int = 1,
) -> VerifyOutcome:
    """Verify that an identity holds after closed-form substitution.

    Accepts an expression, or text in the module grammar (an Eq(lhs, rhs)
    wrapper is read as lhs - rhs).  Exact rational simplification to zero
    on every open cell passes on the symbolic_exact channel, and a
    nonzero cell of a piecewise rewrite fails there; otherwise the
    residual is evaluated at random in-domain points with
    hp_precision_bits of precision and must stay below 2^-100 everywhere
    (symbolic_numeric channel).  A residual free of builtin and function
    atoms that passes there still fails, on symbolic_exact, since its
    exact expansion is nonzero; a failing point keeps its
    symbolic_numeric witness.  An expansion past the term budget fails
    on symbolic_exact.  The
    input and randomness variables of coordinate j draw from the box's
    range j; any other variable draws from the first range.  Points
    where any atom exceeds the guard magnitude are redrawn; they sit
    inside a pole's guard band, where cancellation noise would swamp the
    threshold.  A negative seed raises ValueError before any work.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if cfg is None:
        cfg = VerifyConfig()
    e = parse(expr_or_text) if isinstance(expr_or_text, str) else expr_or_text
    params = input_vars(arity)
    try:
        verdict = rational_residual_zero(e, closed_form, params)
    except ExpansionTooLarge as exc:
        return VerifyOutcome("fail", CHANNEL_SYMBOLIC_EXACT, 0.0, 0.0, reason=str(exc))
    if verdict:
        return VerifyOutcome("pass", CHANNEL_SYMBOLIC_EXACT, 0.0, 0.0)
    programs = _identity_programs(e, closed_form, arity, cfg.hp_precision_bits)
    if verdict is False and programs.atoms:
        # every atom is piecewise and was rewritten away on each open cell
        return VerifyOutcome(
            "fail",
            CHANNEL_SYMBOLIC_EXACT,
            0.0,
            0.0,
            reason="exact simplification leaves a nonzero numerator on an open "
            "cell of the piecewise builtins' arguments",
        )

    outcome = _test_points(programs, cfg, box, seed, arity)
    if outcome.passed and verdict is False:
        # a rational function of the variables alone: the exact channel's
        # nonzero numerator is a proof, whatever the 256-bit values say
        return VerifyOutcome(
            "fail",
            CHANNEL_SYMBOLIC_EXACT,
            outcome.mean_abs_residual,
            outcome.max_abs_residual,
            reason=(
                "exact rational simplification leaves a nonzero numerator and "
                "the substituted identity has no builtin or function atom"
            ),
        )
    return outcome


@dataclass(frozen=True)
class _Programs:
    """A substituted identity's 256-bit programs: one pole guard per atom
    over the point's coordinates (the sorted free variables), and the
    residual, which reads the atoms' values from the slots after them."""

    atoms: tuple
    names: tuple
    guards: tuple
    residual: Callable


def _compile_programs(substituted: Expr, precision_bits: int) -> _Programs:
    atoms = tuple(_collect_atoms(substituted))
    names = tuple(sorted(free_vars(substituted)))
    slots = {Var(name): i for i, name in enumerate(names)}
    guards = tuple(compile_hp(atom, slots, precision_bits) for atom in atoms)
    slots.update((atom, len(names) + j) for j, atom in enumerate(atoms))
    residual = compile_hp(substituted, slots, precision_bits)
    return _Programs(atoms, names, guards, residual)


@functools.lru_cache(maxsize=_IDENTITY_PROGRAMS)
def _identity_programs(
    e: Expr, closed_form: Expr, arity: int, precision_bits: int
) -> _Programs:
    """The programs of e with f replaced by closed_form, built once per
    process for each key; the seed and box only pick the points."""
    substituted = subst_func(e, "f", input_vars(arity), closed_form)
    return _compile_programs(substituted, precision_bits)


def _high_precision_test(
    substituted: Expr, cfg: VerifyConfig, box, seed: int, arity: int
) -> VerifyOutcome:
    """The 256-bit channel on a substituted identity, compiled afresh: a
    pass, or a fail at its witness point."""
    programs = _compile_programs(substituted, cfg.hp_precision_bits)
    return _test_points(programs, cfg, box, seed, arity)


def _test_points(
    programs: _Programs, cfg: VerifyConfig, box, seed: int, arity: int
) -> VerifyOutcome:
    """Run an identity's programs at hp_points random in-domain points."""
    names = programs.names
    boxes = expand_box(box, arity)
    coordinate = {v: j for j, v in enumerate(input_vars(arity))}
    coordinate.update((v, j) for j, v in enumerate(randomness_vars(arity)))
    ranges = [boxes[coordinate.get(name, 0)] for name in names]
    threshold = 2.0 ** (-_HP_TOLERANCE_EXPONENT)
    rng = np.random.Generator(np.random.PCG64(seed))
    prec = cfg.hp_precision_bits
    guard = libmp.from_float(_GUARD_MAGNITUDE)
    rnd = libmp.round_nearest  # the rounding of mpf's abs and float

    residuals = []
    retries = 0
    while len(residuals) < cfg.hp_points:
        point = {
            name: float(rng.uniform(lo, hi))
            for name, (lo, hi) in zip(names, ranges)
        }
        coords = [libmp.from_float(v) for v in point.values()]
        values = list(coords)
        try:
            for program in programs.guards:
                a = program(*coords)
                if libmp.mpf_gt(libmp.mpf_abs(a, prec, rnd), guard):
                    raise DomainError("atom magnitude inside pole guard band")
                values.append(a)
            value = programs.residual(*values)
        except DomainError:
            retries += 1
            if retries >= _MAX_POINT_RETRIES:
                raise DomainError(
                    f"could not find {cfg.hp_points} in-domain test points "
                    f"after {retries} retries"
                ) from None
            continue
        mag = abs(libmp.to_float(value, rnd=rnd))
        if mag >= threshold:
            mean_res = float(np.mean(residuals + [mag])) if residuals else mag
            return VerifyOutcome(
                "fail",
                CHANNEL_SYMBOLIC_NUMERIC,
                mean_res,
                mag,
                reason=(
                    f"residual {mag:.3e} at witness point "
                    f"{ {k: round(v, 6) for k, v in point.items()} } exceeds "
                    f"2^-{_HP_TOLERANCE_EXPONENT}"
                ),
            )
        residuals.append(mag)

    mean_res = float(np.mean(residuals)) if residuals else 0.0
    max_res = float(np.max(residuals)) if residuals else 0.0
    return VerifyOutcome("pass", CHANNEL_SYMBOLIC_NUMERIC, mean_res, max_res)


def classify(
    p: Property,
    oracle: Oracle,
    closed_form: Expr = None,
    cfg: VerifyConfig = None,
    seed: int = 0,
) -> Property:
    """Stamp a candidate's verification status.

    With a closed form, symbolic_verify decides: a pass is
    verified_symbolic, a fail is unverified with the symbolic reason.
    Property testing against the oracle runs only without a closed form,
    or when symbolic_verify finds no in-domain test point; its pass is
    verified_numeric.
    """
    if cfg is None:
        cfg = VerifyConfig()
    reason = ""
    if closed_form is not None:
        try:
            outcome = symbolic_verify(
                p.identity,
                closed_form,
                cfg,
                box=oracle.box,
                seed=seed,
                arity=oracle.arity,
            )
        except DomainError as exc:
            reason = str(exc)
        else:
            if outcome.passed:
                return replace(
                    p, status=STATUS_VERIFIED_SYMBOLIC, channel=outcome.channel
                )
            return replace(
                p, status=STATUS_UNVERIFIED, channel="", reason=outcome.reason
            )

    try:
        pt = property_test(p, oracle, cfg, seed=seed)
    except SamplingExhausted as exc:
        return replace(
            p, status=STATUS_UNVERIFIED, channel="", reason=f"{reason}; {exc}".strip("; ")
        )
    if pt.passed:
        return replace(p, status=STATUS_VERIFIED_NUMERIC, channel=pt.channel)
    combined = "; ".join(s for s in (reason, pt.reason) if s)
    return replace(p, status=STATUS_UNVERIFIED, channel="", reason=combined)
