"""Validation of candidate identities.

Two independent channels:

  * property_test draws fresh correlated samples from the black-box
    oracle and checks the identity's scale-normalized residuals against
    the statistical error bound;
  * symbolic_verify substitutes a closed form for the function symbol
    and first attempts exact rational simplification (sound), falling
    back to randomized identity testing at high precision
    (probabilistically sound; a false polynomial identity of modest
    degree passing 64 random points below 2^-100 has negligible
    probability).  The exact channel is one call,
    polyratio.rational_residual_zero(e, closed_form, params), which
    combines the closed form's cached monomial expansions, so the
    identities of one closed form share each substitution.  Only when
    it leaves a nonzero residual is the substituted expression built and
    compiled, its pole-guard atoms and its residual once per call
    (expr.compile_hp); the residual reads the atoms' values from slots,
    and all points run inside one precision block.  A substituted
    identity with no builtin or function atom is a rational function of
    the variables, so a nonzero exact residual is final: it fails on
    symbolic_exact even where the 256-bit test, whose 2^-100 bound is
    absolute, would pass it.

classify() stamps the property status.  With a closed form, the
symbolic outcome is final: verified_symbolic when it passes, unverified
with its witness or exact-channel reason when it fails.  The closed form
is f, so an identity it refutes is not an identity of f, whatever a
fresh sample of the oracle says.  property_test decides (verified_numeric
or unverified) only when no closed form is given, or when
symbolic_verify finds no in-domain test point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from mpmath import libmp

from .discovery import (
    Property,
    STATUS_UNVERIFIED,
    STATUS_VERIFIED_NUMERIC,
    STATUS_VERIFIED_SYMBOLIC,
)
from .errors import DomainError, SamplingExhausted
from .expr import (
    HP_MAX_BITS,
    HP_MIN_BITS,
    Builtin,
    Expr,
    FuncApp,
    Var,
    children,
    compile_hp,
    evaluate_hp,  # noqa: F401  perfbench/layers.py wraps this attribute
    free_vars,
    hp_precision,
    subst_func,
)
from .parser import parse
from .polyratio import rational_residual_zero
from .queries import input_vars, randomness_vars
from .sampling import DEFAULT_BOX, Oracle, draw_samples, expand_box

CHANNEL_PROPERTY_TEST = "property_test"
CHANNEL_SYMBOLIC_EXACT = "symbolic_exact"
CHANNEL_SYMBOLIC_NUMERIC = "symbolic_numeric"

_HP_TOLERANCE_EXPONENT = 100  # symbolic_numeric residuals must stay below 2^-100
_GUARD_MAGNITUDE = 1e6  # atoms above this sit inside a pole's guard band
_MAX_POINT_RETRIES = 500  # rejected points before symbolic_verify gives up


@dataclass
class VerifyConfig:
    n_test: int = 1000
    epsilon: float = 1e-3
    hp_points: int = 64
    hp_precision_bits: int = 256

    def __post_init__(self):
        for name in ("n_test", "epsilon", "hp_points"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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
    when the mean normalized residual is at most epsilon and the maximum
    at most 10 * epsilon.
    """
    monomials = [mono for mono, _coef in p.pairs]
    coeffs = np.array([float(coef) for _mono, coef in p.pairs])
    table = draw_samples(oracle, p.basis, monomials, cfg.n_test, seed)
    values = table.monomial_values
    residual = np.abs(values @ coeffs)
    norms = np.maximum(1.0, np.max(np.abs(values), axis=1))
    scaled = residual / norms
    mean_res = float(np.mean(scaled))
    max_res = float(np.max(scaled))
    if mean_res <= cfg.epsilon and max_res <= 10 * cfg.epsilon:
        return VerifyOutcome("pass", CHANNEL_PROPERTY_TEST, mean_res, max_res)
    return VerifyOutcome(
        "fail",
        CHANNEL_PROPERTY_TEST,
        mean_res,
        max_res,
        reason=(
            f"mean residual {mean_res:.3g} (bound {cfg.epsilon:.3g}) or max "
            f"{max_res:.3g} (bound {10 * cfg.epsilon:.3g}) out of bounds over "
            f"{cfg.n_test} fresh samples"
        ),
    )


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
    passes on the symbolic_exact channel; otherwise the residual is
    evaluated at random in-domain points with hp_precision_bits of
    precision and must stay below 2^-100 everywhere (symbolic_numeric
    channel).  A residual free of builtin and function atoms that passes
    there still fails, on symbolic_exact, since its exact expansion is
    nonzero; a failing point keeps its symbolic_numeric witness.  The
    input and randomness variables of coordinate j draw from the box's
    range j; any other variable draws from the first range.  Points where any atom exceeds the guard magnitude are
    redrawn; they sit inside a pole's guard band, where cancellation
    noise would swamp the threshold.
    """
    if cfg is None:
        cfg = VerifyConfig()
    e = parse(expr_or_text) if isinstance(expr_or_text, str) else expr_or_text
    params = input_vars(arity)
    if rational_residual_zero(e, closed_form, params):
        return VerifyOutcome("pass", CHANNEL_SYMBOLIC_EXACT, 0.0, 0.0)
    substituted = subst_func(e, "f", params, closed_form)

    boxes = expand_box(box, arity)
    coordinate = {v: j for j, v in enumerate(params)}
    coordinate.update((v, j) for j, v in enumerate(randomness_vars(arity)))
    names = sorted(free_vars(substituted))
    ranges = [boxes[coordinate.get(name, 0)] for name in names]
    atoms = _collect_atoms(substituted)
    threshold = 2.0 ** (-_HP_TOLERANCE_EXPONENT)
    rng = np.random.Generator(np.random.PCG64(seed))

    # one program per pole-guard atom over the point's coordinates, and
    # one for the residual, which reads the atoms' values from slots
    prec = cfg.hp_precision_bits
    slots = {Var(name): i for i, name in enumerate(names)}
    guards = [compile_hp(atom, slots, {}, prec) for atom in atoms]
    slots.update((atom, len(names) + j) for j, atom in enumerate(atoms))
    residual_program = compile_hp(substituted, slots, {}, prec)
    guard = libmp.from_float(_GUARD_MAGNITUDE)
    rnd = libmp.round_nearest  # the rounding of mpf's abs and float

    residuals = []
    retries = 0
    with hp_precision(prec):
        while len(residuals) < cfg.hp_points:
            point = {
                name: float(rng.uniform(lo, hi))
                for name, (lo, hi) in zip(names, ranges)
            }
            coords = [libmp.from_float(v) for v in point.values()]
            values = list(coords)
            try:
                for program in guards:
                    a = program(coords)
                    if libmp.mpf_gt(libmp.mpf_abs(a, prec, rnd), guard):
                        raise DomainError("atom magnitude inside pole guard band")
                    values.append(a)
                value = residual_program(values)
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
    if not atoms:
        # a rational function of the variables alone: the exact channel's
        # nonzero numerator is a proof, whatever the 256-bit values say
        return VerifyOutcome(
            "fail",
            CHANNEL_SYMBOLIC_EXACT,
            mean_res,
            max_res,
            reason=(
                "exact rational simplification leaves a nonzero numerator and "
                "the substituted identity has no builtin or function atom"
            ),
        )
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
