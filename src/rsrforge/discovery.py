"""End-to-end inference of randomized self-reduction identities.

Every monomial of the basis (not only the degree-1 atoms) serves in turn
as the supervised variable, regressed on all remaining monomials.  Two
deterministic routes produce candidate identities per target:

  * route A fits on the full column set, each column scaled to unit
    root-mean-square;
  * route B, for degree-1 targets, scans atom subsets by increasing size
    and keeps the first subset whose restricted design fits the target
    exactly; this recovers minimal-query identities that the full design
    hides inside its null space.

Both routes fit by minimum-norm least squares followed by backward
elimination; there is no other fit path.

Candidates are snapped to bounded-denominator rationals and re-checked
on the train and held-out splits.  A survivor is normalized once, from
its coefficients, and classes form on arrival: the first candidate of a
normalized identity becomes its Property, and later ones only add their
ids to its ``duplicates``.  Residuals are scale-free throughout: each
row is divided by max(1, largest |monomial value| among the identity's
monomials).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import combinations

import numpy as np

from .errors import NoSparseModel, NotSolvable, RationalOverflow
from .expr import Const, Expr, FuncApp, Product, Quotient, Sum, Var, canonicalize
from .parser import format_expr
from .polyratio import (
    expand_to_polynomial,
    identity_normal_form,
    polynomial_normal_form,
)
from .queries import (
    Monomial,
    TermBasis,
    build_basis,
    default_query_class,
    gen_monomials,
    input_vars,
    monomial_to_expr,
)
from .rational import ONE, Rational
from .regression import (
    fit,
    mse,
    rationalize,
    sparsify,
    stability_sample_complexity,
)
from .sampling import Oracle, draw_samples, split

_SUBSET_EXACT_MSE = 1e-8
_DROP_THRESHOLD = 1e-3  # sparsify's relative coefficient cut
_TRAIN_FRACTION = 0.8
_SUBSET_SIZE_CAP = 6
_SUBSET_COUNT_CAP = 256

STATUS_CANDIDATE = "candidate"
STATUS_VERIFIED_NUMERIC = "verified_numeric"
STATUS_VERIFIED_SYMBOLIC = "verified_symbolic"
STATUS_UNVERIFIED = "unverified"


@dataclass
class InferConfig:
    queries: tuple = None  # None -> default class for the oracle's arity
    max_degree: int = 2
    m: int = 100
    epsilon: float = 1e-3
    max_denominator: int = 100
    seed: int = 0
    include_raw_vars: bool = False

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        for name in ("max_degree", "m", "max_denominator"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    def snapshot(self) -> dict:
        """Every field by name, with queries given by their names."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["queries"] = [q.name for q in self.queries] if self.queries else None
        return out


@dataclass(frozen=True)
class Property:
    """One discovered implicit identity, implicitly "= 0"."""

    id: str
    identity: Expr
    pairs: tuple  # ((Monomial, Rational), ...) normalized coefficients
    basis: TermBasis
    queries_used: tuple
    recovery: Expr = None
    side_condition: Expr = None
    train_mse: float = 0.0
    test_residual: float = 0.0
    status: str = STATUS_CANDIDATE
    sample_complexity: int = -1
    channel: str = ""
    reason: str = ""
    duplicates: tuple = ()

    def identity_string(self) -> str:
        return format_expr(self.identity) + " = 0"

    def coefficient_map(self) -> dict:
        """Monomial-expression string -> Rational, for assertions."""
        return {
            format_expr(monomial_to_expr(mono, self.basis)): coef
            for mono, coef in self.pairs
        }

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "identity": self.identity_string(),
            "recovery": None
            if self.recovery is None
            else format_expr(self.recovery),
            "side_condition": None
            if self.side_condition is None
            else format_expr(self.side_condition) + " != 0",
            "queries": [q.name for q in self.queries_used],
            "coefficients": [
                {
                    "monomial": format_expr(monomial_to_expr(mono, self.basis)),
                    "rational": str(coef),
                }
                for mono, coef in self.pairs
            ],
            "train_mse": self.train_mse,
            "test_residual": self.test_residual,
            "status": self.status,
            "channel": self.channel,
            "sample_complexity": self.sample_complexity,
            "duplicates": list(self.duplicates),
        }


def _row_scales(monomial_values: np.ndarray, cols=None) -> np.ndarray:
    sub = monomial_values if cols is None else monomial_values[:, cols]
    if sub.shape[1] == 0:
        return np.ones(sub.shape[0])
    return np.maximum(1.0, np.max(np.abs(sub), axis=1))


def normalize_identity(e: Expr) -> Expr:
    """Canonical representative of the identity's dedupe class."""
    expr, _scale = identity_normal_form(e)
    return expr


def _monomial_mentions_f(mono: Monomial, basis: TermBasis) -> bool:
    return any(
        k > 0 and isinstance(term, FuncApp)
        for term, k in zip(basis.terms, mono.exponents)
    )


def _bare_f_index(basis: TermBasis):
    """Basis index of the bare atom f(x) (f(x1, .., xn) for arity n), or None."""
    arity = max(
        (len(t.args) for t in basis.terms if isinstance(t, FuncApp)), default=1
    )
    bare = canonicalize(FuncApp("f", tuple(Var(v) for v in input_vars(arity))))
    return basis.terms.index(bare) if bare in basis.terms else None


def _sparse_fit(X: np.ndarray, y: np.ndarray, gate: float, eps: float):
    """Least squares, rejected when its MSE exceeds gate, then backward
    elimination within eps: (local support, coefficients) or None."""
    coef0 = fit(X, y)
    full_mse = mse(X, y, coef0)
    if full_mse > gate:
        return None
    try:
        fr = sparsify(X, y, coef0, _DROP_THRESHOLD, eps)
    except NoSparseModel:
        return None
    sup = list(fr.surviving)
    return sup, fr.coefficients[sup]


class _Run:
    """Shared state for one infer() invocation."""

    def __init__(self, oracle: Oracle, cfg: InferConfig):
        self.cfg = cfg
        queries = (
            tuple(cfg.queries) if cfg.queries else tuple(default_query_class(oracle.arity))
        )
        self.basis = build_basis("f", queries, oracle.arity, cfg.include_raw_vars)
        self.monomials = gen_monomials(self.basis, cfg.max_degree)

        table = draw_samples(oracle, self.basis, self.monomials, cfg.m, cfg.seed)
        self.train, self.test = split(table, _TRAIN_FRACTION)
        self.M_train = self.train.monomial_values
        self.M_test = self.test.monomial_values
        self.all_scale = _row_scales(self.M_train)

        # column index of every monomial supported inside an atom subset
        self.support_sets = [
            frozenset(i for i, k in enumerate(m.exponents) if k > 0)
            for m in self.monomials
        ]
        # normalized identity -> (its first Property, ids of later arrivals)
        self.classes: dict = {}

    def finish(self, tcol: int, support, raw, pid: str) -> bool:
        """Rationalize, re-check and normalize one candidate; package it
        unless its identity class already has a Property.  Returns
        whether the candidate survived the checks."""
        cfg = self.cfg
        monomials, basis = self.monomials, self.basis
        M_train, M_test = self.M_train, self.M_test

        rats = [rationalize(c, cfg.max_denominator) for c in raw]
        keep = [j for j, r in enumerate(rats) if not r.is_zero]
        support = [support[j] for j in keep]
        rats = [rats[j] for j in keep]
        if not support:
            return False  # vacuous one-monomial "identity": target = 0

        ident_cols = support + [tcol]
        if not any(
            _monomial_mentions_f(monomials[j], basis) for j in ident_cols
        ):
            return False  # vacuous pure (x, r) relation

        coeff_vec = np.array([float(r) for r in rats])
        resid_train = M_train[:, tcol] - M_train[:, support] @ coeff_vec
        scale_train = _row_scales(M_train, ident_cols)
        train_mse_rat = float(np.mean((resid_train / scale_train) ** 2))
        if train_mse_rat > cfg.epsilon:
            return False  # wrong snap: rationalized model rejected

        resid_test = M_test[:, tcol] - M_test[:, support] @ coeff_vec
        scale_test = _row_scales(M_test, ident_cols)
        test_residual = float(np.mean(np.abs(resid_test / scale_test)))
        if test_residual > cfg.epsilon:
            return False

        raw_pairs = {monomials[tcol]: ONE}
        for j, r in zip(support, rats):
            raw_pairs[monomials[j]] = -r

        # basis terms are atoms to polyratio, so this is the expansion of
        # sum(c * monomial) over atoms = basis.terms
        try:
            identity, scale = polynomial_normal_form(
                {
                    tuple((i, k) for i, k in enumerate(mono.exponents) if k): c
                    for mono, c in raw_pairs.items()
                },
                basis.terms,
            )
        except RationalOverflow:
            return False  # coprime integer coefficients beyond 128 bits
        known = self.classes.get(identity)
        if known is not None:
            known[1].append(pid)
            return True

        pairs = tuple(
            sorted(
                ((mono, c * scale) for mono, c in raw_pairs.items()),
                key=lambda mc: mc[0].exponents,
                reverse=True,
            )
        )

        used = []
        for j in ident_cols:
            for bi, k in enumerate(monomials[j].exponents):
                if k > 0:
                    for q in basis.origins[bi]:
                        if q not in used:
                            used.append(q)

        sc = stability_sample_complexity(
            M_train[:, support],
            M_train[:, tcol],
            tuple(range(len(support))),
            rats,
            cfg.max_denominator,
        )

        prop = Property(
            id=pid,
            identity=identity,
            pairs=pairs,
            basis=basis,
            queries_used=tuple(used),
            train_mse=train_mse_rat,
            test_residual=test_residual,
            sample_complexity=sc,
        )
        try:
            rec, side = solve_recovery(prop)
            prop = replace(prop, recovery=rec, side_condition=side)
        except NotSolvable:
            pass
        self.classes[identity] = (prop, [])
        return True

    def route_full(self, tcol: int, pid: str) -> None:
        """Fit the target on every other monomial, each column scaled to
        unit root-mean-square; the constant monomial keeps the design
        nonempty."""
        eps = self.cfg.epsilon
        cols = [j for j in range(len(self.monomials)) if j != tcol]
        X = self.M_train[:, cols] / self.all_scale[:, None]
        y = self.M_train[:, tcol] / self.all_scale
        scales = np.sqrt(np.mean(X * X, axis=0))
        scales[scales < 1e-12] = 1.0
        got = _sparse_fit(X / scales, y, eps, eps)
        if got is not None:
            sup_local, coef = got
            raw = coef / scales[sup_local]
            self.finish(tcol, [cols[j] for j in sup_local], raw, pid)

    def route_subsets(self, tcol: int, pid: str) -> None:
        """Scan atom subsets containing the target atom, smallest first.

        Only machine-precision fits count here: this route exists to pull
        minimal-query identities out of designs whose full column set is
        rank deficient, so approximate subsets are left to route A.
        """
        cfg = self.cfg
        exact_eps = min(cfg.epsilon, _SUBSET_EXACT_MSE)
        target_support = self.support_sets[tcol]
        k = len(self.basis)
        rest = [i for i in range(k) if i not in target_support]
        f_idx = _bare_f_index(self.basis)

        candidates = []
        for size in range(len(target_support), min(k, _SUBSET_SIZE_CAP) + 1):
            for extra in combinations(rest, size - len(target_support)):
                candidates.append(target_support | set(extra))
        # identities able to recover f(x) need the bare atom present, so
        # subsets containing it are probed first within each size
        candidates.sort(
            key=lambda S: (
                len(S),
                0 if (f_idx is not None and f_idx in S) else 1,
                tuple(sorted(S)),
            )
        )

        y = self.M_train[:, tcol] / self.all_scale
        for S in candidates[:_SUBSET_COUNT_CAP]:
            cols = [
                j
                for j in range(len(self.monomials))
                if j != tcol and self.support_sets[j] <= S
            ]
            if not cols:
                continue
            X = self.M_train[:, cols] / self.all_scale[:, None]
            got = _sparse_fit(X, y, exact_eps, cfg.epsilon)
            if got is None:
                continue
            sup_local, raw = got
            if self.finish(tcol, [cols[j] for j in sup_local], raw, pid):
                return


def infer(oracle: Oracle, cfg: InferConfig):
    """Run the full pipeline.

    Returns (properties, mean_errors, sample_complexities, error): maps
    keyed by property id in deterministic order, plus an error message
    when nothing survived (the maps are then empty).
    """
    run = _Run(oracle, cfg)

    # ids rise with the target index and route A runs before route B, so
    # the first arrival of each identity class carries its lowest id
    for j, mono in enumerate(run.monomials):
        if mono.degree == 0:
            continue
        run.route_full(j, f"p{2 * j + 1}")
        if mono.degree == 1:
            run.route_subsets(j, f"p{2 * j + 2}")

    reps = [replace(p, duplicates=tuple(later)) for p, later in run.classes.values()]

    props = {p.id: p for p in reps}
    mean_errors = {p.id: p.test_residual for p in reps}
    complexities = {p.id: p.sample_complexity for p in reps}
    error = None if props else "no property survived the error bound"
    return props, mean_errors, complexities, error


def property_from_identity(identity: Expr, pid: str = "gt") -> Property:
    """Wrap a known identity as a Property so it can be property-tested.

    The basis is reconstructed from the identity's own atoms; coefficients
    carry the same normalization as discovered properties; queries_used is
    left empty.
    """
    poly, atoms = expand_to_polynomial(identity)
    if not poly:
        raise ValueError("identity is trivially zero")
    normalized, scale = polynomial_normal_form(poly, atoms)
    basis = TermBasis(terms=tuple(atoms))
    pairs = []
    for mono, coef in poly.items():
        exps = [0] * len(atoms)
        for ai, k in mono:
            exps[ai] = k
        pairs.append((Monomial(tuple(exps)), coef * scale))
    pairs.sort(key=lambda mc: mc[0].exponents, reverse=True)
    return Property(
        id=pid,
        identity=normalized,
        pairs=tuple(pairs),
        basis=basis,
        queries_used=(),
    )


def solve_recovery(p: Property):
    """Solve the identity for f(x) when it appears with degree exactly 1.

    Returns (recovery expression, cofactor expression); the recovery is
    valid wherever the cofactor is nonzero.
    """
    f_index = _bare_f_index(p.basis)
    if f_index is None:
        raise NotSolvable("f(x) is not among the basis atoms")

    cofactor_terms = []
    rest_terms = []
    for mono, coef in p.pairs:
        k = mono.exponents[f_index]
        if k == 0:
            rest_terms.append(Product((Const(coef), monomial_to_expr(mono, p.basis))))
            continue
        if k > 1:
            raise NotSolvable("f(x) appears with degree >= 2")
        reduced = list(mono.exponents)
        reduced[f_index] = 0
        reduced_expr = monomial_to_expr(Monomial(tuple(reduced)), p.basis)
        cofactor_terms.append(Product((Const(coef), reduced_expr)))

    if not cofactor_terms:
        raise NotSolvable("f(x) is absent from the identity")

    cofactor = canonicalize(Sum(tuple(cofactor_terms)))
    if not rest_terms:
        rest = Const(Rational(0))
    else:
        rest = canonicalize(Sum(tuple(rest_terms)))
    recovery = canonicalize(Quotient(Product((Const(Rational(-1)), rest)), cofactor))
    return recovery, cofactor


def count_report(props) -> tuple:
    """(rsr, verified, unverified) in the result-table sense."""
    verified = [
        p
        for p in props
        if p.status in (STATUS_VERIFIED_NUMERIC, STATUS_VERIFIED_SYMBOLIC)
    ]
    unverified = [p for p in props if p.status == STATUS_UNVERIFIED]
    rsr = [p for p in verified if p.recovery is not None]
    return len(rsr), len(verified), len(unverified)
