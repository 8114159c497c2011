"""End-to-end inference of randomized self-reduction identities.

Every monomial of the basis (not only the degree-1 atoms) serves in turn
as the supervised variable.  One SVD of the sampled monomial matrix, each
row divided by its largest |monomial value| and each column scaled to
unit root-mean-square, gives an orthonormal basis of the design's null
space: the right singular vectors below 1e-8 of the largest singular
value.  Every exact identity of the design is a vector in it, and two
deterministic routes read candidate identities from it:

  * route A eliminates backward inside the null basis: for each target
    it starts from the minimum-norm null vector with the target's
    coefficient 1, walks the other columns by ascending |coefficient|,
    and drops a column (forces its coefficient to 0) whenever a null
    vector with a nonzero target coefficient remains.  It restarts the
    walk after each drop, and the columns that cannot drop are the
    identity's support;
  * route B takes the null basis' reduced row echelon form, highest-
    degree monomials first, which gives one identity per pivot monomial,
    written in the monomials that are not pivots.  The echelon rows are
    sparse, minimal-query members of the null space, but they pivot on
    the highest degree; route A also finds the sparse members that are
    not echelon rows, such as the Jensen-type f(x+r) + f(x-r) - 2f(x).

Candidates are snapped to bounded-denominator rationals and re-checked
on the train and held-out splits: the rationalized identity's train MSE
and mean test residual must both be at most ``InferConfig.epsilon``.  A
survivor's coefficients are scaled to coprime integers with a positive
leading monomial (``polyratio.normal_scaling``); over the run's one
basis they determine the normalized identity, so they key its class,
and classes form on arrival.  The first candidate of a class in a run
pays for the stability count and its queries and becomes the class's
Property; later ones only add their ids to its ``duplicates``.  What depends only on the
basis and the class is built once per process: the basis, its monomials
and their sparse form come from an LRU cache per (queries, arity, raw
variables, degree), and the identity expression, its pairs, the
recovery and its side condition from an LRU cache per (basis, class),
so a class that comes back in a later run or on another seed costs one
lookup.  The basis keeps each monomial's expression once built, so the
identity, the recovery and the JSON record share them.  Residuals are
scale-free throughout: each row is divided by max(1, largest |monomial
value| among the identity's monomials).

Every identity expression comes from that per-class builder, through
``polyratio.polynomial_to_expr`` over a ``TermBasis``: a discovered
identity, a known identity that ``property_from_identity`` expands and
scales over its own atoms (the ground-truth normal form), and a
recovery's cofactor and remainder.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import NotSolvable, RationalOverflow
from .expr import Const, Expr, FuncApp, Power, Product, canonicalize
from .parser import format_expr
from .polyratio import expand_to_polynomial, normal_scaling, polynomial_to_expr
from .queries import (
    Monomial,
    TermBasis,
    build_basis,
    default_query_class,
    gen_monomials,
    monomial_to_expr,
)
from .rational import ONE, Rational
from .regression import rationalize, stability_sample_complexity
from .sampling import MIN_SPLIT_ROWS, Oracle, draw_samples, split

# singular values below this share of the largest span the null space
# that both routes read.  On the sigmoid design, exact identities sit
# near 1e-17 and genuine singular values above 5e-5; a 30-term Taylor
# oracle's identities reach 3e-8.  1e-6 admits dense relations with
# 27-digit coefficients that the exact verification channel cannot expand
_NULL_RANK_TOL = 1e-8
# an echelon pivot below this share of the null basis' largest entry is
# noise that a truncated-series oracle leaves; pivoting on it spreads the
# true identity over spurious rows
_PIVOT_FLOOR = 1e-3
# route A: a projection of a column of the orthonormal null basis shorter
# than this is zero, so a target whose column is shorter has no identity
# and a column whose drop leaves the target's column shorter cannot drop
_ELIMINATION_TOL = 1e-6

# query shapes whose basis, monomials and sparse monomials are kept
_BASES = 64
# identity classes whose expressions are kept; a full-registry run at
# one seed meets about 480, and exact-poly saturates near 220
_CLASSES = 1024

STATUS_CANDIDATE = "candidate"
STATUS_VERIFIED_NUMERIC = "verified_numeric"
STATUS_VERIFIED_SYMBOLIC = "verified_symbolic"
STATUS_UNVERIFIED = "unverified"


@dataclass
class InferConfig:
    queries: tuple = None  # None -> default class for the oracle's arity
    max_degree: int = 2
    m: int = 100
    # bounds only a snapped candidate's train MSE and mean test residual
    epsilon: float = 1e-3
    max_denominator: int = 100
    seed: int = 0
    include_raw_vars: bool = False

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("max_degree", "max_denominator"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.m < MIN_SPLIT_ROWS:
            raise ValueError(f"m must be at least {MIN_SPLIT_ROWS}")

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
        """The identity's text, built once per identity node, so every
        Property of a class shares one string."""
        e = self.identity
        text = e._identity_text
        if text is None:
            text = e.__dict__["_identity_text"] = format_expr(e) + " = 0"
        return text

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


def _row_scales(monomial_values: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.max(np.abs(monomial_values), axis=1))


def normalize_identity(e: Expr) -> Expr:
    """Canonical representative of the identity's dedupe class; raises
    ValueError when e is trivially zero."""
    return property_from_identity(e).identity


@functools.lru_cache(maxsize=_BASES)
def _basis_and_monomials(queries, arity: int, include_raw_vars: bool, max_degree: int):
    """(basis, monomials, sparse) for a query tuple, None for the default
    class of the arity: sparse[j] is monomial j as a polyratio monomial
    over the basis terms, its (term index, exponent) pairs."""
    basis = build_basis(
        "f", queries or tuple(default_query_class(arity)), arity, include_raw_vars
    )
    monomials = tuple(gen_monomials(basis, max_degree))
    sparse = tuple(
        tuple((i, k) for i, k in enumerate(m.exponents) if k) for m in monomials
    )
    return basis, monomials, sparse


@functools.lru_cache(maxsize=_CLASSES)
def _class_exprs(basis: TermBasis, key: frozenset) -> tuple:
    """(identity, pairs, recovery, side condition) of the identity class
    ``key``, the coprime coefficients of its normalized identity as a
    frozenset of (sparse monomial, coefficient) pairs over basis.  The
    identity is sum(c * m), the pairs run by exponents, descending, and
    the recovery and its side condition are None when the identity is
    not solvable for f(x)."""
    coefs = {}
    for mono, c in key:
        exps = [0] * len(basis)
        for i, k in mono:
            exps[i] = k
        coefs[Monomial(tuple(exps))] = c
    identity = polynomial_to_expr(coefs, lambda m: monomial_to_expr(m, basis))
    pairs = tuple(sorted(coefs.items(), key=lambda mc: mc[0].exponents, reverse=True))
    try:
        recovery, side = solve_recovery(
            Property(id="", identity=identity, pairs=pairs, basis=basis, queries_used=())
        )
    except NotSolvable:
        recovery = side = None
    return identity, pairs, recovery, side


def _monomial_mentions_f(mono: Monomial, basis: TermBasis) -> bool:
    return any(
        k > 0 and isinstance(term, FuncApp)
        for term, k in zip(basis.terms, mono.exponents)
    )


def _unit_rms(A: np.ndarray):
    """A with each column scaled to unit root-mean-square, and the
    scales; a column that is zero to 1e-12 keeps scale 1."""
    scales = np.sqrt(np.mean(A * A, axis=0))
    scales[scales < 1e-12] = 1.0
    return A / scales, scales


class _Run:
    """Shared state for one infer() invocation."""

    def __init__(self, oracle: Oracle, cfg: InferConfig):
        self.cfg = cfg
        self.basis, self.monomials, self.sparse = _basis_and_monomials(
            tuple(cfg.queries) if cfg.queries else None,
            oracle.arity,
            cfg.include_raw_vars,
            cfg.max_degree,
        )

        table = draw_samples(oracle, self.basis, self.monomials, cfg.m, cfg.seed)
        # split hands out row views of the whole table: train rows first
        self.M = table.monomial_values
        self.M_train = split(table)[0].monomial_values
        self.n_train = self.M_train.shape[0]

        # one SVD of the train design, each row divided by its largest
        # |monomial value| and each column scaled to unit root-mean-square;
        # null holds the orthonormal rows of its null space in those
        # scaled columns, which both routes read
        A, self.scales = _unit_rms(self.M_train / _row_scales(self.M_train)[:, None])
        _, sing, vt = np.linalg.svd(A)
        self.null = vt[int(np.sum(sing > _NULL_RANK_TOL * sing[0])) :]

        # coprime integer coefficients of a normalized identity, as a
        # frozenset of (sparse monomial, coefficient) pairs -> (its first
        # Property, ids of later arrivals)
        self.classes: dict = {}

    def finish(self, tcol: int, support, raw, pid: str) -> bool:
        """Rationalize, re-check and scale one candidate; package it
        unless its identity class already has a Property.  Returns
        whether the candidate survived the checks."""
        cfg = self.cfg
        monomials, basis, sparse = self.monomials, self.basis, self.sparse
        n_train = self.n_train

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

        # every row's scaled residual at once: train rows, then test rows
        values = self.M[:, ident_cols]
        X, y = values[:, :-1], values[:, -1]
        resid = (y - X @ np.array([float(r) for r in rats])) / _row_scales(values)
        train_mse_rat = float(np.mean(resid[:n_train] ** 2))
        if train_mse_rat > cfg.epsilon:
            return False  # wrong snap: rationalized model rejected
        test_residual = float(np.mean(np.abs(resid[n_train:])))
        if test_residual > cfg.epsilon:
            return False

        # basis terms are atoms to polyratio, so this is the expansion of
        # sum(c * monomial) over atoms = basis.terms
        poly = {sparse[tcol]: ONE}
        for j, r in zip(support, rats):
            poly[sparse[j]] = -r
        try:
            scaled = normal_scaling(poly, basis.terms)
        except RationalOverflow:
            return False  # coprime integer coefficients beyond 128 bits
        # over one basis the scaled coefficients determine the canonical
        # identity, so they key its class
        key = frozenset(scaled.items())
        known = self.classes.get(key)
        if known is not None:
            known[1].append(pid)
            return True

        identity, pairs, recovery, side = _class_exprs(basis, key)

        used = []
        for j in ident_cols:
            for bi, k in enumerate(monomials[j].exponents):
                if k > 0:
                    for q in basis.origins[bi]:
                        if q not in used:
                            used.append(q)

        sc = stability_sample_complexity(
            X[:n_train], y[:n_train], rats, cfg.max_denominator
        )

        prop = Property(
            id=pid,
            identity=identity,
            pairs=pairs,
            basis=basis,
            queries_used=tuple(used),
            recovery=recovery,
            side_condition=side,
            train_mse=train_mse_rat,
            test_residual=test_residual,
            sample_complexity=sc,
        )
        self.classes[key] = (prop, [])
        return True

    def eliminate(self, tcol: int, pid: str) -> None:
        """Route A for one target: backward elimination inside the null
        basis, as the module docstring describes.  The imposed zeros are
        kept as an orthonormal basis Q of their columns of the null
        basis; w, the target's column projected off Q, gives the
        minimum-norm feasible vector V^T w / |w|^2, whose v[tcol] is 1.
        A column that cannot drop never can after further drops, so it
        is not tried again."""
        V = self.null
        w = V[:, tcol]
        if np.linalg.norm(w) < _ELIMINATION_TOL:
            return  # no null vector involves the target
        Q = np.zeros((len(V), 0))
        settled = {tcol}  # the target and every dropped column
        stuck = set()
        while True:
            v = (w @ V) / (w @ w)
            skip = settled | stuck
            walk = [i for i in range(V.shape[1]) if i not in skip]
            for i in sorted(walk, key=lambda i: abs(v[i])):
                u = V[:, i] - Q @ (Q.T @ V[:, i])
                norm = np.linalg.norm(u)
                if norm >= _ELIMINATION_TOL:
                    q = u / norm
                    rest = w - q * (q @ w)
                    if np.linalg.norm(rest) < _ELIMINATION_TOL:
                        stuck.add(i)  # v_i = 0 would force v[tcol] = 0
                        continue
                    Q = np.column_stack([Q, q])
                    w = rest
                settled.add(i)
                break
            else:
                break
        support = sorted(stuck)
        s = self.scales
        self.finish(tcol, support, -v[support] * s[tcol] / s[support], pid)

    def null_rows(self) -> dict:
        """Route B: pivot column -> (other columns, coefficients) for each
        row of the reduced echelon basis of the null space, pivots taken
        from the highest degree down, in ``gen_monomials`` order within a
        degree."""
        N = self.null / self.scales

        floor = _PIVOT_FLOOR * float(np.max(np.abs(N), initial=0.0))
        order = sorted(range(N.shape[1]), key=lambda j: -self.monomials[j].degree)
        rows = {}
        free = list(range(len(N)))
        for col in order:
            if not free:
                break
            r = max(free, key=lambda i: abs(N[i, col]))
            if abs(N[r, col]) < floor:
                continue
            free.remove(r)
            pivot_row = N[r] / N[r, col]
            N -= np.outer(N[:, col], pivot_row)
            N[r] = pivot_row
            rows[col] = r

        # x / x is exactly 1 and x - x * 1 exactly 0, so every pivot
        # column is exactly zero outside its own row
        out = {}
        for col, r in rows.items():
            others = [j for j in np.flatnonzero(N[r]) if j != col]
            out[col] = (others, -N[r, others])
        return out


def infer(oracle: Oracle, cfg: InferConfig):
    """Run the full pipeline.

    Returns (properties, mean_errors, sample_complexities, error): maps
    keyed by property id in deterministic order, plus an error message
    when nothing survived (the maps are then empty).
    """
    run = _Run(oracle, cfg)

    # target j's route-A elimination is p{2j+1} and the echelon row
    # pivoting on j is p{2j+2}, dispatched right after it: ids rise with
    # arrival, so the first arrival of each identity class carries its
    # lowest id
    null_rows = run.null_rows()
    for j, mono in enumerate(run.monomials):
        if mono.degree == 0:
            continue
        run.eliminate(j, f"p{2 * j + 1}")
        if j in null_rows:
            run.finish(j, *null_rows[j], f"p{2 * j + 2}")

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
    basis = TermBasis(terms=tuple(atoms))
    key = frozenset(normal_scaling(poly, atoms).items())
    normalized, pairs, _, _ = _class_exprs(basis, key)
    return Property(
        id=pid,
        identity=normalized,
        pairs=pairs,
        basis=basis,
        queries_used=(),
    )


def solve_recovery(p: Property):
    """Solve the identity for f(x) when it appears with degree exactly 1.

    Returns (recovery expression, cofactor expression); the recovery is
    valid wherever the cofactor is nonzero.
    """
    f_index = p.basis.bare_f_index
    if f_index is None:
        raise NotSolvable("f(x) is not among the basis atoms")

    cofactor_coefs = {}
    rest_coefs = {}
    for mono, coef in p.pairs:
        k = mono.exponents[f_index]
        if k == 0:
            rest_coefs[mono] = coef
            continue
        if k > 1:
            raise NotSolvable("f(x) appears with degree >= 2")
        reduced = list(mono.exponents)
        reduced[f_index] = 0
        cofactor_coefs[Monomial(tuple(reduced))] = coef

    if not cofactor_coefs:
        raise NotSolvable("f(x) is absent from the identity")

    def mono_expr(m):
        return monomial_to_expr(m, p.basis)

    cofactor = polynomial_to_expr(cofactor_coefs, mono_expr)
    rest = polynomial_to_expr(rest_coefs, mono_expr)
    recovery = canonicalize(Product((Const(Rational(-1)), rest, Power(cofactor, -1))))
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
