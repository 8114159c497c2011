"""rsrforge: learning and verifying randomized self-reductions.

A randomized self-reduction expresses f(x) through evaluations of f at
random correlated points q(x, r).  This package discovers such implicit
identities from black-box samples by reading sparse vectors out of the
null space of the sampled monomial design, snaps coefficients to exact
rationals, and validates the results by statistical property testing
and exact/high-precision symbolic checks.  The bench subpackage ships
an 80-function registry with a reproducible harness.
"""

from .discovery import (
    InferConfig,
    Property,
    count_report,
    infer,
    normalize_identity,
    property_from_identity,
    solve_recovery,
)
from .errors import (
    BasisError,
    CombinatorialBlowup,
    DomainError,
    ExpansionTooLarge,
    NotSolvable,
    ParseError,
    RSRError,
    RationalOverflow,
    SamplingExhausted,
    TooFewRows,
    UnboundSymbol,
    UnknownEntry,
    UnknownSeries,
)
from .expr import Env, Expr, canonicalize, evaluate
from .parser import format_expr, parse
from .queries import (
    Monomial,
    QueryFunction,
    TermBasis,
    build_basis,
    default_query_class,
    extended_query_library,
    gen_monomials,
    monomial_to_expr,
)
from .rational import Rational
from .regression import rationalize, stability_sample_complexity
from .sampling import (
    Oracle,
    SampleTable,
    draw_samples,
    oracle_from_expr,
    split,
    taylor_program,
)
from .verification import VerifyConfig, VerifyOutcome, classify, property_test, symbolic_verify
from .bench import (
    BenchmarkEntry,
    BenchReport,
    emit_report,
    ground_truth_check,
    registry,
    run_bench,
)

__version__ = "0.1.0"
