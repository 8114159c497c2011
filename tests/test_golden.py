"""Golden parity: discovery and verification results at fixed seeds.

tests/data/golden_seed1.json records, for every property that run_bench
reports on six entries at seed 1, the fields that must not move under a
refactor.  ``sign`` and ``frac`` verify only on the 256-bit randomized
channel, so ``channel`` pins the split between it and the exact one.  Floats are left out so BLAS rounding cannot break the check.

tests/data/verify_golden.json pins both verification channels directly:
for each of the 49 registered ground truths and its mutant (the first
normalized coefficient shifted by +1/100), the normal form of the
identity and, at seeds 0-2, symbolic_verify's status, channel, the
``repr`` of its mean and max residual, and its reason.  mpmath is pure
Python, so these residuals are exact across machines.

An intended change of results regenerates both files with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from rsrforge.bench import registry, run_bench
from rsrforge.discovery import normalize_identity, property_from_identity
from rsrforge.errors import DomainError
from rsrforge.expr import Const, Product, Sum, canonicalize
from rsrforge.parser import format_expr
from rsrforge.queries import monomial_to_expr
from rsrforge.rational import Rational
from rsrforge.verification import symbolic_verify

GOLDEN = Path(__file__).parent / "data" / "golden_seed1.json"
VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"
NAMES = ["linear", "squared", "floudas", "exp", "sign", "frac"]
VERIFY_SEEDS = (0, 1, 2)


def golden_records() -> list:
    report = run_bench(names=NAMES, repetitions=1, workers=1, seed=1)
    out = []
    for row in report.rows:
        for rep in row.reps:
            for p in rep.get("properties", ()):
                out.append(
                    {
                        "entry": row.name,
                        "id": p["id"],
                        "identity": p["identity"],
                        "status": p["status"],
                        "channel": p["channel"],
                        "recovery": p["recovery"],
                        "duplicates": p["duplicates"],
                        "sample_complexity": p["sample_complexity"],
                    }
                )
    return out


def _mutant(identity):
    """identity with its first normalized coefficient shifted by +1/100."""
    prop = property_from_identity(identity)
    pairs = list(prop.pairs)
    pairs[0] = (pairs[0][0], pairs[0][1] + Rational(1, 100))
    return canonicalize(
        Sum(
            tuple(
                Product((Const(c), monomial_to_expr(mono, prop.basis)))
                for mono, c in pairs
            )
        )
    )


def _outcome(e, entry, seed) -> list:
    try:
        out = symbolic_verify(
            e, entry.closed_form, box=entry.box, seed=seed, arity=entry.arity
        )
    except DomainError as exc:
        return ["raises", f"DomainError: {exc}"]
    return [
        out.status,
        out.channel,
        repr(out.mean_abs_residual),
        repr(out.max_abs_residual),
        out.reason,
    ]


def verify_records() -> list:
    out = []
    for entry in registry():
        for gt in entry.ground_truth:
            for kind, e in (("truth", gt), ("mutant", _mutant(gt))):
                out.append(
                    {
                        "entry": entry.name,
                        "kind": kind,
                        "normal_form": format_expr(normalize_identity(e)),
                        "outcomes": [_outcome(e, entry, s) for s in VERIFY_SEEDS],
                    }
                )
    return out


def test_golden_seed1_parity():
    assert golden_records() == json.loads(GOLDEN.read_text())


def test_verify_golden_parity():
    want = json.loads(VERIFY_GOLDEN.read_text())
    got = verify_records()
    assert len(got) == len(want) == 98
    for g, w in zip(got, want):
        assert g == w, (g["entry"], g["kind"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_records(), indent=1) + "\n")
    VERIFY_GOLDEN.write_text(json.dumps(verify_records(), indent=1) + "\n")
