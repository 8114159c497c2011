"""Recompute the pinned JSON report hashes and compare them.

Each hash is sha256[:16] of ``emit_report(run_bench(repetitions=1,
seed=s, workers=1), "json")``, on the full registry and on the
approximate exp/cos/sin/sigmoid set, at seeds 1-3.  Each report is
computed twice: cold, after clearing the process-level caches of bases,
identity classes and substitution tables, then warm, on the caches the
cold run filled.  The script prints both hashes of all six and exits 1
if any differs from its pinned value.  A change that moves them on
purpose updates PINNED and says why in CHANGES.md.

    PYTHONPATH=src python tools/pinned_hashes.py

The full registry takes a few minutes per seed and pass on one core.
"""

import hashlib
import sys

from rsrforge import discovery, polyratio
from rsrforge.bench import emit_report, run_bench

SELECTIONS = {
    "full": {},
    "approximate": {
        "names": ["exp", "cos", "sin", "sigmoid"],
        "cfg_overrides": {"approximate": True},
    },
}

PINNED = {
    ("full", 1): "0de3ebc66e1e8d3f",
    ("full", 2): "4fa63839cae4d78f",
    ("full", 3): "27380652e7e932bc",
    ("approximate", 1): "0a056bc76e210e12",
    ("approximate", 2): "ed372d3d085bc70b",
    ("approximate", 3): "e61573596185e923",
}


def report_hash(seed: int, **selection) -> str:
    report = run_bench(repetitions=1, seed=seed, workers=1, **selection)
    return hashlib.sha256(emit_report(report, "json").encode()).hexdigest()[:16]


def clear_caches() -> None:
    discovery._basis_and_monomials.cache_clear()
    discovery._class_exprs.cache_clear()
    polyratio._substitution_table.cache_clear()


def main() -> int:
    mismatches = 0
    for (kind, seed), want in PINNED.items():
        clear_caches()
        cold = report_hash(seed, **SELECTIONS[kind])
        warm = report_hash(seed, **SELECTIONS[kind])
        ok = cold == warm == want
        verdict = "ok" if ok else f"MISMATCH, pinned {want}"
        mismatches += not ok
        print(f"{kind:<11} seed {seed}  cold {cold}  warm {warm}  {verdict}", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
