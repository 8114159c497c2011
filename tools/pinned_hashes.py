"""Recompute the pinned JSON report hashes and compare them.

Each hash is sha256[:16] of ``emit_report(run_bench(repetitions=1,
seed=s, workers=1), "json")``, on the full registry and on the
approximate exp/cos/sin/sigmoid set, at seeds 1-3.  Each report is
computed twice: cold, after clearing the process-level caches of bases,
identity classes and substitution tables, then warm, on the caches the
cold run filled.  The script prints both hashes of all six and exits 1
if any differs from its pinned value.  A change that moves them on
purpose updates PINNED and says why in CHANGES.md.

Under each report it also prints the cold run's wall time and its three
slowest entries, each with the time its ``infer`` and ``classify`` calls
took.  These timings only inform: the exit status depends on the hashes
alone.

    PYTHONPATH=src python tools/pinned_hashes.py [DIR]

Given a directory, it also writes each cold report there as
``<kind>-seed<s>.json`` (the JSON the hash is taken of), for
``tools/report_diff.py`` to compare two trees' reports.

A cold full-registry report takes about 5 s on one core of a shared
2-core machine; the approximate set under 1 s.
"""

import hashlib
import sys
import time
from collections import defaultdict
from pathlib import Path

from rsrforge import bench, discovery, polyratio
from rsrforge.bench import emit_report, run_bench

SELECTIONS = {
    "full": {},
    "approximate": {
        "names": ["exp", "cos", "sin", "sigmoid"],
        "cfg_overrides": {"approximate": True},
    },
}

PINNED = {
    ("full", 1): "343b08963180f989",
    ("full", 2): "3d853c6d037d8ec5",
    ("full", 3): "585ae8127b36aea0",
    ("approximate", 1): "03b65939c7c3ab4f",
    ("approximate", 2): "424b7edc3233dc3d",
    ("approximate", 3): "07017f6d93a9e7f2",
}


SLOWEST = 3  # entries listed under each report

# seconds spent in each entry's infer and classify calls, by entry name;
# run_bench with workers=1 runs one entry at a time
_STAGE_SECONDS = {"infer": defaultdict(float), "classify": defaultdict(float)}
_entry = [""]


def _timed(stage: str, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _STAGE_SECONDS[stage][_entry[0]] += time.perf_counter() - t0

    return wrapper


def _entered(fn):
    def wrapper(entry, *args, **kwargs):
        _entry[0] = entry.name
        return fn(entry, *args, **kwargs)

    return wrapper


def report_hash(seed: int, **selection) -> tuple:
    """(hash, report JSON, report) of one run."""
    report = run_bench(repetitions=1, seed=seed, workers=1, **selection)
    text = emit_report(report, "json")
    return hashlib.sha256(text.encode()).hexdigest()[:16], text, report


def slowest_entries(report) -> str:
    rows = sorted(report.rows, key=lambda r: -r.wall_time_seconds)[:SLOWEST]
    return ", ".join(
        f"{r.name} {r.wall_time_seconds:.2f} s (infer "
        f"{_STAGE_SECONDS['infer'][r.name]:.2f}, classify "
        f"{_STAGE_SECONDS['classify'][r.name]:.2f})"
        for r in rows
    )


def clear_caches() -> None:
    discovery._basis_and_monomials.cache_clear()
    discovery._class_exprs.cache_clear()
    polyratio._substitution_table.cache_clear()


def main(argv: list) -> int:
    out_dir = Path(argv[0]) if argv else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    bench.infer = _timed("infer", bench.infer)
    bench.classify = _timed("classify", bench.classify)
    bench._run_entry = _entered(bench._run_entry)
    mismatches = 0
    for (kind, seed), want in PINNED.items():
        clear_caches()
        for seconds in _STAGE_SECONDS.values():
            seconds.clear()
        t0 = time.perf_counter()
        cold, text, report = report_hash(seed, **SELECTIONS[kind])
        timing = f"cold wall {time.perf_counter() - t0:.1f} s; slowest: "
        timing += slowest_entries(report)
        if out_dir is not None:
            (out_dir / f"{kind}-seed{seed}.json").write_text(text)
        warm, _text, _report = report_hash(seed, **SELECTIONS[kind])
        ok = cold == warm == want
        verdict = "ok" if ok else f"MISMATCH, pinned {want}"
        mismatches += not ok
        print(f"{kind:<11} seed {seed}  cold {cold}  warm {warm}  {verdict}", flush=True)
        print(f"  {timing}", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
