"""RSR-Bench: the 80-function registry and the discovery/verification harness.

The registry ships as a checked-in JSON file; several closed forms are
documented best guesses where the benchmark names are standard but the
formulas are not written down anywhere authoritative, and each such
entry carries a note saying so.  Term-generation degree is 3 for the
trigonometric, hyperbolic, and exponential/logarithmic categories and 2
otherwise; sigmoid is the one documented exception (its known
self-reduction is cubic).
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources

import numpy as np

from .discovery import InferConfig, count_report, infer, normalize_identity
from .errors import UnknownEntry
from .expr import Expr
from .parser import format_expr, parse
from .sampling import Oracle, oracle_from_expr, taylor_program
from .verification import VerifyConfig, classify

DEGREE_EXCEPTIONS = {"sigmoid": 3}

# the cfg_overrides keys run_bench reads: "approximate" picks the entry's
# truncated-series program, every other key is an InferConfig field
_OVERRIDE_KEYS = frozenset(
    ("approximate", "max_degree", "m", "epsilon", "max_denominator")
)


@dataclass(frozen=True)
class BenchmarkEntry:
    name: str
    closed_form: Expr
    arity: int
    category: str
    degree_setting: int
    box: tuple
    approx_program: tuple = None  # (series name, terms)
    ground_truth: tuple = ()
    note: str = ""

    def oracle(self, approximate: bool = False) -> Oracle:
        if approximate:
            if self.approx_program is None:
                raise ValueError(f"{self.name} has no approximate program")
            series, terms = self.approx_program
            return taylor_program(series, terms, box=self.box)
        return oracle_from_expr(self.name, self.closed_form, self.arity, self.box)

    @cached_property
    def ground_truth_classes(self) -> tuple:
        """Each ground truth's dedupe class, normalized once per entry."""
        return tuple(normalize_identity(gt) for gt in self.ground_truth)


_REGISTRY_CACHE = None


def registry() -> list:
    """The 80 RSR-Bench entries, in table order."""
    global _REGISTRY_CACHE
    if _REGISTRY_CACHE is None:
        raw = json.loads(
            resources.files("rsrforge.data").joinpath("registry.json").read_text()
        )
        entries = []
        for rec in raw:
            entries.append(
                BenchmarkEntry(
                    name=rec["name"],
                    closed_form=parse(rec["closed_form"]),
                    arity=rec["arity"],
                    category=rec["category"],
                    degree_setting=rec["degree"],
                    box=tuple(rec["box"]),
                    approx_program=tuple(rec["approx_program"])
                    if rec.get("approx_program")
                    else None,
                    ground_truth=tuple(parse(s) for s in rec.get("ground_truth", [])),
                    note=rec.get("note", ""),
                )
            )
        _REGISTRY_CACHE = entries
    return list(_REGISTRY_CACHE)


def registry_entry(name: str) -> BenchmarkEntry:
    for entry in registry():
        if entry.name == name:
            return entry
    raise UnknownEntry(f"no benchmark entry named {name!r}")


def select_entries(names=None, category=None) -> list:
    entries = registry()
    if names is not None:
        known = {e.name: e for e in entries}
        missing = [n for n in names if n not in known]
        if missing:
            raise UnknownEntry(f"unknown benchmark names: {', '.join(missing)}")
        chosen = set(names)
        return [e for e in entries if e.name in chosen]
    if category is not None:
        out = [e for e in entries if e.category == category]
        if not out:
            raise UnknownEntry(f"no entries in category {category!r}")
        return out
    return entries


def _entry_seed(seed: int, name: str, rep: int) -> int:
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode()), rep])
    return int(ss.generate_state(1)[0])


def ground_truth_check(entry: BenchmarkEntry, discovered) -> list:
    """Ground truths matched by some discovered property's dedupe class."""
    matched = []
    for gt, want in zip(entry.ground_truth, entry.ground_truth_classes):
        if any(p.identity == want for p in discovered):
            matched.append(format_expr(gt))
    return matched


@dataclass
class BenchRow:
    name: str
    category: str
    degree: int
    rsr: int
    verified: int
    unverified: int
    wall_time_seconds: float
    reps: list = field(default_factory=list)
    error: str = ""


@dataclass
class BenchReport:
    rows: list
    seed: int
    config: dict

    def to_json_dict(self, timings: bool = False) -> dict:
        return {
            "seed": self.seed,
            "config": self.config,
            "rows": [
                {
                    "name": r.name,
                    "category": r.category,
                    "degree": r.degree,
                    "rsr": r.rsr,
                    "verified": r.verified,
                    "unverified": r.unverified,
                    "wall_time_seconds": r.wall_time_seconds if timings else None,
                    "error": r.error,
                    "reps": r.reps,
                }
                for r in self.rows
            ],
        }


def _run_entry(
    entry: BenchmarkEntry,
    cfg: InferConfig,
    vcfg: VerifyConfig,
    repetitions: int,
    seed: int,
    approximate: bool = False,
):
    row = BenchRow(
        name=entry.name,
        category=entry.category,
        degree=cfg.max_degree,
        rsr=0,
        verified=0,
        unverified=0,
        wall_time_seconds=0.0,
    )
    counts = []
    times = []
    try:
        oracle = entry.oracle(approximate=approximate)
    except Exception as exc:
        row.error = str(exc)
        return row
    for rep in range(repetitions):
        rep_seed = _entry_seed(seed, entry.name, rep)
        t0 = time.perf_counter()
        try:
            props, _errs, _scs, _msg = infer(oracle, replace(cfg, seed=rep_seed))
            verified = [
                classify(
                    prop,
                    oracle,
                    closed_form=entry.closed_form,
                    cfg=vcfg,
                    seed=_entry_seed(rep_seed, f"{entry.name}:verify", k),
                )
                for k, prop in enumerate(props.values())
            ]
            counted = count_report(verified)
            matched = ground_truth_check(entry, verified)
            counts.append(counted)
            times.append(time.perf_counter() - t0)
            row.reps.append(
                {
                    "seed": rep_seed,
                    "rsr": counted[0],
                    "verified": counted[1],
                    "unverified": counted[2],
                    "ground_truth_matched": matched,
                    "properties": [p.to_json_dict() for p in verified],
                }
            )
        except Exception as exc:
            times.append(time.perf_counter() - t0)
            counts.append((0, 0, 0))
            row.reps.append({"seed": rep_seed, "error": str(exc)})
            row.error = str(exc)
    row.rsr = int(statistics.median(c[0] for c in counts))
    row.verified = int(statistics.median(c[1] for c in counts))
    row.unverified = int(statistics.median(c[2] for c in counts))
    row.wall_time_seconds = float(statistics.median(times))
    return row


def run_bench(
    names=None,
    category=None,
    cfg_overrides: dict = None,
    repetitions: int = 5,
    seed: int = 0,
    workers: int = None,
) -> BenchReport:
    """Run discovery + verification over a registry selection.

    cfg_overrides may set the InferConfig fields max_degree, m, epsilon
    (which also reaches VerifyConfig) and max_denominator, and
    "approximate".  An unknown key, a value either config rejects,
    repetitions below 1, a negative seed, or workers below 1 raises
    ValueError before any entry runs; workers=None uses the thread
    pool's default.
    Per-entry failures land in the row's error field and never abort the
    batch.  Rows keep registry order regardless of completion order.
    """
    entries = select_entries(names, category)
    overrides = dict(cfg_overrides or {})
    unknown = sorted(set(overrides) - _OVERRIDE_KEYS)
    if unknown:
        raise ValueError(
            f"unknown override keys {unknown}; known: {sorted(_OVERRIDE_KEYS)}"
        )
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if workers is not None and workers < 1:
        raise ValueError("workers must be at least 1")
    approximate = overrides.get("approximate", False)
    base = InferConfig(**{k: v for k, v in overrides.items() if k != "approximate"})
    vcfg = (
        VerifyConfig(epsilon=overrides["epsilon"])
        if "epsilon" in overrides
        else VerifyConfig()
    )

    def job(entry):
        degree = overrides.get("max_degree", entry.degree_setting)
        cfg = replace(base, max_degree=degree)
        return _run_entry(entry, cfg, vcfg, repetitions, seed, approximate)

    if workers is None or workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(job, entries))
    else:
        rows = [job(e) for e in entries]

    return BenchReport(
        rows=rows,
        seed=seed,
        config={
            "selection": [e.name for e in entries],
            "repetitions": repetitions,
            "overrides": overrides,
        },
    )


def emit_report(report: BenchReport, fmt: str = "table", timings: bool = False) -> str:
    """Render a report as text-table, CSV, or JSON."""
    if fmt == "table":
        width = max([len(r.name) for r in report.rows] + [8])
        lines = [f"{'name':<{width}}  R / V | U   time"]
        for r in report.rows:
            t = f"{r.wall_time_seconds:.2f}s" if timings else "-"
            tail = f"  [{r.error}]" if r.error else ""
            lines.append(
                f"{r.name:<{width}}  {r.rsr} / {r.verified} | {r.unverified}   {t}{tail}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "name",
                "category",
                "degree",
                "rsr",
                "verified",
                "unverified",
                "time",
                "error",
                "properties",
            ]
        )
        for r in report.rows:
            writer.writerow(
                [
                    r.name,
                    r.category,
                    r.degree,
                    r.rsr,
                    r.verified,
                    r.unverified,
                    f"{r.wall_time_seconds:.3f}" if timings else "",
                    r.error,
                    json.dumps(r.reps),
                ]
            )
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(report.to_json_dict(timings=timings), indent=1) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
