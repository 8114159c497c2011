"""rsrforge performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload exact-poly --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the tree the script sits in; a
tree without it is refused with exit code 2.  Workloads are described in
``workloads.py``.  With ``--trace 0`` the run measures the end-to-end
metrics with no tracing in place; with ``--trace 1`` it runs the
workload untraced for half the window, then the same jobs again with the
layer hooks installed, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced wall time of the same jobs).

Every run re-checks, outside the timed region and on fresh seeds, each
verdict its jobs produced; ``correct`` is false if any re-check
disagrees.  Earlier stdout lines carry the run's details (environment,
failures, tail percentile, gate); the last line is the result object.
Details, and in traced runs every span, are also written under
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 7
# the tail percentile each workload reports; it needs at least ten jobs
# beyond it, which a 40 s window gives with room to spare on 2 cores
TAIL_PERCENTILE = {"exact-poly": 90, "verify-known": 95, "transcendental-cv": 90}
FALLBACK_PERCENTILES = (99, 95, 90, 75, 50)

# (name, unit) of every end-to-end metric, in output order
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("gt_recall", "ratio"),
    ("verified_per_job", "count"),
    ("rsr_per_job", "count"),
    ("verdict_accuracy", "ratio"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_source():
    """Put ``src/`` first on the path and check rsrforge comes from it."""
    if not (SRC / "rsrforge" / "__init__.py").is_file():
        raise SystemExit(f"rsrforge source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import rsrforge

    if not Path(rsrforge.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported rsrforge from {rsrforge.__file__}, not {SRC}")


def environment(workload, seed: int) -> dict:
    import mpmath
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": workloads.nproc(),
        "workers": workload.workers,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_name,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "machine": platform.machine(),
    }


def setup_seconds(workload: str, seed: int) -> list:
    """Wall time of fresh processes that import rsrforge, load the
    registry and build the workload's oracles."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and adds up to 50 ms
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def tail(latencies, wanted: int) -> tuple:
    """(percentile, value): ``wanted`` if at least ten jobs lie beyond it,
    else the highest lower percentile that has them, else the maximum."""
    import numpy as np

    n = len(latencies)
    for p in (wanted,) + tuple(q for q in FALLBACK_PERCENTILES if q < wanted):
        if n * (100 - p) >= 1000:  # ten jobs beyond p
            return p, float(np.percentile(latencies, p))
    return 100, float(max(latencies))


def quality(results) -> dict:
    """Quality metrics over the given (quality-prefix) jobs."""

    def total(attr):
        return sum(getattr(r, attr) for r in results)

    units = max(total("units"), 1)
    failed = sum(len(r.failures) for r in results)
    return {
        "gt_recall": total("gt_matched") / max(total("gt_registered"), 1),
        "verified_per_job": total("verified") / units,
        "rsr_per_job": total("rsr") / units,
        "verdict_accuracy": total("verdicts_correct") / max(total("verdicts"), 1),
        "success_rate": 1.0 - failed / units,
    }


def _out(filename: str) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / filename


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; returns the result object plus ``details``."""
    wl = workloads.make(name, **(sizes or {}))
    setup = [] if trace else setup_seconds(name, seed)
    wl.setup(seed)
    errors = getattr(wl, "errors", None)
    if errors is not None:
        errors.install()
    try:
        results, wall = workloads.closed_loop(wl, seconds / 2 if trace else seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layer_values, absent = None, []
        if trace:
            tracer = Tracer()
            layers.install(tracer, wl.oracles())
            try:
                traced, traced_wall = workloads.closed_loop(
                    wl, 0, count=len(results), tracer=tracer
                )
            finally:
                tracer.uninstall()
            layer_values = layers.metrics(tracer, traced_wall, wall)
            tracer.write(_out(f"{name}-seed{seed}.spans.tsv.gz"))
            absent = tracer.absent
            everything = results + traced
        else:
            everything = results
    finally:
        if errors is not None:
            errors.uninstall()

    checked, gate_failures = wl.recheck(everything, seed)
    q = quality(results[: wl.quality_jobs])
    latencies = [r.latency for r in results]
    pct, tail_value = tail(latencies, TAIL_PERCENTILE.get(name, 90))
    failures = [f for r in everything for f in r.failures]

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_values.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "jobs_per_s": len(results) / wall,
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail_value,
            "peak_rss_mb": rss_mb,
            **q,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    details = {
        "workload": name,
        "trace": int(trace),
        "env": environment(wl, seed),
        "jobs": len(results),
        "quality_jobs": wl.quality_jobs,
        "wall_s": wall,
        "setup_probes_s": setup,
        "tail_percentile": pct,
        "tail_samples": len(latencies),
        "latencies_s": latencies,
        "gate": {"checked": checked, "failures": gate_failures},
        "failures": failures,
        "hooks_absent": absent,
        "identities": [s for r in results[: wl.quality_jobs] for s in r.identities],
    }
    return {
        "correct": not gate_failures,
        "attempted": sum(r.units for r in everything),
        "failed": len(failures),
        "metrics": metrics,
        "details": details,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_source()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    details = result.pop("details")
    _out(f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**details, **result}, indent=1) + "\n"
    )
    summary = {k: v for k, v in details.items() if k not in ("identities", "latencies_s")}
    summary["failures"] = summary["failures"][:20]
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
