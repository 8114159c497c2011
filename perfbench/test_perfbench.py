"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench._import_source()

import layers  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "exact-poly": {"entries": ("linear", "mean"), "quality_jobs": 2},
    "verify-known": {"entries": ("linear", "exp")},
    "transcendental-cv": {"entries": ("cosh",), "quality_jobs": 1},
}
QUALITY = ("gt_recall", "verified_per_job", "rsr_per_job", "verdict_accuracy", "success_rate")


def _tiny(name, trace=False, seed=3):
    return bench.run(name, seed, 0.0, trace, sizes=TINY[name])


def _check_metrics(result, spec):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], float) and math.isfinite(v["value"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_emitted(name):
    result = _tiny(name)
    assert result["correct"], result["details"]["gate"]
    assert result["attempted"] >= 1
    _check_metrics(result, SPEC["end_to_end"])
    for key in ("setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mb"):
        assert result["metrics"][key]["value"] > 0
    env = result["details"]["env"]
    assert {"nproc", "workers", "seed", "python", "numpy", "mpmath", "blas_threads"} <= set(env)


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_emitted(name):
    result = _tiny(name, trace=True)
    assert result["correct"], result["details"]["gate"]
    _check_metrics(result, SPEC["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.hooks_absent"] == 0
    assert m["trace.spans"] > 0
    if name == "verify-known":
        assert m["regression.self_pct"] == 0 and m["discovery.infer.calls"] == 0
        assert m["sampling.draw_samples.calls"] == result["details"]["jobs"]
    else:
        rows_per_job = len(TINY[name]["entries"]) if name == "transcendental-cv" else 1
        assert m["discovery.infer.calls"] == result["details"]["jobs"] * rows_per_job


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_repeats(name):
    a, b = _tiny(name, seed=5), _tiny(name, seed=5)
    for key in QUALITY:
        assert a["metrics"][key]["value"] == b["metrics"][key]["value"], key
    assert a["details"]["identities"] == b["details"]["identities"]
    assert a["details"]["identities"]


def test_spec_matches_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.per_layer_spec()
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.TAIL_PERCENTILE)


def test_refuses_tree_without_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-poly", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_union_of_overlapping_children():
    # parent 0..10 with children on two threads: 1..4 and 3..6, and 8..9
    spans = [
        (1, 0, "p", 0, 0.0, 10.0),
        (2, 1, "c", 0, 1.0, 4.0),
        (3, 1, "c", 0, 3.0, 6.0),
        (4, 1, "c", 0, 8.0, 9.0),
    ]
    got = self_times(spans)
    assert got["p"] == (1, pytest.approx(4.0))
    assert got["c"] == (3, pytest.approx(7.0))


def test_missing_hook_is_reported_not_fatal():
    tracer = Tracer()
    assert not tracer.wrap("rsrforge.bench.no_such_function", "x")
    assert not tracer.wrap("rsrforge.no_such_module.f", "x")
    assert tracer.absent == ["rsrforge.bench.no_such_function", "rsrforge.no_such_module.f"]
    tracer.uninstall()


def test_tail_needs_ten_jobs_beyond():
    lat = [float(i) for i in range(1, 101)]
    assert bench.tail(lat, 90)[0] == 90
    assert bench.tail(lat, 95)[0] == 90
    assert bench.tail(lat[:15], 90) == (100, 15.0)


def test_failures_recorded_with_type(monkeypatch):
    import rsrforge.bench as rb

    def broken(oracle, cfg):
        raise ValueError("design must have at least one row and one column")

    monkeypatch.setattr(rb, "infer", broken)
    result = _tiny("exact-poly")
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"]["success_rate"]["value"] == 0.0
    for f in result["details"]["failures"]:
        assert f["type"] == "ValueError" and f["workload"] == "exact-poly"
        assert f["entry"] in ("linear", "mean") and isinstance(f["seed"], int)
