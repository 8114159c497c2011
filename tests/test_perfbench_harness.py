"""Smoke test of the benchmark harness's traced runs, at tiny sizes.

``perfbench/run.py --trace 1`` hooks rsrforge by module attribute, so a
library change can break a traced run without any library test seeing
it.  This runs the harness's tiny traced ``exact-poly`` and
``verify-known`` workloads the way ``perfbench/test_perfbench.py`` does,
importing ``perfbench/run.py`` as it is and writing its span files to a
temporary directory.  A hook whose attribute is gone is counted in
``trace.hooks_absent`` and skipped, so that count is not asserted here.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TINY = {
    "exact-poly": {"entries": ("linear", "mean"), "quality_jobs": 2},
    "verify-known": {"entries": ("linear", "exp")},
}


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
    run._import_source()
    return run


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_completes(harness, monkeypatch, tmp_path, name):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    result = harness.run(name, 3, 0.0, True, sizes=TINY[name])
    assert result["correct"], result["details"]["gate"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["details"]["failures"]
    assert result["metrics"]["trace.spans"]["value"] > 0
