"""Golden parity: discovery and verification results at a fixed seed.

tests/data/golden_seed1.json records, for every property that run_bench
reports on six entries at seed 1, the fields that must not move under a
refactor.  ``sign`` and ``frac`` verify only on the 256-bit randomized
channel, so ``channel`` pins the split between it and the exact one.  Floats are left out so BLAS rounding cannot break the check.
An intended change of results regenerates the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from rsrforge.bench import run_bench

GOLDEN = Path(__file__).parent / "data" / "golden_seed1.json"
NAMES = ["linear", "squared", "floudas", "exp", "sign", "frac"]


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


def test_golden_seed1_parity():
    assert golden_records() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_records(), indent=1) + "\n")
