"""The set-up work of one benchmark run, timed from outside as a fresh
process: import rsrforge, load the registry, build the workload's
oracles (and, for verify-known, its identities and mutants).

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    workloads.make(sys.argv[1]).setup(int(sys.argv[2]))


if __name__ == "__main__":
    main()
