"""A small slice of the 80-function benchmark.

Each selected function goes through the full pipeline: correlated
sampling, per-target sparse identities from the null space of the
sampled design, rational snapping, and both verification channels.
Rows read  R / V | U : recoverable self-reductions / verified
identities | candidates that failed verification.  Every discovered
identity that matches a registered ground truth is reported by its
dedupe class.
"""

from rsrforge.bench import emit_report, registry_entry, run_bench

SELECTION = ["linear", "squared", "exp", "log", "cos", "sigmoid", "mobius_inversion"]

print(f"Functions: {', '.join(SELECTION)}")
for name in SELECTION:
    entry = registry_entry(name)
    print(f"  {name:<18} {entry.category:<16} degree {entry.degree_setting}  "
          f"box {entry.box}")

print("\nRunning the harness (1 repetition, seed 3) ...\n")
report = run_bench(names=SELECTION, repetitions=1, seed=3, workers=None)
print(emit_report(report, "table", timings=True))

for row in report.rows:
    matched = row.reps[0].get("ground_truth_matched", [])
    if matched:
        print(f"{row.name}: matched registered ground truth")
        for m in matched:
            print(f"    {m} = 0")
