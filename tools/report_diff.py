"""Compare two directories of JSON bench reports.

    python tools/report_diff.py OLD NEW

OLD and NEW hold reports as ``tools/pinned_hashes.py DIR`` writes them
(``<kind>-seed<s>.json``).  For each report name found in both, it prints
the totals of each side: ground truths matched, verified properties,
RSRs, entries with an RSR and unverified properties.  Under them it
lists every entry whose verified identities differ, with the identities
it lost and gained.  A report present on one side only is named and
skipped.  The exit status is 0 unless a directory holds no report.
"""

import json
import sys
from pathlib import Path

_VERIFIED = ("verified_numeric", "verified_symbolic")


def totals(report: dict) -> tuple:
    """(ground truths matched, verified, RSRs, entries with an RSR,
    unverified) over every row and repetition."""
    rows = report["rows"]
    matched = sum(
        len(rep.get("ground_truth_matched", ())) for r in rows for rep in r["reps"]
    )
    return (
        matched,
        sum(r["verified"] for r in rows),
        sum(r["rsr"] for r in rows),
        sum(r["rsr"] > 0 for r in rows),
        sum(r["unverified"] for r in rows),
    )


def verified_identities(report: dict) -> dict:
    """Entry name -> the set of its verified identity strings."""
    return {
        r["name"]: {
            p["identity"]
            for rep in r["reps"]
            for p in rep.get("properties", ())
            if p["status"] in _VERIFIED
        }
        for r in report["rows"]
    }


def diff(old: dict, new: dict) -> list:
    """The printed lines for one pair of reports."""
    heads = ("ground truths", "verified", "RSRs", "entries with an RSR", "unverified")
    lines = []
    for head, a, b in zip(heads, totals(old), totals(new)):
        lines.append(f"  {head:<20} {a:>5} -> {b:<5}")
    before, after = verified_identities(old), verified_identities(new)
    for name in sorted(before.keys() | after.keys()):
        lost = sorted(before.get(name, set()) - after.get(name, set()))
        gained = sorted(after.get(name, set()) - before.get(name, set()))
        if not (lost or gained):
            continue
        lines.append(f"  {name}: {len(lost)} lost, {len(gained)} gained")
        lines += [f"    - {s}" for s in lost]
        lines += [f"    + {s}" for s in gained]
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py OLD NEW", file=sys.stderr)
        return 2
    old_dir, new_dir = map(Path, argv)
    old = {p.name: p for p in sorted(old_dir.glob("*.json"))}
    new = {p.name: p for p in sorted(new_dir.glob("*.json"))}
    if not old or not new:
        print("error: no report in one of the directories", file=sys.stderr)
        return 1
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            side = old_dir if name in old else new_dir
            print(f"{name}: only in {side}")
            continue
        print(name)
        a = json.loads(old[name].read_text())
        b = json.loads(new[name].read_text())
        print("\n".join(diff(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
