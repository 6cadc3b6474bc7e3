#!/usr/bin/env python3
"""Print every benchmark metric across the BENCH_prN.json snapshots.

Each BENCH_prN.json (N the issue number) records one change measured with
`python3 benchmark/run.py` against its parent: per workload, the
end-to-end medians of both sides ("end_to_end" -> workload -> "summary"
-> metric -> parent/change median), and the traced per-layer medians
("per_layer" -> parent/change -> metric -> median_of_N, N the number of
traced runs per side).  This script
lines those snapshots up so a metric can be followed from PR to PR: one
row per metric, one column per snapshot, each cell the change-side
median and, for end-to-end metrics, its change against that snapshot's
own parent.

Only snapshots in that schema are read: BENCH_pr12 onward.  The older
files (pr7-pr10) have their own layouts and are never opened by default;
a file named on the command line that is not in the schema is skipped
with a note on stderr.

Usage: bench_trajectory.py [FILE.json ...]
With no files, reads every BENCH_prN.json with N >= 12 at the repository
root in issue-number order.  Exit status: 0, or 1 when no snapshot is
readable.

Usage: bench_trajectory.py --rises FILE.json
Prints, as the JSON list a snapshot records under
"per_layer_rises_beyond_parent_iqr", every traced timing layer (a name
with route_ns, build_ns or build_ms in it) whose change median is above
the parent median plus the parent IQR.  Exit status: 1 when there is
any such rise, else 0.
"""

import argparse
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The first snapshot written in the schema this script reads.
FIRST_SCHEMA_ISSUE = 12
# Per-layer timings whose rises a change must fix or explain.
TIMING_LAYER = re.compile(r"route_ns|build_ns|build_ms")


def issue_number(path):
    match = re.search(r"pr(\d+)", pathlib.Path(path).name)
    return int(match.group(1)) if match else -1


def in_schema(snapshot):
    per_layer = snapshot.get("per_layer")
    return (isinstance(snapshot.get("end_to_end"), dict)
            and isinstance(per_layer, dict) and "change" in per_layer)


def median_of(value):
    return next(v for k, v in value.items() if k.startswith("median_of_"))


def metric_rows(snapshot):
    """Maps (0, workload.metric) for end-to-end and (1, metric) for
    per-layer metrics -> (change median, change vs parent or None)."""
    rows = {}
    for workload, record in snapshot["end_to_end"].items():
        for metric, summary in record.get("summary", {}).items():
            rows[(0, f"{workload}.{metric}")] = (
                summary["change"]["median"], summary.get("change_vs_parent"))
    for metric, value in snapshot["per_layer"]["change"].items():
        rows[(1, metric)] = (median_of(value), None)
    return rows


def rises(snapshot):
    """Timing layers whose change median exceeds the parent median by
    more than the parent IQR (q3 - q1), sorted by name."""
    parent = snapshot["per_layer"]["parent"]
    found = []
    for metric, value in sorted(snapshot["per_layer"]["change"].items()):
        if not TIMING_LAYER.search(metric) or metric not in parent:
            continue
        parent_median = median_of(parent[metric])
        parent_iqr = parent[metric]["q3"] - parent[metric]["q1"]
        change_median = median_of(value)
        if change_median > parent_median + parent_iqr:
            found.append({"metric": metric, "parent_median": parent_median,
                          "change_median": change_median,
                          "parent_iqr": parent_iqr})
    return found


def format_cell(cell):
    if cell is None:
        return "-"
    median, delta = cell
    text = f"{median:.4g}"
    if delta is not None:
        text += f" ({delta * 100:+.1f}%)"
    return text


def trajectory(paths):
    """Returns (column labels, [(metric, [cell per column])]): columns in
    the order of `paths`, legacy-schema files skipped; end-to-end rows
    first, then per-layer rows, each sorted by name."""
    labels = []
    columns = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        if not in_schema(snapshot):
            print(f"bench_trajectory: skipping {path} (legacy schema)",
                  file=sys.stderr)
            continue
        labels.append(f"pr{issue_number(path)}")
        columns.append(metric_rows(snapshot))
    keys = sorted({key for column in columns for key in column})
    return labels, [(name, [column.get((kind, name)) for column in columns])
                    for kind, name in keys]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*")
    parser.add_argument("--rises", metavar="FILE",
                        help="list FILE's timing layers above the parent "
                             "IQR; exit 1 if there are any")
    args = parser.parse_args(argv)
    if args.rises is not None:
        if args.files:
            parser.error("--rises takes one file and no others")
        with open(args.rises, encoding="utf-8") as handle:
            found = rises(json.load(handle))
        print(json.dumps(found, indent=1))
        return 1 if found else 0
    paths = args.files or sorted(
        (str(p) for p in ROOT.glob("BENCH_pr*.json")
         if issue_number(p) >= FIRST_SCHEMA_ISSUE), key=issue_number)
    labels, rows = trajectory(paths)
    if not labels:
        print("bench_trajectory: no readable BENCH_prN.json", file=sys.stderr)
        return 1
    width = max(len(name) for name, _ in rows)
    print("  ".join([f"{'metric':<{width}}"]
                    + [f"{label:>18}" for label in labels]))
    for name, cells in rows:
        print("  ".join([f"{name:<{width}}"]
                        + [f"{format_cell(c):>18}" for c in cells]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
