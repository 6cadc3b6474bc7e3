#!/usr/bin/env python3
"""Sanity-check perf_simulator phase profiles against wall-clock time.

The phase_*_s columns are CPU-seconds summed across shard workers, so at
threads == 1 -- where the shards run sequentially on the measuring thread
-- their sum must come back to the row's wall-clock `seconds` column.  A
large gap means a phase timer is missing (work the profile silently
omits), double-counting (nested timers on the same work), or attributing
another row's time (a profile reused across rows without resetting).

Rows are checked when they carry threads == 1 AND a non-zero phase sum;
rows of a `--obs 0` run attach no profile, emit all-zero phase columns and
are skipped, as are multi-threaded rows, where CPU-seconds exceed
wall-clock by design.

The tolerance is 10% relative plus a small absolute epsilon: the epsilon
absorbs timer granularity and the few uninstrumented microseconds between
phases on sub-millisecond rows, the relative band catches real structural
gaps on rows long enough to measure.

Usage: check_phase_sanity.py FILE.jsonl [--rel 0.10] [--abs 0.05]
Exit status: 0 when every eligible row passes, 1 otherwise.
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("path")
    parser.add_argument(
        "--rel",
        type=float,
        default=0.10,
        help="relative tolerance on |phase_sum - seconds| (default 0.10)",
    )
    parser.add_argument(
        "--abs",
        dest="abs_eps",
        type=float,
        default=0.05,
        help="absolute tolerance in seconds (default 0.05)",
    )
    args = parser.parse_args()

    failures = 0
    checked = 0
    with open(args.path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("threads") != 1:
                continue
            seconds = row.get("seconds")
            if not isinstance(seconds, (int, float)):
                continue
            phase_sum = sum(
                v
                for k, v in row.items()
                if k.startswith("phase_") and k.endswith("_s")
            )
            if phase_sum == 0.0:
                continue  # --obs 0 row: profile intentionally off
            checked += 1
            gap = abs(phase_sum - seconds)
            allowed = args.rel * seconds + args.abs_eps
            if gap > allowed:
                failures += 1
                section = row.get("section", "static")
                print(
                    f"FAIL: {args.path}:{lineno} section {section!r}: "
                    f"phase sum {phase_sum:.6f}s vs wall {seconds:.6f}s "
                    f"(gap {gap:.6f}s > allowed {allowed:.6f}s) -- a "
                    "phase timer is missing, nested, or double-counted",
                    file=sys.stderr,
                )
    if failures:
        print(f"FAIL: {failures} row(s) out of tolerance", file=sys.stderr)
        return 1
    print(
        f"OK: {checked} single-threaded row(s) have phase profiles "
        "consistent with wall-clock"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
