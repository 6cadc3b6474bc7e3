#!/usr/bin/env python3
"""Compare two perf_simulator JSONL runs for result determinism.

The parallel engines promise bit-identical *results* at any thread count;
only scheduling-dependent fields (timings, throughputs, the thread count
itself) may differ between a 2-thread and an 8-thread run.  This script
pairs the two files row by row WITHIN each section and fails on any
difference outside the exempt set -- a routability, hop-statistic, load or
cache-rate drift between thread counts is a determinism bug, full stop.

Rows are grouped by their "section" field (rows without one form the
"static" section) before pairing.  A section present in only one file is
reported as exactly that -- a configuration mismatch (a section disabled by
flags such as --sparse-n-max 0 on one side), not as the off-by-hundreds
row-count noise the old line-by-line pairing produced.

Every numeric value must also be finite -- INCLUDING exempt and ignored
columns: printf renders uninitialized or divided-by-zero doubles as bare
nan/inf, which is both invalid JSON and a sign the engine emitted garbage,
so it fails the check with the offending line named.  Exemption waives the
equality comparison, never the sanity gate.

--ignore-columns REGEX extends the exempt set with every column whose name
fully matches REGEX (repeatable; matches are unioned).  CI uses it to
waive the phase-timing columns ('phase_.*_s'), which are CPU-seconds and
scheduling-dependent by nature -- while the failure-taxonomy counts
(fail_*, hop_limit_hits) stay under the exact-match gate, where they
belong: they are integer counters merged in shard order.

Usage: check_jsonl_determinism.py [--ignore-columns REGEX]... A.jsonl B.jsonl
Exit status: 0 identical (modulo exempt fields), 1 otherwise.
"""

import argparse
import json
import math
import re
import sys

# Scheduling-dependent by design; everything else must match exactly.
EXEMPT = {
    "threads",
    "seconds",
    "build_seconds",
    "routes_per_sec",
    "route_phase_routes_per_sec",
    "shard_rounds_per_sec",
    "identical_across_threads",  # trivially true in a single-entry sweep
}


def is_exempt(key, ignore_patterns):
    return key in EXEMPT or any(p.fullmatch(key) for p in ignore_patterns)


def load_sections(path, ignore_patterns):
    """Parses one JSONL file into {section: [canonical rows]}, first-seen
    section order preserved.  Canonical rows drop the exempt fields.  Exits
    with a diagnostic on malformed JSON or non-finite numerics (the
    load_cv/cache_hit_rate/availability columns are doubles and must never
    be nan/inf); the finiteness gate covers exempt and ignored columns
    too."""
    sections = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as err:
                print(
                    f"FAIL: {path}:{lineno} is not valid JSON ({err}); "
                    "bare nan/inf from printf means the engine emitted a "
                    "non-finite metric",
                    file=sys.stderr,
                )
                sys.exit(1)
            for key, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    print(
                        f"FAIL: {path}:{lineno} field {key!r} is "
                        f"non-finite ({value})",
                        file=sys.stderr,
                    )
                    sys.exit(1)
            canonical = {
                k: v
                for k, v in row.items()
                if not is_exempt(k, ignore_patterns)
            }
            sections.setdefault(row.get("section", "static"), []).append(
                canonical
            )
    return sections


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--ignore-columns",
        action="append",
        default=[],
        metavar="REGEX",
        help="additionally exempt columns whose name fully matches REGEX "
        "(repeatable); the nan/inf gate still applies to them",
    )
    parser.add_argument("path_a")
    parser.add_argument("path_b")
    args = parser.parse_args()
    try:
        ignore_patterns = [re.compile(p) for p in args.ignore_columns]
    except re.error as err:
        print(f"FAIL: bad --ignore-columns regex: {err}", file=sys.stderr)
        return 2
    path_a, path_b = args.path_a, args.path_b
    sections_a = load_sections(path_a, ignore_patterns)
    sections_b = load_sections(path_b, ignore_patterns)

    # Differing section sets are a configuration mismatch (one run had a
    # section disabled), not a determinism failure of the shared rows --
    # but the comparison is meaningless, so diagnose and fail loudly.
    only_a = [s for s in sections_a if s not in sections_b]
    only_b = [s for s in sections_b if s not in sections_a]
    if only_a or only_b:
        for section in only_a:
            print(
                f"FAIL: section {section!r} appears only in {path_a}; the "
                f"{path_b} run disabled it (flag mismatch, e.g. "
                "--sparse-n-max 0 or --*-rounds 0)",
                file=sys.stderr,
            )
        for section in only_b:
            print(
                f"FAIL: section {section!r} appears only in {path_b}; the "
                f"{path_a} run disabled it (flag mismatch, e.g. "
                "--sparse-n-max 0 or --*-rounds 0)",
                file=sys.stderr,
            )
        return 1

    failures = 0
    total = 0
    for section, rows_a in sections_a.items():
        rows_b = sections_b[section]
        if len(rows_a) != len(rows_b):
            print(
                f"FAIL: section {section!r} has {len(rows_a)} rows in "
                f"{path_a} but {len(rows_b)} in {path_b} (different sweep "
                "grids or thread lists?)",
                file=sys.stderr,
            )
            failures += 1
            continue
        total += len(rows_a)
        for i, (ca, cb) in enumerate(zip(rows_a, rows_b), start=1):
            if ca != cb:
                failures += 1
                diff_keys = sorted(
                    k
                    for k in set(ca) | set(cb)
                    if ca.get(k) != cb.get(k)
                )
                print(
                    f"FAIL: section {section!r} row {i} differs in "
                    f"{diff_keys}",
                    file=sys.stderr,
                )
                print(f"  {path_a}: {ca}", file=sys.stderr)
                print(f"  {path_b}: {cb}", file=sys.stderr)
    if failures:
        print(f"FAIL: {failures} mismatch(es)", file=sys.stderr)
        return 1
    print(
        f"OK: {total} rows across {len(sections_a)} section(s) identical "
        "modulo scheduling fields"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
