#!/usr/bin/env python3
"""Paired interleaved A/B benchmark runner for perf_simulator-style JSONL.

Benchmarking a perf change by timing binary A once and binary B once
confounds the change with machine drift (thermal state, page cache,
background load).  This runner de-confounds it the standard way:

 * A and B run INTERLEAVED (A B A B ...), so slow drift hits both arms
   about equally instead of landing on whichever ran second.
 * Each arm runs `--repeats` times and every metric keeps its BEST
   (maximum throughput / minimum seconds) across repeats -- best-of-N is
   the usual estimator for the noise-free cost of a deterministic
   workload, since interference can only ever make a run slower.
 * Rows are paired by (section, key columns) within each run, the same
   discipline as check_jsonl_determinism.py, and the speedup reported per
   row plus as a geometric mean over the selected rows.

Usage:
  perf_ab.py --a ./build-baseline/perf_simulator --b ./build/perf_simulator
             [--args "--threads 1 --pairs 0 ..."] [--repeats 3]
             [--metric routes_per_sec] [--section sparse_churn]
             [--filter key=value ...] [--out BENCH.json]

The A/B binaries run with identical arguments.  --filter restricts the
compared rows (e.g. --filter inflight=false keeps only sync-mode rows).
Output: a human summary on stderr and one JSON record on stdout (or to
--out), with per-row best metrics for both arms and the geomean speedup.
Exit status: 0 on success, 1 if no rows matched or a run failed.
"""

import argparse
import json
import math
import subprocess
import sys

# Identity of a row within a section: the configuration axes the repo's
# benches vary, so re-runs pair up even if row order shifts.
KEY_FIELDS = [
    "section", "geometry", "mode", "bits", "n", "n0", "pairs", "succ",
    "inflight", "k", "session", "replicas", "cache_entries",
    "threads",
]


def to_str(value):
    """JSON-style stringification, so --filter inflight=false matches the
    literal that appears in the JSONL (Python would render it 'False')."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)


def row_key(row, ignored):
    return tuple((f, to_str(row.get(f)))
                 for f in KEY_FIELDS if f in row and f not in ignored)


def parse_rows(stdout, section, filters, ignored):
    rows = {}
    for line in stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if section and row.get("section") != section:
            continue
        if any(to_str(row.get(k)) != v for k, v in filters):
            continue
        rows[row_key(row, ignored)] = row
    return rows


def run_arm(binary, args):
    proc = subprocess.run([binary] + args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"FAIL: {binary} exited {proc.returncode}\n")
        sys.stderr.write(proc.stderr)
        sys.exit(1)
    return proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="baseline binary (arm A)")
    ap.add_argument("--b", required=True, help="candidate binary (arm B)")
    ap.add_argument("--args", default="", help="arguments for both arms")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--metric", default="routes_per_sec",
                    help="row metric to compare (higher is better)")
    ap.add_argument("--section", default="",
                    help="keep only rows of this JSONL section")
    ap.add_argument("--filter", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="keep only rows where KEY stringifies to VALUE")
    ap.add_argument("--ignore", action="append", default=[], metavar="KEY",
                    help="drop KEY from the pairing identity -- for columns "
                         "one arm's (older) schema does not emit yet")
    ap.add_argument("--out", default="", help="write the JSON record here")
    opts = ap.parse_args()

    filters = []
    for item in opts.filter:
        key, _, value = item.partition("=")
        filters.append((key, value))
    ignored = frozenset(opts.ignore)
    args = opts.args.split()

    best = {"a": {}, "b": {}}
    for repeat in range(max(1, opts.repeats)):
        # Interleave the arms so machine drift is shared, not attributed.
        for arm, binary in (("a", opts.a), ("b", opts.b)):
            sys.stderr.write(
                f"[perf_ab] repeat {repeat + 1}/{opts.repeats} arm "
                f"{arm.upper()}: {binary}\n")
            rows = parse_rows(run_arm(binary, args), opts.section, filters,
                              ignored)
            for key, row in rows.items():
                metric = row.get(opts.metric)
                if not isinstance(metric, (int, float)):
                    continue
                kept = best[arm].get(key)
                if kept is None or metric > kept["metric"]:
                    best[arm][key] = {"metric": metric, "row": row}

    shared = sorted(set(best["a"]) & set(best["b"]))
    if not shared:
        sys.stderr.write("FAIL: no comparable rows between the arms\n")
        return 1
    records = []
    log_sum = 0.0
    for key in shared:
        a = best["a"][key]["metric"]
        b = best["b"][key]["metric"]
        speedup = b / a if a > 0 else float("inf")
        log_sum += math.log(speedup)
        row = best["b"][key]["row"]
        records.append({
            "key": {f: v for f, v in key},
            "baseline": a,
            "candidate": b,
            "speedup": speedup,
        })
        label = " ".join(f"{f}={v}" for f, v in key)
        sys.stderr.write(
            f"[perf_ab] {label}: {a:.1f} -> {b:.1f} ({speedup:.3f}x)\n")
    geomean = math.exp(log_sum / len(shared))
    sys.stderr.write(f"[perf_ab] geomean speedup over {len(shared)} rows: "
                     f"{geomean:.3f}x\n")
    record = {
        "bench": "perf_ab",
        "metric": opts.metric,
        "section": opts.section or None,
        "filters": [f"{k}={v}" for k, v in filters],
        "ignored_key_fields": sorted(ignored),
        "repeats": opts.repeats,
        "a": opts.a,
        "b": opts.b,
        "args": opts.args,
        "rows": records,
        "geomean_speedup": geomean,
    }
    text = json.dumps(record, indent=2) + "\n"
    if opts.out:
        with open(opts.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
