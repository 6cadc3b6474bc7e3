#!/usr/bin/env python3
"""dhtbench runner: builds dhtbench, runs the workloads, checks every
output, and prints every metric by name with its unit.

    python3 benchmark/run.py                 # all workloads + the traced run
    python3 benchmark/run.py --workload churn_sync --seed 3 --seconds 25 --trace 0

Run protocol: a run of one workload is REPS reps, each a fresh `dhtbench`
process with a budget of --seconds / REPS: a fixed number of timed
setups, an untimed warm-up of at least 0.5 s, then timed passes until the
budget is spent.  A pass is the workload's fixed set of engine calls on
the same inputs every time, on one thread.  With every workload, reps are
interleaved by rep so that host drift hits all of them alike.

Every time is scaled by the host's speed: dhtbench times a fixed reference
basket between engine calls (and around the setup), and a time t measured
between reference times averaging r is reported as t * nominal / r, i.e.
in seconds on the host the benchmark was written on; a pass's time is the
sum of its scaled calls.  The run-level value of a metric is the
median over the run's passes (run_s, routes_per_s), setups (setup_s) or
reps (peak_rss_mib), printed with the quartiles and n.  The traced run
(--trace 1, or the second half of a full run) makes one traced rep of
every workload plus the membership probe and prints the per-layer metrics.

One op is one rep.  An op fails when its process fails (including two of
its passes disagreeing), when its warm-up was shorter than MIN_WARMUP_S,
when a call breaks attempts == delivered + sum(failures), when its
counters differ from golden.json (at the golden seed), or when they differ
from the other reps of the run.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is
nonzero when an op failed.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
DHTBENCH = BUILD / "dhtbench"
RESULTS = BUILD / "results"
GOLDEN = HERE / "golden.json"
BASELINE = HERE / "baseline.json"

WORKLOADS = ("static_dense", "sparse_256k", "churn_sync", "churn_inflight")
REPS = 5
DEFAULT_SECONDS = 25.0
MIN_WARMUP_S = 0.5
GOLDEN_SEED = 1
REP_TIMEOUT_S = 120

END_TO_END = {
    "run_s": "s",
    "routes_per_s": "routes/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Per-layer metrics in these units are times, scaled by host speed like the
# end-to-end ones.
TIME_UNITS = ("ns", "ms")
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class RepFailed(Exception):
    """A rep whose process failed or whose output could not be read."""


# ------------------------------------------------------------ statistics --

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def scaled(sample, nominal_s):
    """A measured time at the host's nominal speed: the sample's wall time
    times nominal_s over the reference time measured beside it."""
    return sample["wall_s"] * nominal_s / sample["reference_s"]


def pass_time(timed_pass, nominal_s):
    """A pass's time at nominal speed: the sum of its scaled engine calls."""
    return sum(scaled(s, nominal_s) for s in timed_pass["samples"])


def verdict(base, new, bound, better):
    """Bound check of one (metric, workload) pair: `new` run values against
    `base` run values.  "regressed" when the new median is worse than the
    base median by more than `bound`; "unresolved" when the base runs spread
    wider than the bound, unless every new run reads better than every base
    run; "ok" otherwise."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse = sign * (statistics.median(new) - base_median) / base_median
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread(base) > bound and not all_better:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def format_metric(name, value, unit, stats=None):
    """One printed metric: name, value and unit, plus quartiles and n."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name: {name!r}")
    line = f"{name:<44} {value:>14.6g} {unit}"
    if stats is not None:
        line += (f"   (q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g},"
                 f" n {stats['n']})")
    return line


# ---------------------------------------------------------------- checks --

def rep_problems(rep, golden_calls):
    """Problems with one rep: a warm-up shorter than MIN_WARMUP_S, the
    conservation law on every call, and equality of its counters with the
    goldens when there are any."""
    problems = []
    if rep.get("warmup_s", MIN_WARMUP_S) < MIN_WARMUP_S:
        problems.append(f"warm-up took {rep['warmup_s']:.3f} s,"
                        f" under {MIN_WARMUP_S} s")
    calls = rep["calls"]
    for call in calls:
        if "attempts" in call:
            lost = sum(call["failures"].values())
            if call["attempts"] != call["delivered"] + lost:
                problems.append(f"{call['name']}: attempts != delivered + failures")
    if golden_calls is not None and calls != golden_calls:
        problems.append("counters differ from golden.json")
    return problems


def judge(reps, golden_calls):
    """Marks each rep ok or failed and returns the number that failed.
    Reps that ran must also agree with the counters most reps produced, bit
    for bit -- the check for seeds that have no golden."""
    canonical = [json.dumps(r["calls"], sort_keys=True)
                 for r in reps if r.get("calls") is not None]
    reference = Counter(canonical).most_common(1)[0][0] if canonical else None
    for rep in reps:
        if "error" in rep:
            rep["ok"] = False
            continue
        problems = rep_problems(rep, golden_calls)
        if json.dumps(rep["calls"], sort_keys=True) != reference:
            problems.append("counters differ from the other reps")
        rep["problems"] = problems
        rep["ok"] = not problems
    return sum(not rep["ok"] for rep in reps)


def load_golden(seed):
    if seed != GOLDEN_SEED:
        return {}
    return json.loads(GOLDEN.read_text())


# ----------------------------------------------------------------- build --

def build():
    """Configures (once) and builds dhtbench; exits nonzero without a
    result when the repository cannot be built from this directory."""
    log = sys.stderr
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not (BUILD / "Makefile").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=log, stderr=log)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "dhtbench",
                        "-j", jobs],
                       check=True, stdout=log, stderr=log)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        sys.exit(2)


# ------------------------------------------------------------------ reps --

def run_dhtbench(args):
    try:
        proc = subprocess.run([str(DHTBENCH), *args], capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"timed out after {REP_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RepFailed(f"exit {proc.returncode}: {proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RepFailed("no JSON result on stdout")


def run_rep(args):
    """One dhtbench process; a failure becomes a rep that carries its error."""
    try:
        return run_dhtbench(args)
    except RepFailed as err:
        return {"error": str(err), "calls": None}


def rep_args(workload, seed, seconds):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:.3f}"]


def timed_reps(workloads, seed, seconds):
    """REPS reps per workload, interleaved: rep 1 of every workload, then
    rep 2, and so on."""
    reps = {w: [] for w in workloads}
    for _ in range(REPS):
        for workload in workloads:
            reps[workload].append(
                run_rep(rep_args(workload, seed, seconds / REPS)))
    return reps


def end_to_end(reps, nominal_s):
    """Run-level metrics of one workload, from the reps that passed their
    checks: medians over their untraced passes, their setups, and the reps
    themselves."""
    good = [r for r in reps if r["ok"]]
    if not good:
        return {}
    passes = [pass_time(p, nominal_s) for r in good for p in r["passes"]
              if not p["traced"]]
    routes = good[0]["routes"]
    values = {
        "run_s": passes,
        "routes_per_s": [routes / t for t in passes],
        "setup_s": [scaled(s, nominal_s) for r in good for s in r["setups"]],
        "peak_rss_mib": [r["peak_rss_mib"] for r in good],
    }
    return {name: {**summary(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def traced_suite(seed, seconds):
    """One traced rep of every workload plus the membership probe, each
    writing its Chrome trace under RESULTS."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    traced = {}
    for w in WORKLOADS:
        trace = RESULTS / f"trace-{w}-seed{seed}.json"
        traced[w] = run_rep(rep_args(w, seed, seconds / len(WORKLOADS)) +
                            ["--traced", "--trace-out", str(trace)])
    trace = RESULTS / f"trace-membership-seed{seed}.json"
    traced["membership"] = run_rep(["--probe", "--seed", str(seed),
                                    "--trace-out", str(trace)])
    return traced


def per_layer(traced, nominal_s):
    """Per-layer metrics {name: (value, unit)} of the traced reps: each
    metric's median over the rep's traced passes, times scaled by the rep's
    median host speed, plus the tracing overhead -- the traced passes'
    median time over the untraced ones'."""
    layers = {}
    for workload, rep in traced.items():
        if not rep.get("ok"):
            continue
        if workload == "membership":
            reference_s = statistics.median(rep["reference_s"])
        else:
            reference_s = statistics.median(
                s["reference_s"] for p in rep["passes"] for s in p["samples"])
            times = {kind: statistics.median(
                pass_time(p, nominal_s) for p in rep["passes"]
                if p["traced"] == kind) for kind in (False, True)}
            layers[f"trace.overhead.{workload}"] = (
                times[True] / times[False], "ratio")
        speed = nominal_s / reference_s
        for name in rep["layers"][0]:
            value = statistics.median(p[name]["value"] for p in rep["layers"])
            unit = rep["layers"][0][name]["unit"]
            if unit in TIME_UNITS:
                value *= speed
            layers[name] = (value, unit)
    return layers


# -------------------------------------------------------------- manifest --

def git_sha():
    """HEAD's commit, read from .git without running git (a benchmark
    checkout need not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(seed, seconds):
    """What produced a result file: its first field."""
    build_info = run_dhtbench(["--manifest"])
    return {
        "git_sha": git_sha(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "options": build_info["options"],
        "nproc": os.cpu_count(),
        "threads": build_info["threads"],
        "seed": seed,
        "seconds": seconds,
        "reps": REPS,
        "reference": build_info["reference"],
        "workloads": build_info["workloads"],
    }


# ------------------------------------------------------------------ main --

def compare_with_baseline(results):
    """Bound check of this run against the runs of both baseline sets."""
    if not BASELINE.exists():
        return
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.loads(BASELINE.read_text())
    print(f"\nagainst {BASELINE.relative_to(ROOT)} ({baseline['host']}):")
    for workload, metrics in results.items():
        for name, stats in metrics.items():
            base = baseline["workloads"].get(workload, {}).get(name)
            if base is None:
                continue
            m = metrics_spec[name]
            result = verdict(base["runs"], [stats["median"]], m["bound"],
                             m["better"])
            print(f"  {workload:<16} {name:<14} {result}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time budget of one workload's run")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 1:
        parser.error("--seed must be a positive integer")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    build()
    record = {"manifest": manifest(args.seed, args.seconds)}
    nominal_s = record["manifest"]["reference"]["nominal_s"]
    workloads = WORKLOADS if args.workload is None else (args.workload,)
    run_timed = args.trace != 1
    run_traced = args.trace == 1 or (args.workload is None and args.trace is None)

    untraced = timed_reps(workloads, args.seed, args.seconds) if run_timed else {}
    traced = traced_suite(args.seed, args.seconds) if run_traced else {}

    golden = load_golden(args.seed)
    attempted = failed = 0
    for workload in [*untraced, *(w for w in traced if w not in untraced)]:
        reps = untraced.get(workload, []) + (
            [traced[workload]] if workload in traced else [])
        attempted += len(reps)
        failed += judge(reps, golden.get(workload))
        for rep in reps:
            for problem in rep.get("problems", []) + (
                    [rep["error"]] if "error" in rep else []):
                print(f"FAILED {workload} rep: {problem}")

    metrics = {}
    results = {}
    if run_timed:
        results = {w: end_to_end(untraced[w], nominal_s) for w in workloads}
        for workload, stats_by_name in results.items():
            print(f"\n{workload}  (seed {args.seed}, {REPS} reps,"
                  f" {args.seconds:g} s)")
            for name, stats in stats_by_name.items():
                print("  " + format_metric(name, stats["median"],
                                           stats["unit"], stats))
                key = name if args.workload else f"{workload}.{name}"
                metrics[key] = {"value": stats["median"], "unit": stats["unit"]}
        if args.workload is None:
            compare_with_baseline(results)
    if run_traced:
        print(f"\nper-layer metrics (traced run, seed {args.seed};"
              f" traces in {RESULTS.relative_to(ROOT)})")
        for name, (value, unit) in sorted(per_layer(traced, nominal_s).items()):
            print("  " + format_metric(name, value, unit))
            metrics[name] = {"value": value, "unit": unit}

    correct = failed == 0 and bool(metrics)
    record.update({"end_to_end": results, "metrics": metrics,
                   "reps": untraced, "traced_reps": traced})
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = args.workload or "all"
    trace_tag = "" if args.trace is None else f"-trace{args.trace}"
    out = RESULTS / f"{name}-seed{args.seed}{trace_tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nops {attempted}, ops_failed {failed}")
    print(f"result file: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
