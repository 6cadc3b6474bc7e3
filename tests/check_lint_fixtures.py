#!/usr/bin/env python3
"""ctest driver for scripts/lint_determinism.py.

Two halves:
  1. The fixture tree under tests/lint_fixtures/ -- one known-bad snippet
     per rule -- must produce exactly the expected findings: every bad
     fixture flags its rule, every ok fixture stays silent, the escape
     hatch suppresses and the degenerate escape hatches (missing reason,
     stale annotation) are themselves reported.
  2. The real source tree must pass clean, so the CI gate and this test
     can never drift apart.

Usage: check_lint_fixtures.py <repo-root>
"""

import json
import os
import subprocess
import sys


def run_lint(repo_root, scan_root):
    lint = os.path.join(repo_root, "scripts", "lint_determinism.py")
    proc = subprocess.run(
        [sys.executable, lint, "--root", scan_root, "--json"],
        capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        raise SystemExit(
            f"lint_determinism.py crashed (exit {proc.returncode}):\n"
            f"{proc.stdout}{proc.stderr}")
    findings = [json.loads(line) for line in proc.stdout.splitlines()
                if line.strip()]
    return proc.returncode, findings


# (path, rule) -> minimum number of findings expected in the fixture tree.
EXPECTED_FIXTURE_FINDINGS = {
    ("src/core/bad_wallclock.cpp", "wallclock"): 5,
    ("src/sim/bad_unordered.cpp", "unordered-iter"): 2,
    ("src/sim/bad_fp_merge.hpp", "fp-merge"): 2,
    ("src/sim/bad_atomic.cpp", "atomic-order"): 3,
    ("src/sim/bad_global.cpp", "kernel-global"): 1,
    ("src/churn/bad_global_kernel.hpp", "kernel-global"): 2,
    ("src/sim/bad_allow_no_reason.cpp", "allow-missing-reason"): 1,
    ("src/sim/bad_stale_allow.cpp", "allow-missing-reason"): 1,
    ("examples/bad_loose_parse.cpp", "loose-parse"): 4,
}

# Files that must produce NO findings at all.
EXPECTED_CLEAN_FIXTURES = (
    "src/obs/ok_wallclock.cpp",
    "bench/ok_wallclock.cpp",
    "src/sim/ok_allow.cpp",
    "src/sim/ok_clean.cpp",
    "src/common/ok_strict_parse.hpp",
)

# (path, rule) pairs that must NOT appear: suppressed by the escape hatch
# or scoped out by the rule definition.
FORBIDDEN_FINDINGS = (
    ("src/sim/bad_allow_no_reason.cpp", "atomic-order"),
    ("src/sim/bad_global.cpp", "wallclock"),
    ("src/sim/ok_clean.cpp", "kernel-global"),
    ("src/sim/ok_clean.cpp", "fp-merge"),
    ("src/sim/ok_clean.cpp", "atomic-order"),
)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    repo_root = os.path.abspath(sys.argv[1])
    fixture_root = os.path.join(repo_root, "tests", "lint_fixtures")
    failures = []

    # ---- fixture half ---------------------------------------------------
    exit_code, findings = run_lint(repo_root, fixture_root)
    if exit_code != 1:
        failures.append(
            f"fixture tree should exit 1 (findings present), got {exit_code}")
    counts = {}
    for finding in findings:
        counts[(finding["path"], finding["rule"])] = (
            counts.get((finding["path"], finding["rule"]), 0) + 1)

    for (path, rule), minimum in EXPECTED_FIXTURE_FINDINGS.items():
        got = counts.get((path, rule), 0)
        if got < minimum:
            failures.append(
                f"{path}: expected >= {minimum} [{rule}] finding(s), got {got}")
    for path in EXPECTED_CLEAN_FIXTURES:
        hits = [(p, r) for (p, r) in counts if p == path]
        if hits:
            failures.append(f"{path}: expected clean, got {hits}")
    for path, rule in FORBIDDEN_FINDINGS:
        if (path, rule) in counts:
            failures.append(f"{path}: rule [{rule}] must not fire here")

    # Every finding must name a fixture file that exists -- catches path
    # normalization bugs in the lint itself.
    for finding in findings:
        if not os.path.exists(os.path.join(fixture_root, finding["path"])):
            failures.append(f"finding names missing file: {finding['path']}")

    # ---- real-tree half -------------------------------------------------
    exit_code, findings = run_lint(repo_root, repo_root)
    if exit_code != 0 or findings:
        detail = "\n".join(
            f"  {f['path']}:{f['line']}: [{f['rule']}] {f['message']}"
            for f in findings)
        failures.append(
            f"real source tree must pass the determinism lint clean "
            f"(exit {exit_code}):\n{detail}")

    if failures:
        print("check_lint_fixtures: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("check_lint_fixtures: OK "
          f"({len(EXPECTED_FIXTURE_FINDINGS)} bad fixtures flagged, "
          f"{len(EXPECTED_CLEAN_FIXTURES)} ok fixtures clean, real tree clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
