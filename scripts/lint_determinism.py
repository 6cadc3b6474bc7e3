#!/usr/bin/env python3
"""Repo-specific determinism lint.

Every result this repository reports rests on one invariant: estimates are
exact-integer, shard-order-merged, and bit-identical at any thread count.
The dynamic gates (2-vs-8-thread JSONL diffs, golden-pinned counters) catch
violations only probabilistically -- a wall-clock read or an unordered-map
iteration can survive thousands of runs before it flips a golden.  This
checker fails CI on the bug *classes* instead:

  wallclock      rand()/srand()/std::random_device/time()/clock()/
                 gettimeofday/clock_gettime and std::chrono wall-clock
                 reads outside src/obs/ and bench/.  All randomness must
                 come from math/rng.hpp lineages; all timing belongs to
                 the observability layer or the bench harnesses.
  unordered-iter std::unordered_map / std::unordered_set mentioned inside
                 a function whose name contains `merge` or `estimate`.
                 Hash-container iteration order is unspecified, so any
                 merge/estimate path touching one is order-dependent by
                 construction.
  fp-merge       float / double inside a member function named `merge`,
                 or a reference there to a floating-point data member of
                 the enclosing class.
                 Merges must stay exact-integer: FP addition is not
                 associative, so shard-order reduction would stop being
                 bit-identical across thread counts.
  atomic-order   an atomic operation (.load/.store/.exchange/.fetch_*/
                 .compare_exchange_*) without an explicit std::memory_order
                 argument.  The concurrency contract here is "commutative
                 relaxed adds only"; every deviation must be spelled out
                 (and is then visible to review and to ThreadSanitizer
                 triage).
  kernel-global  mutable namespace-scope state in a kernel translation
                 unit (*.cpp under src/sim, src/sparse, src/churn,
                 src/core).  Kernel TUs are re-entered concurrently by the
                 shard pool; any mutable global is either a data race or a
                 hidden cross-shard channel that breaks replayability.
  loose-parse    atoi/atof/atol/atoll, strto{l,ll,ul,ull,f,d,ld} or
                 std::sto* in bench/ and examples/.  They read "5x" as 5
                 and "abc" as 0, so a mistyped argument silently runs a
                 different config; the programs parse through
                 src/common/flags.hpp, which takes the whole argument or
                 rejects it.

Escape hatch: an intentional exception carries, on the same line or the
line directly above, a self-documenting annotation

    // lint:allow(<rule>) <reason>

The reason is mandatory; an annotation without one is itself reported
(rule `allow-missing-reason`).

Exit status 0 when no findings, 1 otherwise.  `--json` emits findings as
one JSON object per line for tooling.
"""

import argparse
import json
import os
import re
import sys

RULES = {
    "wallclock": "wall-clock / ambient randomness outside src/obs/ and bench/",
    "unordered-iter": "unordered container in a merge/estimate path",
    "fp-merge": "floating point inside a merge() member",
    "atomic-order": "atomic operation without an explicit std::memory_order",
    "kernel-global": "mutable namespace-scope state in a kernel TU",
    "loose-parse": "lenient number parsing in bench/ or examples/",
    "allow-missing-reason": "lint:allow annotation without a reason",
}

# Directories scanned, relative to the repo root.
SCAN_DIRS = ("src", "bench", "examples")
SOURCE_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")

# Path prefixes (forward-slash, root-relative) exempt from `wallclock`:
# the observability layer exists to read clocks, and the bench harnesses
# time themselves by design.
WALLCLOCK_EXEMPT_PREFIXES = ("src/obs/", "bench/")

# Kernel TUs for `kernel-global`: translation units the shard pool
# re-enters concurrently.
KERNEL_TU_PREFIXES = ("src/sim/", "src/sparse/", "src/churn/", "src/core/")

# Program trees for `loose-parse`: their numbers come from the command
# line and must go through src/common/flags.hpp.
LOOSE_PARSE_PREFIXES = ("bench/", "examples/")
LOOSE_PARSE_PATTERN = re.compile(
    r"(?<![\w.>:])(?:std::)?"
    r"\b(atoi|atof|atol|atoll|strto(?:l|ll|ul|ull|f|d|ld)"
    r"|sto(?:i|l|ll|ul|ull|f|d|ld))\s*\(")

WALLCLOCK_PATTERNS = [
    re.compile(p)
    for p in (
        r"\bstd::random_device\b",
        r"(?<![\w:])s?rand\s*\(",          # rand() / srand(); not strtoull etc.
        r"(?<![\w:.>])time\s*\(",          # time(NULL)-style; not world.time(...)
        r"(?<![\w:.>])clock\s*\(\s*\)",
        r"\bgettimeofday\s*\(",
        r"\bclock_gettime\s*\(",
        r"\bstd::chrono::(steady_clock|system_clock|high_resolution_clock)::now\b",
    )
]

UNORDERED_PATTERN = re.compile(r"\bstd::unordered_(map|set|multimap|multiset)\b")
FP_PATTERN = re.compile(r"\b(float|double)\b")
MERGE_ESTIMATE_NAME = re.compile(r"(merge|estimate)", re.IGNORECASE)

# Atomic member calls.  `.load(` / `.store(` etc. are rare enough as
# non-atomic method names in this codebase that a match is worth a look;
# false positives take a lint:allow with the reason saying so.
ATOMIC_CALL = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or"
    r"|fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\("
)
MEMORY_ORDER = re.compile(r"\bstd::memory_order")

ALLOW_PATTERN = re.compile(r"//\s*lint:allow\(([\w-]+)\)\s*(.*)")

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else"}


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving newlines
    and column positions so line numbers survive.  lint:allow annotations
    are collected from comments before they are blanked."""
    out = []
    allows = {}  # line number -> (rule, reason, annotation line)
    i = 0
    n = len(text)
    line = 1
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    comment_buf = []
    comment_line = 0

    def flush_comment():
        buf = "".join(comment_buf)
        m = ALLOW_PATTERN.search("//" + buf if state == "line_comment" else buf)
        if m:
            allows[comment_line] = (m.group(1), m.group(2).strip())
        comment_buf.clear()

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                comment_line = line
                comment_buf.clear()
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                comment_line = line
                comment_buf.clear()
                out.append("  ")
                i += 2
                continue
            if c == '"':
                if out and re.search(r"R$", "".join(out[-8:]).strip()):
                    m = re.match(r'R"([^(]*)\(', text[i - 1 : i + 18])
                    if m:
                        state = "raw"
                        raw_delim = ")" + m.group(1) + '"'
                        out.append(c)
                        i += 1
                        continue
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                flush_comment()
                state = "code"
                out.append(c)
            else:
                comment_buf.append(c)
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                flush_comment()
                state = "code"
                out.append("  ")
                i += 2
                continue
            comment_buf.append(c)
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                if nxt == "\n":
                    line += 1
                    out[-1] = " \n"
                continue
            if c == '"':
                state = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(raw_delim)
                i += len(raw_delim)
                continue
            out.append(c if c == "\n" else " ")
        if c == "\n":
            line += 1
        i += 1
    if state == "line_comment":
        flush_comment()
    return "".join(out), allows


def classify_brace(header):
    """Classify the construct a `{` opens from the statement text before
    it: 'namespace', 'class', 'function' (name attached), or 'other'."""
    header = header.strip()
    if re.search(r"\bnamespace\b[^=]*$", header):
        return ("namespace", None)
    cm = re.search(r"\b(?:class|struct|union|enum)\s+(?:\w+\s+)*?([\w:]+)"
                   r"(?:\s*final)?(?:\s*:[^;{]*)?$", header)
    if cm:
        return ("class", cm.group(1).split("::")[-1])
    if re.search(r"\b(class|struct|union|enum)\b(?!.*[)(])[^;]*$", header):
        return ("class", None)
    # A function definition header ends with a parameter list followed by
    # optional qualifiers / trailing return / initializer list.
    m = re.search(
        r"([~\w][\w:~]*)\s*(<[^<>]*>)?\s*\(",
        header,
    )
    if m and header.rstrip().endswith((")", "const", "noexcept", "override",
                                       "final", "try")) or (
        m and re.search(r"->\s*[\w:<>&*\s]+$", header)
    ) or (m and re.search(r"\)\s*:\s*[\w_]", header)):
        name = m.group(1).split("::")[-1]
        if name in CONTROL_KEYWORDS:
            return ("other", None)
        return ("function", name)
    return ("other", None)


class Scope:
    def __init__(self, kind, name=None):
        self.kind = kind  # namespace | class | function | other
        self.name = name


def line_of(pos, line_starts):
    """1-based line for offset `pos` given sorted line start offsets."""
    lo, hi = 0, len(line_starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if line_starts[mid] <= pos:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def lint_text(rel_path, raw_text):
    """Yield Finding objects for one file.  `rel_path` is root-relative
    with forward slashes; path-scoped rules key off it."""
    code, allows = strip_comments_and_strings(raw_text)
    line_starts = [0]
    for m in re.finditer(r"\n", code):
        line_starts.append(m.end())

    findings = []
    used_allows = set()

    def allowed(lineno, rule):
        for cand in (lineno, lineno - 1):
            entry = allows.get(cand)
            if entry and entry[0] == rule:
                used_allows.add(cand)
                if not entry[1]:
                    findings.append(
                        Finding(rel_path, cand, "allow-missing-reason",
                                f"lint:allow({rule}) needs a reason"))
                return True
        return False

    def report(pos, rule, message):
        lineno = line_of(pos, line_starts)
        if not allowed(lineno, rule):
            findings.append(Finding(rel_path, lineno, rule, message))

    # ---- wallclock ------------------------------------------------------
    if not rel_path.startswith(WALLCLOCK_EXEMPT_PREFIXES):
        for pat in WALLCLOCK_PATTERNS:
            for m in pat.finditer(code):
                report(
                    m.start(), "wallclock",
                    f"`{m.group(0).strip()}` -- ambient time/randomness is "
                    "nondeterministic; use math/rng.hpp lineages, or move "
                    "timing into src/obs//bench")

    # ---- loose-parse ----------------------------------------------------
    if rel_path.startswith(LOOSE_PARSE_PREFIXES):
        for m in LOOSE_PARSE_PATTERN.finditer(code):
            report(
                m.start(), "loose-parse",
                f"`{m.group(1)}` accepts a partial or empty number; parse "
                "through src/common/flags.hpp")

    # ---- scope-dependent rules ------------------------------------------
    # One linear pass maintaining a scope stack.  It records function-body
    # spans (for the merge/estimate context rules), class-body spans plus
    # each class's floating-point data members (for the member-accumulation
    # half of fp-merge), and checks namespace-scope statements in kernel
    # TUs as they close.
    stack = []
    is_kernel_tu = rel_path.startswith(KERNEL_TU_PREFIXES) and rel_path.endswith(
        (".cpp", ".cc"))
    stmt_start = 0
    header_start = 0
    fn_spans = []      # (start, end, function name)
    class_spans = []   # (start, end, class name)
    open_fns = []
    open_classes = []
    fp_members = {}    # class name -> set of fp member names

    def namespace_scope_only():
        return all(s.kind == "namespace" for s in stack)

    def directly_in_class():
        return stack and stack[-1].kind == "class" and stack[-1].name

    def check_statement(text, pos):
        stmt = text.strip()
        if not stmt or stmt.startswith("#"):
            return
        # Point findings (and lint:allow adjacency) at the first token of
        # the statement, not at the whitespace after the previous one.
        pos += len(text) - len(text.lstrip())
        # Floating-point data members of the innermost class.
        if directly_in_class():
            dm = re.match(
                r"(?:static\s+|mutable\s+)*(?:long\s+)?(float|double)\s+"
                r"(.+)$", stmt, re.DOTALL)
            if dm and "(" not in stmt:
                declarators = re.sub(r"\[[^\]]*\]", "", dm.group(2))
                # Cut at the first initializer: `a = 1, b = 2` keeps only
                # `a`, an accepted imprecision for a lint.
                declarators = re.split(r"[={]", declarators, 1)[0]
                names = []
                for decl in declarators.split(","):
                    decl = decl.strip().lstrip("*&")
                    if re.fullmatch(r"[A-Za-z_]\w*", decl):
                        names.append(decl)
                if names:
                    fp_members.setdefault(stack[-1].name, set()).update(names)
            return
        # Mutable namespace-scope state in kernel TUs.
        if not is_kernel_tu or not namespace_scope_only():
            return
        first = stmt.split(None, 1)[0]
        if first in {"using", "typedef", "template", "extern", "friend",
                     "static_assert", "namespace", "class", "struct",
                     "union", "enum", "return"}:
            return
        if re.search(r"\b(const|constexpr|constinit)\b", stmt):
            return
        # Function declarations / prototypes end with `)` (possibly plus
        # qualifiers) and carry no initializer.
        if "=" not in stmt and re.search(r"\)\s*(noexcept\s*)?$", stmt):
            return
        # A variable definition: optional static/thread_local, a type, a
        # name, then an initializer or a bare `;`-terminated declarator.
        if re.match(
            r"(static\s+|thread_local\s+)*[\w:<>,*&\s\[\]]+?[\w\]]\s*"
            r"(=|\{|;?$)", stmt,
        ) and not re.search(r"\boperator\b", stmt):
            report(pos, "kernel-global",
                   "mutable namespace-scope state in a kernel TU -- shard "
                   "workers re-enter this TU concurrently; make it const/"
                   "constexpr, function-local, or per-shard")

    i = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "{":
            kind, name = classify_brace(code[header_start:i])
            stack.append(Scope(kind, name))
            if kind == "function":
                open_fns.append((i, name))
            elif kind == "class":
                open_classes.append((i, name))
            if kind != "other":
                header_start = i + 1
                stmt_start = i + 1
        elif c == "}":
            if stack:
                top = stack.pop()
                if top.kind == "function" and open_fns:
                    start, name = open_fns.pop()
                    fn_spans.append((start, i, name))
                elif top.kind == "class" and open_classes:
                    start, name = open_classes.pop()
                    class_spans.append((start, i, name))
                if top.kind != "other":
                    header_start = i + 1
                    stmt_start = i + 1
            else:
                header_start = i + 1
                stmt_start = i + 1
        elif c == ";":
            check_statement(code[stmt_start:i], stmt_start)
            stmt_start = i + 1
            header_start = i + 1
        i += 1

    def enclosing(spans, pos):
        best = None
        for start, end, name in spans:
            if start <= pos <= end and (best is None or start > best[0]):
                best = (start, name)
        return best[1] if best else None

    # ---- unordered-iter --------------------------------------------------
    for m in UNORDERED_PATTERN.finditer(code):
        fn = enclosing(fn_spans, m.start())
        if fn and MERGE_ESTIMATE_NAME.search(fn):
            report(
                m.start(), "unordered-iter",
                f"std::unordered_{m.group(1)} inside `{fn}` -- hash-container "
                "iteration order is unspecified; merge/estimate paths must "
                "use ordered or index-addressed containers")

    # ---- fp-merge --------------------------------------------------------
    # (a) float/double tokens declared or named inside a merge() body.
    for m in FP_PATTERN.finditer(code):
        fn = enclosing(fn_spans, m.start())
        if fn == "merge":
            report(
                m.start(), "fp-merge",
                f"`{m.group(1)}` inside a merge() member -- FP addition is "
                "not associative, so shard-order reduction stops being "
                "bit-identical; keep merges exact-integer")
    # (b) references to a floating-point data member of the enclosing
    # class inside that class's merge() body -- catches accumulation that
    # never names the type (`seconds[i] += other.seconds[i]`).
    for start, end, fn_name in fn_spans:
        if fn_name != "merge":
            continue
        cls = enclosing(class_spans, start)
        members = fp_members.get(cls, ()) if cls else ()
        if not members:
            continue
        body = code[start:end]
        for member in sorted(members):
            for m in re.finditer(r"\b" + re.escape(member) + r"\b", body):
                report(
                    start + m.start(), "fp-merge",
                    f"merge() of `{cls}` touches floating-point member "
                    f"`{member}` -- FP accumulation across shards is "
                    "order-dependent; keep merged state exact-integer")
                break  # one finding per member is enough

    # ---- atomic-order ----------------------------------------------------
    for m in ATOMIC_CALL.finditer(code):
        # Grab the balanced argument list (bounded lookahead).
        depth = 0
        j = m.end() - 1
        end = min(n, j + 400)
        args_end = end
        while j < end:
            if code[j] == "(":
                depth += 1
            elif code[j] == ")":
                depth -= 1
                if depth == 0:
                    args_end = j
                    break
            j += 1
        args = code[m.end(): args_end]
        if not MEMORY_ORDER.search(args):
            report(
                m.start(), "atomic-order",
                f".{m.group(1)}() without an explicit std::memory_order -- "
                "the default is seq_cst; this codebase documents every "
                "atomic's ordering at the call site (relaxed for the "
                "commutative counters)")

    # Unused lint:allow annotations are stale documentation; flag them so
    # they get cleaned up when the exception disappears.
    for lineno, (rule, _reason) in sorted(allows.items()):
        if lineno in used_allows:
            continue
        if rule not in RULES:
            findings.append(
                Finding(rel_path, lineno, "allow-missing-reason",
                        f"lint:allow names unknown rule `{rule}`"))
        else:
            findings.append(
                Finding(rel_path, lineno, "allow-missing-reason",
                        f"stale lint:allow({rule}): nothing on this or the "
                        "next line trips that rule"))
    return findings


def iter_source_files(root):
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for filename in sorted(filenames):
                if filename.endswith(SOURCE_EXTENSIONS):
                    full = os.path.join(dirpath, filename)
                    rel = os.path.relpath(full, root).replace(os.sep, "/")
                    yield full, rel


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (scans src/, bench/, examples/)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON lines")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("files", nargs="*",
                        help="lint only these root-relative files")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in RULES.items():
            print(f"{rule}: {description}")
        return 0

    if args.files:
        targets = [(os.path.join(args.root, f), f.replace(os.sep, "/"))
                   for f in args.files]
    else:
        targets = list(iter_source_files(args.root))

    findings = []
    for full, rel in targets:
        try:
            with open(full, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError as err:
            print(f"error: cannot read {full}: {err}", file=sys.stderr)
            return 2
        findings.extend(lint_text(rel, text))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        if args.json:
            print(json.dumps({"path": finding.path, "line": finding.line,
                              "rule": finding.rule,
                              "message": finding.message}))
        else:
            print(finding)
    if findings:
        print(f"{len(findings)} determinism-lint finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
