#!/usr/bin/env python3
"""Doc-drift check: keeps the markdown tree honest as the code moves.

Nine classes of rot are caught:

  1. Broken intra-repo links — every relative markdown link (and image)
     in the repo's *.md files must resolve to an existing file.
  2. Stale CLI flags — every `--flag` that appears in a code span or
     fenced block mentioning one of the CLI tools (tmotif_count,
     tmotif_stream) must appear in that tool's --help output.
  3. Missing required sections — load-bearing doc sections that code or
     tests reference by topic (the fast-path dispatch table, the batch
     sink surface, which configs use the store) must keep existing; a refactor
     that drops one fails here instead of silently orphaning the
     references.
  4. A stale checkpoint layout — docs/RESILIENCE.md must say "The
     current version is N" for the kCheckpointFormatVersion N declared in
     src/stream/checkpoint.h, and "u32 field count (M)" for the size M
     declared by `std::array<IngestStatField, M> kIngestStatFields` in
     src/stream/streaming_counter.h (the checkpoint's stats block).
  5. Stale metric names — every backticked `stream.*` name in the
     `stream.*` section of docs/OBSERVABILITY.md's metric catalog must
     appear in the metrics dump of a tmotif_stream replay of the bundled
     sample (--metrics-out=- --metrics-format=jsonl).
  6. The same for every backticked `counting.*` name in the catalog's
     `counting.*` section, against the union of two tmotif_count
     --metrics-out=- dumps of the bundled sample (a fast-path config and a
     DFS config). The dumps are Prometheus text: a name matches as
     `tmotif_` + the name with `.` → `_`, a histogram on its `_count` line.
  7. Dangling source paths — every backticked repo path with a directory
     part in docs/*.md and README.md (`stream/window_graph.h`,
     `tests/stream_test.cc`, `src/core/`; a `*` matches as a glob) must
     exist, resolved from the repo root or from src/. Only a span that
     is wholly a path counts: directories, and files with an extension.
  8. Deleted code symbols — every backticked C++ symbol in docs/*.md and
     README.md (a CamelCase name such as `WindowCounter`, optionally
     followed by `::Member` or `()`) must occur as an identifier in src/,
     tools/, tests/, pipebench/ or CMakeLists.txt; for `Name::Member`
     both names must.
  9. Unreached code — every file under src/ outside src/testing/ must
     be reached through `#include "..."` from a file under tools/, bench/
     or pipebench/, directly or through other reached files; a reached
     header brings in its same-stem .cc. Examples and tests do not count,
     so a module only they include is code no product runs. And every
     namespace-scope function declared in a header under src/ (outside
     src/testing/) must be called from src/, tools/, bench/, examples/ or
     pipebench/. That check is by name, with comments and string literals
     stripped: any occurrence of the name other than a namespace-scope
     declaration or definition counts as a call (one inside the
     function's own .cc too), and tests/ does not count.

Usage:
  tools/check_docs.py [--repo-root DIR] [--bin-dir BUILDDIR]

Without --bin-dir only the link, section, checkpoint-version, path,
symbol and module checks run (useful before building); CI passes the build
directory so the flag and metric-name checks run against the real
binaries. Exit status is nonzero on any finding.
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

TOOLS = ("tmotif_count", "tmotif_stream")

# Markdown files at the repo root other than README.md are planning and
# reference documents: they name flags that do not exist yet (proposals)
# or no longer exist (removals, history); only their links are checked.
USER_FACING_ROOT_DOCS = ("README.md",)


def is_planning_doc(rel_path):
    return (os.path.dirname(rel_path) == ""
            and rel_path not in USER_FACING_ROOT_DOCS)


# Sections other artifacts depend on staying put, keyed by doc path
# (relative to the repo root). Values are literal substrings that must
# appear in the file — section headings plus the contract names the code
# comments point readers at.
REQUIRED_SECTIONS = {
    "docs/PERFORMANCE.md": (
        "## Specialized k ≤ 3 counting fast paths (core/fast_paths/)",
        "### The dispatch table",
        "| k = 3, `max_nodes == 3`, kStatic (Paranjape et al.; "
        "Hulovatyy et al.) | yes | yes (per gap) | no — DFS |",
        "batch sink surface",
        "window-difference identity",
        "## Performance gate (tools/pipebench_gate.py)",
        "## Threads (core/parallel.h)",
    ),
    "docs/ARCHITECTURE.md": (
        "core/fast_paths",
        "EmitBatch",
    ),
    "docs/STREAMING.md": (
        "#### Which configs use the store",
        "#### The store-off state",
    ),
    "docs/RESILIENCE.md": (
        "## Checkpoint format",
        "Versions 2 to 6 are rejected",
        "## Degradation state machine",
        "## Fault-point catalog",
        "stream.store_mode",
        "checkpoint.short_write",
    ),
    "docs/OBSERVABILITY.md": (
        "## Metric catalog",
        "## Phase tracing",
        "## Exporters",
        "## Telemetry cost",
        "latency_ns",
        "MASK_TIMING",
    ),
}

# Relative markdown links/images: [text](target) where target is not a URL
# or a pure intra-page anchor.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"(--[a-z][a-z0-9-]*)")
FENCE_RE = re.compile(r"^```")
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
CHECKPOINT_VERSION_RE = re.compile(
    r"kCheckpointFormatVersion\s*=\s*(\d+)\s*;")
STAT_FIELDS_RE = re.compile(
    r"std::array<\s*IngestStatField\s*,\s*(\d+)\s*>\s*kIngestStatFields")
HEADING_RE = re.compile(r"^#{1,6} ")
# A code span that is wholly a repo path: one or more directory parts,
# then nothing (a directory) or a file name with an extension.
REPO_PATH_RE = re.compile(r"^(?:[\w.-]+/)+(?:[\w*.-]*\.\w+)?$")
# A code span that is wholly a C++ symbol: a CamelCase name (two or more
# capitalised words), optionally `::Member`, optionally `()`.
CODE_SYMBOL_RE = re.compile(
    r"^([A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+)(?:::([A-Za-z_]\w*))?(?:\(\))?$")
IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")
# Where a documented symbol must still occur (markdown there is prose).
CODE_DIRS = ("src", "tools", "tests", "pipebench")
STREAM_CATALOG_HEADING = "### `stream.*`"
STREAM_METRIC_RE = re.compile(r"`(stream\.[a-z0-9_]+)`")
COUNTING_CATALOG_HEADING = "### `counting.*`"
COUNTING_METRIC_RE = re.compile(r"`(counting\.[a-z0-9_]+)`")
# The replay whose metrics dump the catalog's stream.* names are checked
# against (every stream.* metric is registered on the first batch).
STREAM_METRICS_ARGS = ("--model=paranjape", "--k=3", "--dw=600",
                       "--window-events=8", "--batch=2", "--metrics-out=-",
                       "--metrics-format=jsonl")
# The two counts whose metrics dumps, together, register every counting.*
# metric: Paranjape et al. runs the k <= 3 fast path, Kovanen et al.
# (consecutive events, an order predicate) the DFS engine.
COUNTING_METRICS_RUNS = (("--model=paranjape", "--k=3", "--dw=600"),
                         ("--model=kovanen", "--k=3", "--dc=300"))
# The product: every module under src/ (outside src/testing/) must be
# reached by #include from these, not only from examples/ or tests/.
PRODUCT_DIRS = ("tools", "bench", "pipebench")
CPP_EXTENSIONS = (".h", ".cc", ".cpp")
INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.M)
# Where a function declared in a src/ header must be called from.
CALLER_DIRS = ("src", "tools", "bench", "examples", "pipebench")
COMMENT_OR_LITERAL_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', re.S)
PREPROCESSOR_RE = re.compile(r'^[ \t]*#(?:[^\n]*\\\n)*[^\n]*', re.M)
# The name a `(` at namespace scope opens the parameter list of: the last
# identifier before it, unqualified (a `Class::Member` definition is not a
# namespace-scope function).
DECLARATOR_RE = re.compile(r'(?<![\w:~.>])([A-Za-z_]\w*)\s*\($')
NAMESPACE_HEAD_RE = re.compile(r'\s*(?:inline\s+)?namespace\b|\s*extern\s*""\s*$')
NOT_FUNCTIONS = ("operator", "static_assert", "decltype", "sizeof", "alignof",
                 "alignas", "noexcept")
NOT_DECLARATIONS = ("using", "typedef", "class", "struct", "enum", "union",
                    "friend", "return")


def find_markdown_files(root):
    out = []
    skip_dirs = {".git", "build", ".github"}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip_dirs
                       and not d.startswith("build")]
        for name in filenames:
            if name.endswith(".md"):
                out.append(os.path.join(dirpath, name))
    return sorted(out)


def check_links(md_files, root, errors):
    for path in md_files:
        base = os.path.dirname(path)
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for target in LINK_RE.findall(line):
                    if target.startswith(("http://", "https://", "mailto:",
                                          "#")):
                        continue
                    resolved = os.path.normpath(
                        os.path.join(base, target.split("#")[0]))
                    if not os.path.exists(resolved):
                        errors.append(
                            f"{os.path.relpath(path, root)}:{lineno}: "
                            f"broken link -> {target}")


def tool_help(bin_dir, tool, errors):
    binary = os.path.join(bin_dir, tool)
    if not os.path.exists(binary):
        errors.append(f"flag check: binary not found: {binary} "
                      f"(build the tools first)")
        return None
    try:
        proc = subprocess.run([binary, "--help"], capture_output=True,
                              text=True, timeout=30)
    except OSError as e:
        errors.append(f"flag check: cannot run {binary}: {e}")
        return None
    return proc.stdout + proc.stderr


def iter_code_snippets(path):
    """Yields (lineno, text) for fenced-block lines and inline code spans."""
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if FENCE_RE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                yield lineno, line
            else:
                for span in INLINE_CODE_RE.findall(line):
                    yield lineno, span


def check_flags(md_files, root, bin_dir, errors):
    helps = {}
    for tool in TOOLS:
        text = tool_help(bin_dir, tool, errors)
        if text is not None:
            helps[tool] = text
    if not helps:
        return
    for path in md_files:
        if is_planning_doc(os.path.relpath(path, root)):
            continue
        current_tool = None  # Carried across continuation lines ending in \.
        carry = False
        for lineno, snippet in iter_code_snippets(path):
            mentioned = [t for t in TOOLS if t in snippet]
            if mentioned:
                current_tool = mentioned[0]
            elif not carry:
                current_tool = None
            carry = snippet.rstrip().endswith("\\")
            if current_tool is None or current_tool not in helps:
                continue
            for flag in FLAG_RE.findall(snippet):
                if flag not in helps[current_tool]:
                    errors.append(
                        f"{os.path.relpath(path, root)}:{lineno}: flag "
                        f"{flag} not in `{current_tool} --help` output")


def check_required_sections(root, errors):
    for rel_path, markers in REQUIRED_SECTIONS.items():
        path = os.path.join(root, rel_path)
        if not os.path.exists(path):
            errors.append(f"{rel_path}: required doc is missing")
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for marker in markers:
            if marker not in text:
                errors.append(
                    f"{rel_path}: required section marker not found: "
                    f"{marker!r}")


def check_source_paths(root, errors):
    docs = sorted(glob.glob(os.path.join(root, "docs", "*.md")))
    for path in docs + [os.path.join(root, "README.md")]:
        rel_path = os.path.relpath(path, root)
        for lineno, snippet in iter_code_snippets(path):
            # Fenced-block lines keep their newline and never fullmatch, so
            # only inline code spans are checked.
            if not REPO_PATH_RE.fullmatch(snippet):
                continue
            if not (glob.glob(os.path.join(root, snippet)) or
                    glob.glob(os.path.join(root, "src", snippet))):
                errors.append(f"{rel_path}:{lineno}: `{snippet}` names no "
                              f"file under the repo root or src/")


def code_identifiers(root):
    files = [os.path.join(root, "CMakeLists.txt")]
    for code_dir in CODE_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, code_dir)):
            files += [os.path.join(dirpath, name) for name in filenames
                      if not name.endswith(".md")]
    identifiers = set()
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            identifiers.update(IDENTIFIER_RE.findall(f.read()))
    return identifiers


def check_code_symbols(root, errors):
    identifiers = code_identifiers(root)
    docs = sorted(glob.glob(os.path.join(root, "docs", "*.md")))
    for path in docs + [os.path.join(root, "README.md")]:
        rel_path = os.path.relpath(path, root)
        for lineno, snippet in iter_code_snippets(path):
            match = CODE_SYMBOL_RE.fullmatch(snippet)
            if match is None:
                continue
            missing = [name for name in match.groups()
                       if name is not None and name not in identifiers]
            if missing:
                errors.append(f"{rel_path}:{lineno}: `{snippet}` names "
                              f"{', '.join(missing)}, which no source, "
                              f"tool, test or pipebench file has")


def cpp_files(top):
    out = []
    for dirpath, _, filenames in os.walk(top):
        out += [os.path.join(dirpath, name) for name in filenames
                if name.endswith(CPP_EXTENSIONS)]
    return sorted(out)


def check_reached_modules(root, errors):
    src = os.path.join(root, "src")
    pending = []
    for product_dir in PRODUCT_DIRS:
        pending += cpp_files(os.path.join(root, product_dir))
    reached = set()
    while pending:
        path = os.path.normpath(pending.pop())
        if path in reached:
            continue
        reached.add(path)
        with open(path, encoding="utf-8", errors="replace") as f:
            names = INCLUDE_RE.findall(f.read())
        for name in names:
            # The includer's directory first, then the src/ include root.
            for base in (os.path.dirname(path), src):
                candidate = os.path.join(base, name)
                if os.path.isfile(candidate):
                    pending.append(candidate)
                    break
        stem, ext = os.path.splitext(path)
        if ext == ".h" and os.path.isfile(stem + ".cc"):
            pending.append(stem + ".cc")
    testing = os.path.join(src, "testing") + os.sep
    for path in cpp_files(src):
        if not path.startswith(testing) and os.path.normpath(path) \
                not in reached:
            errors.append(f"{os.path.relpath(path, root)}: no tool, bench "
                          f"or pipebench file reaches it through #include")


def strip_code(text):
    """C++ source without comments, string and char literals (kept as
    empty quotes) or preprocessor lines."""
    def blank(match):
        token = match.group(0)
        if token.startswith(('"', "'")):
            return '""'
        return "\n" * token.count("\n")
    return PREPROCESSOR_RE.sub("", COMMENT_OR_LITERAL_RE.sub(blank, text))


def namespace_scope_functions(code):
    """Names of the functions `code` (stripped) declares or defines at
    namespace scope: a name right before a `(` that opens at brace depth
    made only of namespace braces, in a statement with a type before the
    name and no `=` (an initializer) ahead of it."""
    names = []
    scopes = []  # Per open brace: True while only namespaces enclose it.
    parens = 0
    start = 0  # Start of the current statement.
    for i, ch in enumerate(code):
        if ch == "(":
            if parens == 0 and all(scopes):
                head = code[start:i]
                match = DECLARATOR_RE.search(code[start:i + 1])
                first = IDENTIFIER_RE.match(head.lstrip())
                if (match and match.group(1) not in NOT_FUNCTIONS
                        and not match.group(1).isupper() and "=" not in head
                        and IDENTIFIER_RE.search(head[:match.start()])
                        and first.group(0) not in NOT_DECLARATIONS):
                    names.append(match.group(1))
            parens += 1
        elif ch == ")":
            parens -= 1
        elif ch == "{" and parens == 0:
            scopes.append(all(scopes) and
                          NAMESPACE_HEAD_RE.match(code[start:i]) is not None)
            start = i + 1
        elif ch in "};" and parens == 0:
            if ch == "}":
                scopes.pop()
            start = i + 1
    return names


def check_called_functions(root, errors):
    src = os.path.join(root, "src")
    testing = os.path.join(src, "testing") + os.sep
    declared = {}  # Name -> the header declaring it.
    for path in cpp_files(src):
        if path.endswith(".h") and not path.startswith(testing):
            with open(path, encoding="utf-8", errors="replace") as f:
                for name in namespace_scope_functions(strip_code(f.read())):
                    declared.setdefault(name, path)
    calls = dict.fromkeys(declared, 0)
    for caller_dir in CALLER_DIRS:
        for path in cpp_files(os.path.join(root, caller_dir)):
            with open(path, encoding="utf-8", errors="replace") as f:
                code = strip_code(f.read())
            for name in IDENTIFIER_RE.findall(code):
                if name in calls:
                    calls[name] += 1
            for name in namespace_scope_functions(code):
                if name in calls:
                    calls[name] -= 1
    for name, header in sorted(declared.items(),
                               key=lambda item: (item[1], item[0])):
        if calls[name] <= 0:
            errors.append(f"{os.path.relpath(header, root)}: {name}() is "
                          f"called from no file under "
                          f"{', '.join(d + '/' for d in CALLER_DIRS)}")


def check_checkpoint_version(root, errors):
    with open(os.path.join(root, "docs", "RESILIENCE.md"),
              encoding="utf-8") as f:
        doc = f.read()
    # (header, declaration pattern, declared name, doc marker template)
    declarations = (
        ("src/stream/checkpoint.h", CHECKPOINT_VERSION_RE,
         "kCheckpointFormatVersion", "The current version is {}"),
        ("src/stream/streaming_counter.h", STAT_FIELDS_RE,
         "kIngestStatFields", "u32 field count ({})"),
    )
    for header, pattern, name, template in declarations:
        with open(os.path.join(root, header), encoding="utf-8") as f:
            match = pattern.search(f.read())
        if match is None:
            errors.append(f"{header}: {name} not found")
            continue
        marker = template.format(match.group(1))
        if marker not in doc:
            errors.append(f"docs/RESILIENCE.md: does not say {marker!r} "
                          f"({name} in {header})")


def catalog_metrics(root, heading, name_re):
    """Backticked names matching `name_re` in the OBSERVABILITY.md section
    under `heading`."""
    names = []
    in_section = False
    with open(os.path.join(root, "docs", "OBSERVABILITY.md"),
              encoding="utf-8") as f:
        for line in f:
            if HEADING_RE.match(line):
                in_section = line.startswith(heading)
            elif in_section:
                for name in name_re.findall(line):
                    if name not in names:
                        names.append(name)
    return names


def run_tool(binary, args, errors):
    """stdout of `binary args`, or None (with an error) when it fails."""
    try:
        proc = subprocess.run([binary, *args], capture_output=True,
                              text=True, timeout=60)
    except OSError as e:
        errors.append(f"metric check: cannot run {binary}: {e}")
        return None
    if proc.returncode != 0:
        errors.append(f"metric check: {os.path.basename(binary)} exited "
                      f"{proc.returncode}: {proc.stderr.strip()}")
        return None
    return proc.stdout


def check_stream_metrics(root, bin_dir, errors):
    binary = os.path.join(bin_dir, "tmotif_stream")
    if not os.path.exists(binary):
        return  # check_flags already reports the missing binary.
    sample = os.path.join(root, "examples", "data", "sample_events.txt")
    stdout = run_tool(binary, [f"--input={sample}", *STREAM_METRICS_ARGS],
                      errors)
    if stdout is None:
        return
    dumped = {json.loads(line)["metric"]
              for line in stdout.splitlines() if line.startswith("{")}
    cited = catalog_metrics(root, STREAM_CATALOG_HEADING, STREAM_METRIC_RE)
    if not cited:
        errors.append("docs/OBSERVABILITY.md: no stream.* names found under "
                      f"{STREAM_CATALOG_HEADING!r}")
    for name in cited:
        if name not in dumped:
            errors.append(f"docs/OBSERVABILITY.md: `{name}` is not in the "
                          f"tmotif_stream metrics dump")


def check_counting_metrics(root, bin_dir, errors):
    binary = os.path.join(bin_dir, "tmotif_count")
    if not os.path.exists(binary):
        return  # check_flags already reports the missing binary.
    sample = os.path.join(root, "examples", "data", "sample_events.txt")
    samples = set()  # Prometheus sample names of both dumps.
    for args in COUNTING_METRICS_RUNS:
        stdout = run_tool(binary, [f"--input={sample}", *args,
                                   "--metrics-out=-"], errors)
        if stdout is None:
            return
        for line in stdout.splitlines():
            if line.startswith("tmotif_"):
                samples.add(line.split()[0].split("{")[0])
    cited = catalog_metrics(root, COUNTING_CATALOG_HEADING,
                            COUNTING_METRIC_RE)
    if not cited:
        errors.append("docs/OBSERVABILITY.md: no counting.* names found "
                      f"under {COUNTING_CATALOG_HEADING!r}")
    for name in cited:
        prom = "tmotif_" + name.replace(".", "_")
        if prom not in samples and prom + "_count" not in samples:
            errors.append(f"docs/OBSERVABILITY.md: `{name}` is not in the "
                          f"tmotif_count metrics dumps")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root",
                        default=os.path.dirname(os.path.dirname(
                            os.path.abspath(__file__))))
    parser.add_argument("--bin-dir", default=None,
                        help="build directory holding the tool binaries; "
                             "omit to skip the CLI-flag check")
    args = parser.parse_args()

    md_files = find_markdown_files(args.repo_root)
    if not md_files:
        print("check_docs: no markdown files found", file=sys.stderr)
        return 1
    errors = []
    check_links(md_files, args.repo_root, errors)
    check_required_sections(args.repo_root, errors)
    check_checkpoint_version(args.repo_root, errors)
    check_source_paths(args.repo_root, errors)
    check_code_symbols(args.repo_root, errors)
    check_reached_modules(args.repo_root, errors)
    check_called_functions(args.repo_root, errors)
    if args.bin_dir is not None:
        check_flags(md_files, args.repo_root, args.bin_dir, errors)
        check_stream_metrics(args.repo_root, args.bin_dir, errors)
        check_counting_metrics(args.repo_root, args.bin_dir, errors)
    if errors:
        for e in errors:
            print(f"check_docs: {e}", file=sys.stderr)
        print(f"check_docs: {len(errors)} finding(s) across "
              f"{len(md_files)} markdown files", file=sys.stderr)
        return 1
    scope = ("links + sections + paths + symbols + modules + functions + "
             "CLI flags + stream and counting metrics" if args.bin_dir
             else "links + sections + paths + symbols + modules + functions")
    print(f"check_docs: OK ({scope}; {len(md_files)} markdown files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
