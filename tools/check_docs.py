#!/usr/bin/env python3
"""Doc-drift check: keeps the markdown tree honest as the code moves.

Four classes of rot are caught:

  1. Broken intra-repo links — every relative markdown link (and image)
     in the repo's *.md files must resolve to an existing file.
  2. Stale CLI flags — every `--flag` that appears in a code span or
     fenced block mentioning one of the CLI tools (tmotif_count,
     tmotif_stream) must appear in that tool's --help output.
  3. Missing required sections — load-bearing doc sections that code or
     tests reference by topic (the fast-path dispatch table, the batch
     sink surface, the lifted store gates) must keep existing; a refactor
     that drops one fails here instead of silently orphaning the
     references.
  4. A stale checkpoint version — docs/RESILIENCE.md must say "The
     current version is N" for the kCheckpointFormatVersion N declared in
     src/stream/checkpoint.h.

Usage:
  tools/check_docs.py [--repo-root DIR] [--bin-dir BUILDDIR]

Without --bin-dir only the link check runs (useful before building);
CI passes the build directory so the flag check runs against the real
binaries. Exit status is nonzero on any finding.
"""

import argparse
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
        "#### Lifted store gates: order predicates and k = 1",
        "boundary revalidation",
        "store_order_rechecks",
        "#### The store-off state",
    ),
    "docs/RESILIENCE.md": (
        "## Checkpoint format",
        "Versions 2 and 3 are rejected",
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


def check_checkpoint_version(root, errors):
    header = os.path.join(root, "src", "stream", "checkpoint.h")
    with open(header, encoding="utf-8") as f:
        match = CHECKPOINT_VERSION_RE.search(f.read())
    if match is None:
        errors.append("src/stream/checkpoint.h: kCheckpointFormatVersion "
                      "not found")
        return
    marker = f"The current version is {match.group(1)}"
    with open(os.path.join(root, "docs", "RESILIENCE.md"),
              encoding="utf-8") as f:
        if marker not in f.read():
            errors.append(f"docs/RESILIENCE.md: does not say {marker!r} "
                          f"(kCheckpointFormatVersion in "
                          f"src/stream/checkpoint.h)")


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
    if args.bin_dir is not None:
        check_flags(md_files, args.repo_root, args.bin_dir, errors)
    if errors:
        for e in errors:
            print(f"check_docs: {e}", file=sys.stderr)
        print(f"check_docs: {len(errors)} finding(s) across "
              f"{len(md_files)} markdown files", file=sys.stderr)
        return 1
    scope = ("links + sections + CLI flags" if args.bin_dir
             else "links + sections")
    print(f"check_docs: OK ({scope}; {len(md_files)} markdown files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
