#!/usr/bin/env python3
"""Sanity-check the project's Markdown docs.

Five checks over README.md and docs/*.md:

1. Every fenced code block must have balanced (), [] and {} after
   comment text is stripped. This catches the usual documentation rot:
   a snippet edited by hand until its parentheses no longer close —
   fatal in a Cambridge Polish language.

2. Every relative Markdown link must resolve: the target file exists
   (relative to the containing document), and when the link carries a
   #fragment the target document has a heading with that anchor. This
   catches the other kind of rot: a renamed doc or section leaving
   dangling cross-references. Absolute URLs (http/https/mailto) and
   links inside fenced blocks are skipped.

3. The metric catalogue and its reference agree: every instrument in
   src/telemetry/Metrics.def has a row in the matching Counters, Gauges
   or Histograms table of docs/OBSERVABILITY.md, and every row there
   names an instrument of that kind.

4. Every record-file dump is current: each `spl-wisdom vN` header line
   in a fenced block equals VersionHeader in src/search/PlanCache.cpp,
   and each `spl-kernelcache vN` line equals IndexVersionHeader in
   src/perf/KernelCache.cpp, so a format bump cannot leave stale example
   files behind.

5. Every source path resolves: `src/x/Y.{h,cpp}` needs every listed
   file, a bare stem `src/x/Y` a Y.h or a Y.cpp, `src/x/` a directory,
   and any other `src/...` path an existing file or directory, so a
   moved or deleted module cannot stay named in the docs.

Comment syntax is chosen per fence info string:
  lisp/spl   ';' to end of line
  sh/shell   '#' to end of line
  c/cpp      '//' to end of line
  (none)     both ';' and '#' (grammar sketches, wisdom dumps, usage text)

Exit status 0 when everything checks out, 1 otherwise.
"""

import glob
import os
import re
import sys

BRACKETS = {")": "(", "]": "[", "}": "{"}
OPENERS = set(BRACKETS.values())

COMMENT_MARKERS = {
    "lisp": [";"],
    "spl": [";"],
    "scheme": [";"],
    "sh": ["#"],
    "shell": ["#"],
    "bash": ["#"],
    "c": ["//"],
    "cpp": ["//"],
    "c++": ["//"],
    "": [";", "#"],
}

# Inline links: [text](target). Images share the syntax ("![alt](target)");
# both should resolve. Targets with spaces or nested parens don't occur in
# these docs, so the simple non-greedy form is enough.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# Metrics.def lines: SPL_COUNTER(Id, "name"), SPL_STAGE(Id, "name", "span").
METRIC_RE = re.compile(r'^SPL_(COUNTER|GAUGE|HISTOGRAM|STAGE)\(\w+, "([^"]+)"')
METRIC_KINDS = {
    "COUNTER": "Counters",
    "GAUGE": "Gauges",
    "HISTOGRAM": "Histograms",
    "STAGE": "Histograms",
}
# A reference row: | `name` | ...
ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")

# Record-file headers: the format name of each, the source file whose
# `...VersionHeader = "<name> vN"` constant it must equal, and the shape of
# the header line in a doc's fenced block.
RECORD_FORMATS = {
    "spl-wisdom": os.path.join("src", "search", "PlanCache.cpp"),
    "spl-kernelcache": os.path.join("src", "perf", "KernelCache.cpp"),
}
RECORD_HEADER_RE = re.compile(r"^(spl-wisdom|spl-kernelcache) v\d+$")
VERSION_HEADER_RE = re.compile(r'VersionHeader = "([^"]+)"')

# A source path: src/x/Y.h, src/x/Y.{h,cpp}, a stem src/x/Y, a dir src/x/.
SRC_PATH_RE = re.compile(r"(?<![\w/.])src/[\w/.-]*(?:\{[\w,.]+\})?")


def strip_comments(line, markers):
    cut = len(line)
    for m in markers:
        pos = line.find(m)
        if pos != -1:
            cut = min(cut, pos)
    return line[:cut]


def check_block(lang, lines, path, start_line):
    """Return a list of error strings for one fenced block."""
    markers = COMMENT_MARKERS.get(lang, ["//"])
    stack = []
    errors = []
    for off, raw in enumerate(lines):
        line = strip_comments(raw, markers)
        for ch in line:
            if ch in OPENERS:
                stack.append((ch, start_line + off))
            elif ch in BRACKETS:
                if not stack or stack[-1][0] != BRACKETS[ch]:
                    errors.append(
                        "%s:%d: unmatched '%s' in %s block"
                        % (path, start_line + off, ch, lang or "plain")
                    )
                    return errors  # one report per block is enough
                stack.pop()
    for ch, ln in stack:
        errors.append(
            "%s:%d: unclosed '%s' in %s block" % (path, ln, ch, lang or "plain")
        )
    return errors


def heading_anchor(heading):
    """GitHub-style anchor for a heading line (without the leading #s)."""
    text = heading.strip().lower()
    # Inline code/emphasis markers vanish; spaces become dashes; anything
    # not alphanumeric, dash or space is dropped.
    text = text.replace("`", "").replace("*", "")
    text = re.sub(r"[^\w\- ]", "", text)
    return text.strip().replace(" ", "-")


def doc_anchors(path):
    """The set of heading anchors a Markdown file defines."""
    anchors = set()
    in_block = False
    try:
        with open(path, encoding="utf-8") as f:
            for raw in f:
                line = raw.rstrip("\n")
                if line.strip().startswith("```"):
                    in_block = not in_block
                    continue
                if not in_block and line.startswith("#"):
                    anchors.add(heading_anchor(line.lstrip("#")))
    except OSError:
        pass
    return anchors


def check_links(path, link_sites, anchor_cache):
    """Validate the relative links collected from one document."""
    errors = []
    base = os.path.dirname(path)
    for lineno, target in link_sites:
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, https:, mailto:
            continue
        ref, _, fragment = target.partition("#")
        if not ref:  # pure in-document anchor: #section
            dest = path
        else:
            dest = os.path.normpath(os.path.join(base, ref))
            if not os.path.exists(dest):
                errors.append(
                    "%s:%d: broken link '%s' (no such file)"
                    % (path, lineno, target)
                )
                continue
        if fragment and dest.endswith(".md"):
            if dest not in anchor_cache:
                anchor_cache[dest] = doc_anchors(dest)
            if fragment.lower() not in anchor_cache[dest]:
                errors.append(
                    "%s:%d: broken link '%s' (no heading for #%s)"
                    % (path, lineno, target, fragment)
                )
    return errors


def check_file(path, headers):
    errors = []
    blocks = 0
    links = []
    in_block = False
    lang = ""
    block_lines = []
    block_start = 0
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if line.strip().startswith("```"):
                if not in_block:
                    in_block = True
                    lang = line.strip().lstrip("`").strip().lower()
                    block_lines = []
                    block_start = lineno + 1
                else:
                    in_block = False
                    blocks += 1
                    errors += check_block(lang, block_lines, path, block_start)
                continue
            if in_block:
                block_lines.append(line)
                m = RECORD_HEADER_RE.match(line.strip())
                if m and line.strip() != headers.get(m.group(1)):
                    errors.append(
                        "%s:%d: stale %s header '%s' (%s writes '%s')"
                        % (path, lineno, m.group(1), line.strip(),
                           os.path.basename(RECORD_FORMATS[m.group(1)]),
                           headers.get(m.group(1)))
                    )
            else:
                for m in LINK_RE.finditer(line):
                    links.append((lineno, m.group(1)))
    if in_block:
        errors.append("%s:%d: unterminated code fence" % (path, block_start))
    return blocks, links, errors


def check_source_paths(root, path):
    """Report each src/... path in one document that names nothing."""
    errors = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for m in SRC_PATH_RE.finditer(line):
                ref = m.group(0).rstrip(".")
                full = os.path.join(root, ref)
                if ref.endswith("}"):
                    stem, _, alts = ref[:-1].partition("{")
                    missing = [
                        stem + alt for alt in alts.split(",")
                        if not os.path.isfile(os.path.join(root, stem + alt))
                    ]
                elif ref.endswith("/"):
                    missing = [] if os.path.isdir(full) else [ref]
                elif os.path.exists(full):
                    missing = []
                elif "." not in os.path.basename(ref):
                    found = any(os.path.isfile(full + ext)
                                for ext in (".h", ".cpp"))
                    missing = [] if found else [ref + ".h or .cpp"]
                else:
                    missing = [ref]
                for name in missing:
                    errors.append("%s:%d: '%s' names a missing source (%s)"
                                  % (path, lineno, ref, name))
    return errors


def check_metrics(def_path, doc_path):
    """Compare Metrics.def with the ### Counters/Gauges/Histograms tables."""
    declared = set()
    with open(def_path, encoding="utf-8") as f:
        for line in f:
            m = METRIC_RE.match(line)
            if m:
                declared.add((METRIC_KINDS[m.group(1)], m.group(2)))
    documented = {}
    table = None
    with open(doc_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if line.startswith("#"):
                title = line.lstrip("#").strip()
                table = title if title in METRIC_KINDS.values() else None
                continue
            m = ROW_RE.match(line)
            if table and m:
                documented[(table, m.group(1))] = lineno
    errors = []
    for kind, name in sorted(declared - set(documented)):
        errors.append(
            "%s: %s has no row in the %s table of %s"
            % (def_path, name, kind, doc_path)
        )
    for kind, name in sorted(set(documented) - declared):
        errors.append(
            "%s:%d: %s is not one of the %s in %s"
            % (doc_path, documented[(kind, name)], name, kind.lower(), def_path)
        )
    return errors


def version_header(source_path, name):
    """The \p name header a source file writes, e.g. 'spl-wisdom v4'."""
    with open(source_path, encoding="utf-8") as f:
        for value in VERSION_HEADER_RE.findall(f.read()):
            if value.startswith(name + " v"):
                return value
    return None


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    headers = {
        name: version_header(os.path.join(root, source), name)
        for name, source in RECORD_FORMATS.items()
    }
    paths = [os.path.join(root, "README.md")] + sorted(
        glob.glob(os.path.join(root, "docs", "*.md"))
    )
    total_blocks = 0
    total_links = 0
    all_errors = []
    anchor_cache = {}
    for path in paths:
        if not os.path.exists(path):
            continue
        blocks, links, errors = check_file(path, headers)
        total_blocks += blocks
        total_links += len(links)
        all_errors += errors
        all_errors += check_links(path, links, anchor_cache)
        all_errors += check_source_paths(root, path)
    for name, source in RECORD_FORMATS.items():
        if not (headers[name] or "").startswith(name + " v"):
            all_errors.append("%s: no %s VersionHeader found" % (source, name))
    all_errors += check_metrics(
        os.path.join(root, "src", "telemetry", "Metrics.def"),
        os.path.join(root, "docs", "OBSERVABILITY.md"),
    )
    for e in all_errors:
        print(e, file=sys.stderr)
    print(
        "check_docs: %d fenced blocks, %d links in %d files, %d errors"
        % (total_blocks, total_links, len(paths), len(all_errors))
    )
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main())
