#!/usr/bin/env python3
"""Cross-checks the repository's prose-encoded contracts against the code.

The serving stack documents several invariants in Markdown that nothing
compiles: the failpoint site catalog, the wire status-code table, the CLI
exit-code table, the one-README-per-subsystem rule. This linter re-derives
each side from its source of truth and fails on drift, so a PR that adds a
failpoint (or renames a status code) cannot land without its paperwork.

Checks:
  1. failpoint-catalog: every `DANGORON_FAILPOINT*("site")` in src/ and
     examples/ has a row in the src/common/README.md catalog, and every
     catalog row names a live site (tests/ arm sites, they don't define
     them, so they are excluded).
  2. wire-status: the StatusCode enum in src/common/status.h — the codes
     the wire protocol's Status frame carries (src/wire/wire_format.h) —
     matches the code list in docs/WIRE_PROTOCOL.md §5.3, value for value.
  3. exit-codes: the kExitCodeSpecs table in examples/serve_flags.h
     matches the CLI exit-code table in docs/ARCHITECTURE.md, code for
     code and meaning for meaning.
  4. subsystem-readmes: every src/*/ directory has a README.md.
  5. raw-mutex: no `std::mutex` / `std::condition_variable` / guard types
     outside src/common/sync.h — everything goes through the annotated
     wrappers so Clang's thread-safety analysis sees every lock.
  6. one-front-end: no `listen(`, `accept(`, `accept4(` or `epoll_create`
     in src/ outside src/net/wire_server.cc — every wire-protocol server
     (a shard, the router) serves through WireServer's one epoll loop.
  7. one-shard-dispatch: `ConnectWithRetry(` has exactly one call site
     under src/router/ (inside ShardRouter::Place) — plan-time fan-out
     and mid-stream failover place pair ranges on shards by one rule.
  8. one-engine-pass: `OnWindow(` has exactly one call site in
     src/engine/dangoron_engine.cc (RunWindowMajorSweep's band loop) —
     every Dangoron query, exact, jumping or pruned, emits its windows
     from one pass.

Exit 0 when every invariant holds, 1 otherwise (one pointed line each).

Usage:
  check_invariants.py [repo_root]
"""

import os
import re
import sys

FAILPOINT_SITE_RE = re.compile(r'\bDANGORON_FAILPOINT\w*\(\s*"([^"]+)"')
# Catalog rows are `| `site.name` | ... |`; site names are dotted lowercase,
# which keeps the action-spec table (`error[:code]`, `wake`, ...) out.
CATALOG_ROW_RE = re.compile(r"^\|\s*`([a-z_]+(?:\.[a-z_]+)+)`\s*\|",
                            re.MULTILINE)
STATUS_ENUM_RE = re.compile(r"\bk([A-Za-z]+)\s*=\s*(\d+)\s*,")
# §5.3 lists codes as `N Name` pairs inside the frame-layout code block.
DOC_STATUS_PAIR_RE = re.compile(r"\b(\d+)\s+([A-Z][A-Za-z]+)\b")
EXIT_SPEC_RE = re.compile(r'\{\s*(\d+)\s*,\s*"([^"]*)"\s*\}')
EXIT_DOC_ROW_RE = re.compile(r"^\|\s*`(\d+)`\s*\|\s*([^|]+?)\s*\|",
                             re.MULTILINE)
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")

MUTEX_SCAN_DIRS = ("src", "tests", "bench", "examples")
MUTEX_ALLOWED = os.path.join("src", "common", "sync.h")

FRONT_END_RE = re.compile(r"\b(?:listen|accept4?|epoll_create1?)\s*\(")
FRONT_END_ALLOWED = os.path.join("src", "net", "wire_server.cc")

SHARD_CONNECT_RE = re.compile(r"\bConnectWithRetry\s*\(")
SHARD_DISPATCH_DIR = os.path.join("src", "router")

WINDOW_EMIT_RE = re.compile(r"\bOnWindow\s*\(")
ENGINE_PASS_FILE = os.path.join("src", "engine", "dangoron_engine.cc")


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def strip_comments(text):
    """Removes // and /* */ comments so prose mentions of std::mutex
    (e.g. in sync.h's own documentation) don't trip the scan."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


def source_files(root, subdirs, exts=(".cc", ".h")):
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def check_failpoint_catalog(root, errors):
    """Code sites and README catalog rows must match both ways."""
    sites = {}  # name -> first defining file
    for path in source_files(root, ("src", "examples")):
        if path.endswith(os.path.join("common", "failpoint.h")):
            continue  # the macro definitions, not sites
        for name in FAILPOINT_SITE_RE.findall(strip_comments(read(path))):
            sites.setdefault(name, os.path.relpath(path, root))
    readme = os.path.join(root, "src", "common", "README.md")
    catalog = set(CATALOG_ROW_RE.findall(read(readme)))
    for name in sorted(set(sites) - catalog):
        errors.append(
            f"failpoint-catalog: site '{name}' ({sites[name]}) has no row "
            f"in src/common/README.md — document what the site exercises")
    for name in sorted(catalog - set(sites)):
        errors.append(
            f"failpoint-catalog: src/common/README.md row '{name}' names "
            f"no live DANGORON_FAILPOINT site — stale row?")


def check_wire_status_codes(root, errors):
    """StatusCode enum vs the docs/WIRE_PROTOCOL.md §5.3 code list."""
    enum_text = read(os.path.join(root, "src", "common", "status.h"))
    enum_match = re.search(r"enum class StatusCode[^{]*\{(.*?)\}", enum_text,
                           re.DOTALL)
    if enum_match is None:
        errors.append("wire-status: no StatusCode enum in "
                      "src/common/status.h")
        return
    enum_codes = {int(value): name
                  for name, value in
                  STATUS_ENUM_RE.findall(strip_comments(enum_match.group(1)))}
    doc_text = read(os.path.join(root, "docs", "WIRE_PROTOCOL.md"))
    section = re.search(r"### 5\.3 .*?varint\s+code(.*?)varint\s+message",
                        doc_text, re.DOTALL)
    if section is None:
        errors.append("wire-status: docs/WIRE_PROTOCOL.md §5.3 has no "
                      "'varint code ... varint message' block to check")
        return
    doc_codes = {int(value): name
                 for value, name in
                 DOC_STATUS_PAIR_RE.findall(section.group(1))}
    for value in sorted(set(enum_codes) - set(doc_codes)):
        errors.append(
            f"wire-status: StatusCode::k{enum_codes[value]} = {value} is "
            f"missing from the docs/WIRE_PROTOCOL.md §5.3 code list")
    for value in sorted(set(doc_codes) - set(enum_codes)):
        errors.append(
            f"wire-status: docs/WIRE_PROTOCOL.md §5.3 lists code {value} "
            f"({doc_codes[value]}) which StatusCode does not define")
    for value in sorted(set(enum_codes) & set(doc_codes)):
        if enum_codes[value] != doc_codes[value]:
            errors.append(
                f"wire-status: code {value} is k{enum_codes[value]} in the "
                f"enum but {doc_codes[value]} in docs/WIRE_PROTOCOL.md §5.3")


def check_exit_codes(root, errors):
    """kExitCodeSpecs vs the CLI exit-code table in docs/ARCHITECTURE.md."""
    flags_text = strip_comments(
        read(os.path.join(root, "examples", "serve_flags.h")))
    spec_match = re.search(r"kExitCodeSpecs\[\]\s*=\s*\{(.*?)\};",
                           flags_text, re.DOTALL)
    if spec_match is None:
        errors.append("exit-codes: no kExitCodeSpecs table in "
                      "examples/serve_flags.h")
        return
    specs = {int(code): meaning
             for code, meaning in EXIT_SPEC_RE.findall(spec_match.group(1))}
    doc_text = read(os.path.join(root, "docs", "ARCHITECTURE.md"))
    doc_rows = {int(code): meaning
                for code, meaning in EXIT_DOC_ROW_RE.findall(doc_text)}
    for code in sorted(set(specs) - set(doc_rows)):
        errors.append(
            f"exit-codes: exit code {code} ('{specs[code]}') has no row in "
            f"the docs/ARCHITECTURE.md exit-code table")
    for code in sorted(set(doc_rows) - set(specs)):
        errors.append(
            f"exit-codes: docs/ARCHITECTURE.md documents exit code {code} "
            f"which examples/serve_flags.h does not define")
    for code in sorted(set(specs) & set(doc_rows)):
        if specs[code] != doc_rows[code]:
            errors.append(
                f"exit-codes: exit code {code} means '{specs[code]}' in "
                f"serve_flags.h but '{doc_rows[code]}' in the docs table")


def check_subsystem_readmes(root, errors):
    src = os.path.join(root, "src")
    for name in sorted(os.listdir(src)):
        subdir = os.path.join(src, name)
        if os.path.isdir(subdir) and \
                not os.path.exists(os.path.join(subdir, "README.md")):
            errors.append(
                f"subsystem-readmes: src/{name}/ has no README.md — every "
                f"subsystem documents its role and contracts")


def check_raw_mutex(root, errors):
    """The annotated wrappers in src/common/sync.h are the only place raw
    standard-library mutex primitives may appear; anywhere else they are
    invisible to thread-safety analysis."""
    for path in source_files(root, MUTEX_SCAN_DIRS):
        rel = os.path.relpath(path, root)
        if rel == MUTEX_ALLOWED:
            continue
        for i, line in enumerate(strip_comments(read(path)).splitlines(), 1):
            match = RAW_MUTEX_RE.search(line)
            if match:
                errors.append(
                    f"raw-mutex: {rel}:{i} uses {match.group(0)} — use the "
                    f"annotated wrappers from src/common/sync.h instead")


def check_one_front_end(root, errors):
    """WireServer owns the only listener and epoll loop in src/; a second
    accept or event loop is a second front end to keep in step."""
    for path in source_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        if rel == FRONT_END_ALLOWED:
            continue
        for i, line in enumerate(strip_comments(read(path)).splitlines(), 1):
            match = FRONT_END_RE.search(line)
            if match:
                errors.append(
                    f"one-front-end: {rel}:{i} calls {match.group(0)} — "
                    f"serve through WireServer (a WindowSource) instead")


def is_call(text, pos):
    """True when the name at `pos` is called rather than declared or
    defined: a declaration follows its return type, a definition `::`."""
    before = text[:pos].rstrip()
    if before.endswith("::"):
        return False
    if before.endswith(("->", ".")) or re.search(r"\breturn$", before):
        return True
    return not (before.endswith(">") or re.search(r"\w$", before))


def check_one_shard_dispatch(root, errors):
    """ShardRouter::Place is the one routine that connects to shards and
    submits restricted sub-requests; a second connect site is a second
    placement policy to keep in step."""
    sites = []
    for path in source_files(root, (SHARD_DISPATCH_DIR,)):
        rel = os.path.relpath(path, root)
        text = strip_comments(read(path))
        for match in SHARD_CONNECT_RE.finditer(text):
            if is_call(text, match.start()):
                line = text.count("\n", 0, match.start()) + 1
                sites.append(f"{rel}:{line}")
    if len(sites) != 1:
        errors.append(
            f"one-shard-dispatch: ConnectWithRetry( has {len(sites)} call "
            f"sites under {SHARD_DISPATCH_DIR}/ ({', '.join(sites) or 'none'})"
            f" — expected exactly one, inside ShardRouter::Place")


def check_one_engine_pass(root, errors):
    """RunWindowMajorSweep's band loop is the one place DangoronEngine
    emits a window; a second OnWindow call is a second driver with its own
    assembly, stats fold and cancellation to keep in step."""
    path = os.path.join(root, ENGINE_PASS_FILE)
    text = strip_comments(read(path)) if os.path.exists(path) else ""
    sites = [text.count("\n", 0, match.start()) + 1
             for match in WINDOW_EMIT_RE.finditer(text)
             if is_call(text, match.start())]
    if len(sites) != 1:
        errors.append(
            f"one-engine-pass: OnWindow( has {len(sites)} call sites in "
            f"{ENGINE_PASS_FILE} (lines "
            f"{', '.join(map(str, sites)) or 'none'}) — expected exactly "
            f"one, in RunWindowMajorSweep's band loop")


CHECKS = (
    check_failpoint_catalog,
    check_wire_status_codes,
    check_exit_codes,
    check_subsystem_readmes,
    check_raw_mutex,
    check_one_front_end,
    check_one_shard_dispatch,
    check_one_engine_pass,
)


def run_checks(root):
    errors = []
    for check in CHECKS:
        check(root, errors)
    return errors


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    errors = run_checks(root)
    if errors:
        print(f"invariant check FAILED ({len(errors)} violations):",
              file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print(f"invariant check passed: {len(CHECKS)} project invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
