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
  3. exit-codes: the kExitCodeSpecs table in examples/dangoron_serverd.cc
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
  9. examples-exercised: every examples/*.cc program, and every
     dangoron_serverd subcommand, runs somewhere: named as an add_test
     COMMAND in CMakeLists.txt, or invoked by a script that an add_test
     runs or by scripts/router_smoke.sh (CI's multi-process job).
 10. readme-quickstart: README.md carries the marked region of
     examples/quickstart.cc verbatim as a ```cpp block, so the quickstart
     the README shows is the one ctest compiles and runs.
 11. bench-gated: CI's bench-smoke job builds (`--target`) and runs
     (`./name`) every bench/*.cc program, and passes every committed root
     BENCH_*.json to scripts/check_bench_regression.py — a retired bench
     leaves no orphaned baseline or CI step behind, and a new one cannot
     land ungated.
 12. program-reached: every function declared in a src/*/*.h is used by
     program code — src/, examples/, bench/ or perfbench/ — somewhere
     other than a declaration or definition of it. API only tests call is
     deleted with its tests, or named in PROGRAM_REACHED_ALLOWLIST with
     the reason it stays; an allowlist entry that names no unreached
     function is stale.
 13. one-page-mapper: no `mmap(`, `munmap(` or `madvise(` in program code
     (src/, examples/, bench/, perfbench/) outside
     src/common/sketch_block.cc — every large buffer is mapped by
     MapPageStorage, which aligns it to and advises it for huge pages.

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

PAGE_MAPPER_RE = re.compile(r"\b(?:mmap|munmap|madvise)\s*\(")
PAGE_MAPPER_ALLOWED = os.path.join("src", "common", "sketch_block.cc")

SHARD_CONNECT_RE = re.compile(r"\bConnectWithRetry\s*\(")
SHARD_DISPATCH_DIR = os.path.join("src", "router")

WINDOW_EMIT_RE = re.compile(r"\bOnWindow\s*\(")
ENGINE_PASS_FILE = os.path.join("src", "engine", "dangoron_engine.cc")

CLI_FILE = os.path.join("examples", "dangoron_serverd.cc")
ADD_TEST_RE = re.compile(r"\badd_test\s*\(([^)]*)\)")
TEST_COMMAND_RE = re.compile(r"\bCOMMAND\s+(?:\$<TARGET_FILE:)?([\w.-]+)")
TEST_SCRIPT_RE = re.compile(r"\bscripts/([\w.-]+\.sh)\b")
CI_SCRIPT = "router_smoke.sh"
SUBCOMMAND_RE = re.compile(r'\bcommand\s*==\s*"(\w+)"')
INVOCATION_RE = re.compile(r'\bdangoron_serverd"?\s+"?(\w+)')
QUICKSTART_FILE = os.path.join("examples", "quickstart.cc")
CI_FILE = os.path.join(".github", "workflows", "ci.yml")
BENCH_JOB = "bench-smoke"
BENCH_GATE = "check_bench_regression.py"
# A top-level job of a workflow: `  name:` alone on its line.
CI_JOB_RE = re.compile(r"^  ([\w-]+):[ \t]*$", re.MULTILINE)
BUILD_TARGETS_RE = re.compile(r"--target\s+([^\n]+)")
BASELINE_RE = re.compile(r"BENCH_\w+\.json")
QUICKSTART_BEGIN = "// README quickstart begin\n"
QUICKSTART_END = "// README quickstart end\n"

PROGRAM_DIRS = ("src", "examples", "bench", "perfbench")
NAME_RE = re.compile(r"\b[A-Za-z_]\w*\b")
OPEN_PAREN_RE = re.compile(r"\s*\(")
CALLED_NAME_RE = re.compile(r"\b[A-Za-z_]\w*(?=\s*\()")
BRACE_RE = re.compile(r"[{}]")
BRACE_OR_SEMICOLON_RE = re.compile(r"[{};]")
# Words that may stand before `(` without naming a function, and words
# after which a name followed by `(` is called, not declared.
NOT_FUNCTION_NAMES = frozenset((
    "alignas", "alignof", "auto", "bool", "char", "const", "decltype",
    "defined", "delete", "double", "float", "for", "if", "int", "long",
    "noexcept", "operator", "return", "short", "signed", "sizeof",
    "static_assert", "switch", "unsigned", "void", "while"))
CALL_PREFIX_WORDS = frozenset(("return", "new", "throw", "else", "case",
                               "co_return", "co_yield", "not", "and", "or"))
# Functions declared in src/*/*.h that no program reaches, and why each
# stays.
PROGRAM_REACHED_ALLOWLIST = {
    # References the tests compare the production kernels against.
    "CombinePearsonEq1": "Eq. 1 oracle for the sketch's range correlation "
                         "(corr_test)",
    "ComputeBasicWindowStats": "per-basic-window oracle for the blocked and "
                               "scalar sketch builds (block_kernel_test)",
    "ComputeBasicWindowCorrelations": "per-basic-window oracle for the "
                                      "blocked and scalar sketch builds "
                                      "(block_kernel_test)",
    "DirectDft": "O(n^2) oracle for Fft (dft_test)",
    # Test hooks: what a test observes or resets about reached code.
    "TrimSketchRecycler": "resets the process-wide sketch recycler between "
                          "tests of the eviction-recycler-rebuild path",
    "SketchRecyclerRetainedBytes": "observes the sketch recycler the "
                                   "serving layer's cache accounting feeds",
    "MaxAbsDiff": "compares linalg results against their oracles",
    "ArmedSites": "failpoint registry API: tests arm, list and disarm sites",
    "DisarmAll": "failpoint registry API: tests arm, list and disarm sites",
    "health": "observes the router's per-shard health machine "
              "(router_test)",
    "reserved_bytes": "observes the admission queue's byte budget "
                      "(admission_test)",
    "newest_slot": "the upper end of the band ring's readable slots; "
                   "sketch_test checks AdvanceTo against it",
    "buffered": "observes that a FrameReader consumed every frame byte "
                "(wire_test)",
    # Planned callers.
    "SetMinLogSeverity": "the logging.h severity levels the observability "
                         "work (ROADMAP item 5) will call",
}


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def strip_shell_comments(text):
    """Drops whole-line `#` comments, so a script's prose about a command
    does not count as running it."""
    return "\n".join(line for line in text.splitlines()
                     if not line.lstrip().startswith("#"))


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
    flags_text = strip_comments(read(os.path.join(root, CLI_FILE)))
    spec_match = re.search(r"kExitCodeSpecs\[\]\s*=\s*\{(.*?)\};",
                           flags_text, re.DOTALL)
    if spec_match is None:
        errors.append(f"exit-codes: no kExitCodeSpecs table in {CLI_FILE}")
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
            f"which {CLI_FILE} does not define")
    for code in sorted(set(specs) & set(doc_rows)):
        if specs[code] != doc_rows[code]:
            errors.append(
                f"exit-codes: exit code {code} means '{specs[code]}' in "
                f"{CLI_FILE} but '{doc_rows[code]}' in the docs table")


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


def check_one_page_mapper(root, errors):
    """MapPageStorage maps every large buffer on 2 MB huge-page boundaries;
    a second mmap site would hand a hot block 4 KB pages again."""
    for path in source_files(root, PROGRAM_DIRS):
        rel = os.path.relpath(path, root)
        if rel == PAGE_MAPPER_ALLOWED:
            continue
        for i, line in enumerate(strip_comments(read(path)).splitlines(), 1):
            match = PAGE_MAPPER_RE.search(line)
            if match:
                errors.append(
                    f"one-page-mapper: {rel}:{i} calls {match.group(0)} — "
                    f"map through MapPageStorage (src/common/sketch_block.h)")


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


def check_examples_exercised(root, errors):
    """An example nothing runs rots unseen: every examples/*.cc program and
    every dangoron_serverd subcommand must run under ctest or CI."""
    tests = ADD_TEST_RE.findall(read(os.path.join(root, "CMakeLists.txt")))
    commands = set()
    scripts = {CI_SCRIPT}
    for body in tests:
        commands.update(TEST_COMMAND_RE.findall(body))
        scripts.update(TEST_SCRIPT_RE.findall(body))
    script_code = ""
    for name in sorted(scripts):
        path = os.path.join(root, "scripts", name)
        if os.path.exists(path):
            script_code += strip_shell_comments(read(path)) + "\n"
    examples = os.path.join(root, "examples")
    for name in sorted(os.listdir(examples)):
        stem, ext = os.path.splitext(name)
        if ext == ".cc" and stem not in commands and \
                not re.search(rf"/{re.escape(stem)}\b", script_code):
            errors.append(
                f"examples-exercised: examples/{name} is run by no add_test "
                f"in CMakeLists.txt and by no test script — add a ctest or "
                f"delete the example")
    subcommands = SUBCOMMAND_RE.findall(
        strip_comments(read(os.path.join(root, CLI_FILE))))
    if not subcommands:
        errors.append(f"examples-exercised: no `command == \"...\"` "
                      f"subcommand dispatch found in {CLI_FILE}")
    invoked = set(INVOCATION_RE.findall(script_code + "\n".join(tests)))
    for subcommand in subcommands:
        if subcommand not in invoked:
            errors.append(
                f"examples-exercised: `dangoron_serverd {subcommand}` is "
                f"invoked by no test script or add_test")


def check_readme_quickstart(root, errors):
    """README.md's quickstart is the compiled, ctest-run examples/
    quickstart.cc region, byte for byte."""
    source = read(os.path.join(root, QUICKSTART_FILE))
    begin = source.find(QUICKSTART_BEGIN)
    end = source.find(QUICKSTART_END)
    if begin < 0 or end < begin:
        errors.append(
            f"readme-quickstart: {QUICKSTART_FILE} has no "
            f"'{QUICKSTART_BEGIN.strip()}' ... '{QUICKSTART_END.strip()}' "
            f"region")
        return
    region = source[begin + len(QUICKSTART_BEGIN):end]
    readme = read(os.path.join(root, "README.md"))
    if f"```cpp\n{region}```\n" not in readme:
        errors.append(
            f"readme-quickstart: README.md has no ```cpp block equal to the "
            f"marked region of {QUICKSTART_FILE} — copy the region over")


def ci_job(text, name):
    """The body of top-level job `name` of a workflow, up to the next
    job, or None when the workflow has no such job."""
    jobs = list(CI_JOB_RE.finditer(text))
    for k, match in enumerate(jobs):
        if match.group(1) == name:
            end = jobs[k + 1].start() if k + 1 < len(jobs) else len(text)
            return text[match.end():end]
    return None


def check_bench_gated(root, errors):
    """Every bench/ program is built and run by CI's bench-smoke job, and
    every committed root BENCH_*.json baseline is handed to the regression
    gate there: a bench nothing runs, or a baseline nothing gates, rots
    unseen."""
    bench_dir = os.path.join(root, "bench")
    benches = sorted(
        stem for stem, ext in map(os.path.splitext, os.listdir(bench_dir))
        if ext == ".cc") if os.path.isdir(bench_dir) else []
    baselines = sorted(name for name in os.listdir(root)
                       if BASELINE_RE.fullmatch(name))
    ci_path = os.path.join(root, CI_FILE)
    job = ci_job(read(ci_path), BENCH_JOB) if os.path.exists(ci_path) \
        else None
    if job is None:
        if benches or baselines:
            errors.append(f"bench-gated: {CI_FILE} has no {BENCH_JOB} job "
                          f"to build, run and gate bench/")
        return
    job = strip_shell_comments(job)
    built = set()
    for targets in BUILD_TARGETS_RE.findall(job):
        built.update(targets.split())
    for stem in benches:
        if stem not in built:
            errors.append(
                f"bench-gated: bench/{stem}.cc is not built by CI's "
                f"{BENCH_JOB} job (no --target {stem}) — build and run it, "
                f"or delete the bench")
        elif not re.search(rf"\./{re.escape(stem)}\b", job):
            errors.append(
                f"bench-gated: bench/{stem}.cc is built but never run by "
                f"CI's {BENCH_JOB} job (no ./{stem} step)")
    gate_at = job.find(BENCH_GATE)
    gate_step = re.split(r"\n\s*- name:", job[gate_at:])[0] \
        if gate_at >= 0 else ""
    for name in baselines:
        if not re.search(rf"(?<![\w/.-]){re.escape(name)}\b", gate_step):
            errors.append(
                f"bench-gated: {name} is not passed to {BENCH_GATE} in CI's "
                f"{BENCH_JOB} job — gate it, or delete the orphaned "
                f"baseline")


def strip_code(text):
    """Comments, string and char literals, and preprocessor lines removed:
    what is left names only what the code itself uses."""
    text = strip_comments(text)
    text = re.sub(r'"(?:\\.|[^"\\\n])*"', '""', text)
    text = re.sub(r"'(?:\\.|[^'\\\n])+'", "''", text)
    return re.sub(r"^[ \t]*#.*(?:\\\n.*)*", "", text, flags=re.MULTILINE)


def is_declaration(text, pos):
    """True when the name at `pos`, followed by `(`, is declared or defined
    there: it follows a return type (`Status Foo(`, `Foo* Bar(`), or a
    return type and a qualifier (`Status Foo::Bar(`)."""
    before = text[max(0, pos - 256):pos].rstrip()
    while before.endswith("::"):
        before = re.sub(r"\w*$", "", before[:-2].rstrip()).rstrip()
    if before.endswith("->"):
        return False
    word = re.search(r"\w+$", before)
    if word:
        return word.group(0) not in CALL_PREFIX_WORDS
    return bool(re.search(r"(?:>|\w[*&]+)$", before))


def scope_opened(head):
    """True when a `{` after `head` opens a namespace or class body, where
    declarations live, rather than a function body or an initializer."""
    head = re.sub(r"\b(?:public|private|protected)\s*:", "", head)
    head = re.sub(r"^\s*template\s*<[^;{}]*?>", "", head)
    return bool(re.match(r"\s*(?:namespace|class|struct|union|extern)\b",
                         head))


def declared_functions(text):
    """Names of the functions `text` declares at namespace or class scope."""
    names = set()
    scopes = []  # True per open brace that opened a namespace or class
    head_start = 0
    for match in re.finditer(r"[{};]|\b[A-Za-z_]\w*(?=\s*\()", text):
        token = match.group(0)
        if token == "{":
            scopes.append(scope_opened(text[head_start:match.start()]))
        elif token == "}" and scopes:
            scopes.pop()
        elif token not in "{};" and all(scopes) and \
                token not in NOT_FUNCTION_NAMES and \
                re.search(r"[a-z]", token) and \
                not token.startswith("__") and \
                is_declaration(text, match.start()):
            names.add(token)
        if token in "{};":
            head_start = match.end()
    return names


def referenced_names(text):
    """Every name `text` uses other than where it declares or defines a
    function of that name."""
    return {match.group(0) for match in NAME_RE.finditer(text)
            if not (OPEN_PAREN_RE.match(text, match.end()) and
                    is_declaration(text, match.start()))}


def matching_brace(text, open_at):
    """Index of the `}` closing the `{` at `open_at` (or the text's end)."""
    depth = 0
    for match in BRACE_RE.finditer(text, open_at):
        depth += 1 if match.group(0) == "{" else -1
        if depth == 0:
            return match.start()
    return len(text)


def body_owner(head):
    """The function whose body a `{` after `head` opens: the first name the
    head calls (`Status Foo::Bar(...) const`, `Foo::Foo(...) : a_(x)`), or
    None when it calls none (a lambda, an operator, an initializer)."""
    for match in CALLED_NAME_RE.finditer(head):
        name = match.group(0)
        if name not in NOT_FUNCTION_NAMES and not name.startswith("__"):
            return name
    return None


def split_function_bodies(text):
    """Splits code into the bodies of the functions it defines at namespace
    or class scope and the text outside them: ({name: [body, ...]},
    outside). Braces at that scope that open no function stay outside."""
    bodies = {}
    outside = []
    out_start = 0
    pos = 0
    while match := BRACE_OR_SEMICOLON_RE.search(text, pos):
        at = match.start()
        head = text[pos:at]
        pos = at + 1
        if match.group(0) != "{" or scope_opened(head):
            continue
        end = matching_brace(text, at)
        owner = body_owner(head)
        if owner is not None:
            outside.append(text[out_start:at])
            bodies.setdefault(owner, []).append(text[at + 1:end])
            out_start = end + 1
        pos = end + 1
    outside.append(text[out_start:])
    return bodies, "".join(outside)


def reach(roots, uses):
    """Every name reachable from `roots` through the names the bodies of
    each reached name's functions use."""
    reached = set(roots)
    frontier = list(reached)
    while frontier:
        for name in uses.get(frontier.pop(), ()):
            if name not in reached:
                reached.add(name)
                frontier.append(name)
    return reached


def check_program_reached(root, errors):
    """A function only tests call is code to keep in step for nothing:
    every function a src/ header declares is reached from a program. Reach
    is a fixed point over function bodies, seeded from every `main`, the
    allowlist and the code outside function bodies (declarations and
    initializers): a reached name reaches every name the bodies of its
    functions use. So a dead call chain is reported whole in one run."""
    declared = {}  # name -> first declaring header
    uses = {}  # function name -> names its bodies use
    roots = {"main"}
    for path in source_files(root, PROGRAM_DIRS):
        rel = os.path.relpath(path, root)
        text = strip_code(read(path))
        bodies, outside = split_function_bodies(text)
        roots |= referenced_names(outside)
        for name, texts in bodies.items():
            for body in texts:
                uses.setdefault(name, set()).update(referenced_names(body))
        if rel.endswith(".h") and len(rel.split(os.sep)) == 3 and \
                rel.startswith("src" + os.sep):
            for name in declared_functions(text):
                declared.setdefault(name, rel)
    reached = reach(roots | set(PROGRAM_REACHED_ALLOWLIST), uses)
    for name in sorted(set(declared) - reached,
                       key=lambda n: (declared[n], n)):
        errors.append(
            f"program-reached: {name} ({declared[name]}) is reached by no "
            f"program in {'/, '.join(PROGRAM_DIRS)}/ — delete it with "
            f"its tests, or allowlist it with a reason")
    reached_by_programs = reach(roots, uses)
    for name in sorted(PROGRAM_REACHED_ALLOWLIST):
        if name not in declared or name in reached_by_programs:
            errors.append(
                f"program-reached: allowlist entry {name} names no "
                f"unreached function in a src/ header — drop the stale "
                f"entry")


CHECKS = (
    check_failpoint_catalog,
    check_wire_status_codes,
    check_exit_codes,
    check_subsystem_readmes,
    check_raw_mutex,
    check_one_front_end,
    check_one_shard_dispatch,
    check_one_engine_pass,
    check_examples_exercised,
    check_readme_quickstart,
    check_bench_gated,
    check_program_reached,
    check_one_page_mapper,
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
