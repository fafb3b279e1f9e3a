#!/usr/bin/env python3
"""Fixture tests for check_invariants.py — the linter that guards the
linters needs its own proof it still fires.

Builds a minimal conforming repo tree in a tempdir, asserts it passes,
then breaks one invariant per case and asserts the check fails with a
message pointing at the actual drift:
  - a failpoint site missing its src/common/README.md catalog row (and
    the reverse: a stale catalog row naming no site),
  - a status-code table in docs/WIRE_PROTOCOL.md drifted from the enum,
  - an exit-code table drifted from kExitCodeSpecs,
  - a subsystem directory with no README,
  - a stray raw std::mutex outside src/common/sync.h,
  - a listener or epoll loop outside src/net/wire_server.cc,
  - a second mmap site outside src/common/sketch_block.cc,
  - a second ConnectWithRetry( call site under src/router/,
  - a second OnWindow( call site in src/engine/dangoron_engine.cc,
  - an example no add_test or test script runs, and a dangoron_serverd
    subcommand only a script comment mentions or nothing invokes,
  - a README.md quickstart block drifted from examples/quickstart.cc,
  - a bench/ program CI's bench-smoke job does not build, or builds but
    only names in a comment, and a committed BENCH_*.json baseline the
    regression gate is not given,
  - a function a src/ header declares that only tests/ call, or that
    program code only declares, defines or mentions in prose, a dead call
    chain (each of its three names in the one run), and a stale allowlist
    entry,
  - a factory option key src/engine/factory.cc consumes that the
    factory.h doc omits (for an engine and for CreateServer), a documented
    key the factory does not consume, and a `common:` key an engine
    rejects.

Exit 0 when every case behaves, 1 otherwise.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_invariants  # noqa: E402


CLEAN_STATUS_H = """
enum class StatusCode : int8_t {
  kOk = 0,
  kInternal = 1,
};
"""

CLEAN_WIRE_DOC = """
### 5.3 Status (type 3)

```
varint  code            0 Ok, 1 Internal
varint  message length
```
"""

CLEAN_CLI_CC = """
constexpr ExitCodeSpec kExitCodeSpecs[] = {
    {0, "success"},
    {1, "generic failure"},
};

int Run(std::string_view command) {
  if (command == "serve") {
    return RunServe();
  }
  if (command == "run") {
    return RunEngine();
  }
  if (command == "route") {
    return RunRoute();
  }
  return 2;
}

int RunEngine() {
  return CreateEngine("naive").ok() && CreateServer().ok() ? 0 : 1;
}

int RunRoute() {
  ShardRouter router;
  return router.Place(0).ok() ? 0 : 1;
}

int main(int argc, char** argv) { return Run(argv[1]); }
"""

CLEAN_CMAKE = """
add_test(NAME quickstart COMMAND quickstart)
add_test(NAME cli_smoke
         COMMAND bash ${CMAKE_CURRENT_SOURCE_DIR}/scripts/cli_smoke.sh
                 $<TARGET_FILE_DIR:dangoron_serverd>)
"""

CLEAN_CLI_SMOKE = """
# `serve` answers `query` below.
dangoron_serverd() { "$BUILD/dangoron_serverd" "$@"; }
expect_exit 0 dangoron_serverd run d.csv naive 192 96 0.6 b.csv
"$BUILD/dangoron_serverd" serve d.csv port=0 >serve.txt &
"""

CLEAN_ROUTER_SMOKE = """
# route forks `serve` children
"$BUILD/dangoron_serverd" route "$WORK/data.csv" spawn=2 &
"""

CLEAN_QUICKSTART = """// The README's quickstart.
// README quickstart begin
int main() {
  return 0;
}
// README quickstart end
"""

CLEAN_README = """
## Quickstart

```cpp
int main() {
  return 0;
}
```
"""

CLEAN_ARCH_DOC = """
## CLI exit codes

| Code | Meaning |
| --- | --- |
| `0` | success |
| `1` | generic failure |
"""

CLEAN_COMMON_README = """
# common/

| Site | Where | Macro | What it exercises |
| --- | --- | --- | --- |
| `serve.prepare` | src/serve/server.cc | `DANGORON_FAILPOINT` | prepare failure |
"""

CLEAN_SERVER_CC = """
#include "common/sync.h"
void Prepare() {
  DANGORON_FAILPOINT("serve.prepare");
}
"""

CLEAN_SHARD_ROUTER_H = """
class ShardRouter {
  Result<std::unique_ptr<WireClient>> ConnectWithRetry(
      int shard, std::chrono::steady_clock::time_point deadline);
};
"""

CLEAN_SHARD_ROUTER_CC = """
Result<std::unique_ptr<WireClient>> ShardRouter::ConnectWithRetry(
    int shard, std::chrono::steady_clock::time_point deadline) {
  return Connect(shard);
}

Result<std::vector<ShardSlice>> ShardRouter::Place(int shard) {
  Result<std::unique_ptr<WireClient>> client =
      ConnectWithRetry(shard, deadline);
  return Wrap(client);
}
"""

CLEAN_ENGINE_CC = """
Status RunWindowMajorSweep(WindowSink* sink) {
  // Each band's windows leave through sink->OnWindow(k, ...) below.
  for (int64_t k = 0; k < num_windows; ++k) {
    if (!sink->OnWindow(k, arena.AssembleWindow(k))) {
      return FinishCancelled(sink, "DangoronEngine", k);
    }
  }
  return Status::Ok();
}
"""

CLEAN_FACTORY_H = """
/// Constructs an engine by name.
///
/// Options (comma separated):
///   naive:     (none)
///   dangoron:  jump=<on|off>,
///              threads=<int>
///
/// Example: CreateEngine("dangoron", "jump=on").
Result<std::unique_ptr<CorrelationEngine>> CreateEngine(
    const std::string& name, const std::string& options_text = "");

/// Constructs a server.
///
///   threads=<int>            worker threads
///   degrade=<off|auto>       default degradation policy
Result<std::unique_ptr<DangoronServer>> CreateServer(
    const std::string& options_text = "");
"""

CLEAN_FACTORY_CC = """
Result<std::unique_ptr<CorrelationEngine>> CreateEngine(
    const std::string& name, const std::string& options_text) {
  if (name == "naive") {
    RETURN_IF_ERROR(RejectLeftovers(options, name));
    return std::unique_ptr<CorrelationEngine>(new NaiveEngine());
  }
  if (name == "dangoron") {
    RETURN_IF_ERROR(ConsumeBool(&options, "jump", &jump));
    RETURN_IF_ERROR(ConsumeInt(&options, "threads", 0, kInt32Max, &threads));
    // Prose naming ConsumeInt(&options, "pivots", ...) consumes nothing.
    return MakeDangoron(jump, threads);
  }
  return Status::NotFound("unknown engine");
}

Result<std::unique_ptr<DangoronServer>> CreateServer(
    const std::string& options_text) {
  RETURN_IF_ERROR(ConsumeInt(&options, "threads", 0, kInt32Max, &threads));
  RETURN_IF_ERROR(Consume(&options, "degrade", [&](const std::string& v) {
    return ParseDegrade(v);
  }));
  return MakeServer(threads);
}
"""

CLEAN_BENCH_CC = "int main() { return 0; }\n"

HELPER_H = """
class Shard {
 public:
  Result<int> Probe(int attempt) const;
};

/// Helper(x) doubles x.
int Helper(int x);
"""

HELPER_CC = """
int Helper(int x) { return 2 * x; }

Result<int> Shard::Probe(int attempt) const {
  // Retry through Probe(attempt + 1) once the shard answers.
  LOG(INFO) << "Probe(" << attempt << ")";
  return attempt;
}
"""

CHAIN_H = """
/// Top() = Middle() + 1.
int Top();
int Middle();
int Bottom();
"""

CHAIN_CC = """
int Top() { return Middle() + 1; }
int Middle() { return Bottom() + 1; }
int Bottom() { return 1; }
"""

HELPER_TEST_CC = """
TEST(HelperTest, Doubles) {
  EXPECT_EQ(Helper(2), 4);
  EXPECT_TRUE(Shard().Probe(1).ok());
}
"""


def write_helper(root, caller_dir=None, caller=""):
    write(root, "src/serve/helper.h", HELPER_H)
    write(root, "src/serve/helper.cc", HELPER_CC)
    write(root, "tests/helper_test.cc", HELPER_TEST_CC)
    if caller_dir is not None:
        write(root, f"{caller_dir}/caller.cc", caller)

CLEAN_CI = """
jobs:
  build-and-test:
    steps:
      - name: Build
        run: cmake --build build -j
  bench-smoke:
    steps:
      - name: Build benches
        run: cmake --build build -j --target bench_query_time
      - name: Run bench_query_time
        working-directory: build
        run: ./bench_query_time
      - name: Gate on bench regressions
        run: >
          python3 scripts/check_bench_regression.py
          --query-baseline BENCH_query.json
          --query-fresh build/BENCH_query.json
  docs-links:
    steps:
      - name: Check links
        run: python3 scripts/check_docs_links.py BENCH_orphan.json
"""


def write_chain(root):
    write(root, "src/serve/chain.h", CHAIN_H)
    write(root, "src/serve/chain.cc", CHAIN_CC)
    write(root, "tests/chain_test.cc",
          "TEST(ChainTest, Top) { EXPECT_EQ(Top(), 3); }\n")


def write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def make_clean_tree(root):
    write(root, "src/common/README.md", CLEAN_COMMON_README)
    write(root, "src/common/status.h", CLEAN_STATUS_H)
    write(root, "src/common/sync.h", "class Mutex { std::mutex mu_; };\n")
    write(root, "src/serve/README.md", "# serve/\n")
    write(root, "src/net/README.md", "# net/\n")
    write(root, "src/router/README.md", "# router/\n")
    write(root, "src/router/shard_router.h", CLEAN_SHARD_ROUTER_H)
    write(root, "src/router/shard_router.cc", CLEAN_SHARD_ROUTER_CC)
    write(root, "src/serve/server.cc", CLEAN_SERVER_CC)
    write(root, "src/engine/README.md", "# engine/\n")
    write(root, "src/engine/dangoron_engine.cc", CLEAN_ENGINE_CC)
    write(root, "src/engine/factory.h", CLEAN_FACTORY_H)
    write(root, "src/engine/factory.cc", CLEAN_FACTORY_CC)
    write(root, "docs/WIRE_PROTOCOL.md", CLEAN_WIRE_DOC)
    write(root, "docs/ARCHITECTURE.md", CLEAN_ARCH_DOC)
    write(root, "examples/dangoron_serverd.cc", CLEAN_CLI_CC)
    write(root, "examples/quickstart.cc", CLEAN_QUICKSTART)
    write(root, "CMakeLists.txt", CLEAN_CMAKE)
    write(root, "scripts/cli_smoke.sh", CLEAN_CLI_SMOKE)
    write(root, "scripts/router_smoke.sh", CLEAN_ROUTER_SMOKE)
    write(root, "README.md", CLEAN_README)
    write(root, "bench/bench_query_time.cc", CLEAN_BENCH_CC)
    write(root, "BENCH_query.json", "[]\n")
    write(root, ".github/workflows/ci.yml", CLEAN_CI)


def expect(case, errors, *substrings):
    """Every substring must appear in some error line; no substring set
    means the case must produce zero errors."""
    if not substrings:
        if errors:
            print(f"FAIL [{case}]: expected a clean pass, got:")
            for error in errors:
                print(f"    {error}")
            return False
        print(f"ok   [{case}]: clean tree passes")
        return True
    for substring in substrings:
        if not any(substring in error for error in errors):
            print(f"FAIL [{case}]: no error mentions '{substring}'; got:")
            for error in errors or ["(no errors at all)"]:
                print(f"    {error}")
            return False
    print(f"ok   [{case}]: fails and names the drift")
    return True


def run_case(case, mutate, *substrings, allowlist=None):
    check_invariants.PROGRAM_REACHED_ALLOWLIST = allowlist or {}
    with tempfile.TemporaryDirectory() as root:
        make_clean_tree(root)
        mutate(root)
        return expect(case, check_invariants.run_checks(root), *substrings)


def main():
    results = [
        run_case("clean-tree", lambda root: None),
        run_case(
            "uncataloged-failpoint",
            lambda root: write(
                root, "src/serve/server.cc",
                CLEAN_SERVER_CC + 'void F() { DANGORON_FAILPOINT_STATUS'
                                  '("serve.rogue_site"); }\n'),
            "failpoint-catalog", "serve.rogue_site",
            "src/serve/server.cc"),
        run_case(
            "stale-catalog-row",
            lambda root: write(
                root, "src/common/README.md",
                CLEAN_COMMON_README +
                "| `serve.retired_site` | gone | `X` | nothing |\n"),
            "failpoint-catalog", "serve.retired_site", "stale"),
        run_case(
            "drifted-status-table",
            lambda root: write(
                root, "docs/WIRE_PROTOCOL.md",
                CLEAN_WIRE_DOC.replace("1 Internal", "1 IoError")),
            "wire-status", "kInternal", "IoError"),
        run_case(
            "drifted-exit-table",
            lambda root: write(
                root, "docs/ARCHITECTURE.md",
                CLEAN_ARCH_DOC.replace("| `1` | generic failure |",
                                       "| `1` | something else |")),
            "exit-codes", "generic failure", "something else"),
        run_case(
            "missing-subsystem-readme",
            lambda root: write(root, "src/wire/format.cc", "\n"),
            "subsystem-readmes", "src/wire/"),
        run_case(
            "stray-raw-mutex",
            lambda root: write(
                root, "src/serve/rogue.h",
                "#include <mutex>\nstd::mutex raw_;  // not the wrapper\n"),
            "raw-mutex", "src/serve/rogue.h:2", "std::mutex"),
        run_case(
            "second-listener",
            lambda root: write(
                root, "src/serve/listener.cc",
                "void Start(int fd) {\n  ::listen(fd, 128);\n}\n"),
            "one-front-end", "src/serve/listener.cc:2", "listen("),
        run_case(
            "second-epoll-loop",
            lambda root: write(
                root, "src/serve/loop.cc",
                "int fd = epoll_create1(0);\n"),
            "one-front-end", "src/serve/loop.cc:1", "epoll_create1("),
        run_case(
            "wire-server-listener-is-fine",
            lambda root: write(
                root, "src/net/wire_server.cc",
                "void Start(int fd) {\n  listen(fd, 128);\n"
                "  accept4(fd, nullptr, nullptr, 0);\n}\n")),
        run_case(
            "second-mmap-site",
            lambda root: write(
                root, "src/serve/mapped_file.cc",
                "// mmap( in a comment is fine\n"
                "void* Map(size_t n) {\n"
                "  return mmap(nullptr, n, PROT_READ, MAP_PRIVATE, -1, 0);\n"
                "}\n"),
            "one-page-mapper", "src/serve/mapped_file.cc:3", "mmap("),
        run_case(
            "sketch-block-mmap-is-fine",
            lambda root: write(
                root, "src/common/sketch_block.cc",
                "void Map(size_t n) {\n"
                "  void* p = mmap(nullptr, n, 0, 0, -1, 0);\n"
                "  madvise(p, n, MADV_HUGEPAGE);\n  munmap(p, n);\n}\n")),
        run_case(
            "second-shard-connect-site",
            lambda root: write(
                root, "src/router/router_server.cc",
                "Status Probe(ShardRouter* router) {\n"
                "  return router->ConnectWithRetry(0, Deadline()).status();\n"
                "}\n"),
            "one-shard-dispatch", "2 call sites",
            "src/router/router_server.cc:2"),
        run_case(
            "shard-connect-in-prose-is-fine",
            lambda root: write(
                root, "src/router/shard_merge.h",
                "// The router reconnects through ConnectWithRetry(shard)\n"
                "/* before a failover; see ConnectWithRetry( in Place. */\n"
                "int x;\n")),
        run_case(
            "second-window-emit-site",
            lambda root: write(
                root, "src/engine/dangoron_engine.cc",
                CLEAN_ENGINE_CC +
                "Status RunJumpBlocks(WindowSink* sink) {\n"
                "  sink->OnWindow(0, {});\n"
                "  return Status::Ok();\n}\n"),
            "one-engine-pass", "2 call sites", "src/engine/dangoron_engine.cc"),
        run_case(
            "unexercised-example",
            lambda root: write(root, "examples/orphan_demo.cc",
                               "int main() { return 0; }\n"),
            "examples-exercised", "examples/orphan_demo.cc"),
        run_case(
            "example-with-ctest-is-fine",
            lambda root: (
                write(root, "examples/orphan_demo.cc",
                      "int main() { return 0; }\n"),
                write(root, "CMakeLists.txt",
                      CLEAN_CMAKE +
                      "add_test(NAME orphan_demo COMMAND orphan_demo)\n"))),
        run_case(
            "uninvoked-subcommand",
            lambda root: write(
                root, "examples/dangoron_serverd.cc",
                CLEAN_CLI_CC.replace(
                    "  return 2;\n}",
                    "  if (command == \"generate\") {\n"
                    "    return RunGenerate();\n  }\n  return 2;\n}")),
            "examples-exercised", "`dangoron_serverd generate`"),
        run_case(
            "subcommand-only-in-a-comment",
            lambda root: write(
                root, "scripts/cli_smoke.sh",
                CLEAN_CLI_SMOKE.replace(
                    '"$BUILD/dangoron_serverd" serve d.csv port=0', "")),
            "examples-exercised", "`dangoron_serverd serve`"),
        run_case(
            "drifted-readme-quickstart",
            lambda root: write(
                root, "README.md",
                CLEAN_README.replace("return 0;", "return 1;")),
            "readme-quickstart", "examples/quickstart.cc"),
        run_case(
            "unmarked-quickstart",
            lambda root: write(
                root, "examples/quickstart.cc",
                CLEAN_QUICKSTART.replace("// README quickstart end\n", "")),
            "readme-quickstart", "region"),
        run_case(
            "unbuilt-bench",
            lambda root: write(root, "bench/bench_orphan.cc",
                               CLEAN_BENCH_CC),
            "bench-gated", "bench/bench_orphan.cc", "not built"),
        run_case(
            "bench-run-only-in-a-comment",
            lambda root: (
                write(root, "bench/bench_orphan.cc", CLEAN_BENCH_CC),
                write(root, ".github/workflows/ci.yml",
                      CLEAN_CI.replace(
                          "--target bench_query_time",
                          "--target bench_query_time bench_orphan").replace(
                          "      - name: Gate",
                          "      # ./bench_orphan retired\n"
                          "      - name: Gate"))),
            "bench-gated", "bench/bench_orphan.cc", "never run"),
        run_case(
            "ungated-baseline",
            lambda root: write(root, "BENCH_orphan.json", "[]\n"),
            "bench-gated", "BENCH_orphan.json", "orphaned"),
        run_case(
            "fresh-path-only-is-not-a-gate",
            lambda root: write(
                root, ".github/workflows/ci.yml",
                CLEAN_CI.replace("--query-baseline BENCH_query.json\n", "")),
            "bench-gated", "BENCH_query.json"),
        run_case(
            "test-only-functions",
            write_helper,
            "program-reached", "Helper (src/serve/helper.h)",
            "Probe (src/serve/helper.h)"),
        run_case(
            "function-reached-by-a-program-is-fine",
            lambda root: write_helper(
                root, "perfbench",
                "int main() {\n  Shard shard;\n"
                "  return Helper(shard.Probe(1).value());\n}\n")),
        run_case(
            "member-call-through-a-pointer-is-a-use",
            lambda root: write_helper(
                root, "src/net",
                "int ProbeOnce(const Shard* shard) {\n"
                "  return Helper(shard->Probe(0).value());\n}\n"
                "int main() {\n  Shard shard;\n"
                "  return ProbeOnce(&shard);\n}\n")),
        run_case(
            "dead-call-chain-is-reported-whole",
            write_chain,
            "program-reached", "Top (src/serve/chain.h)",
            "Middle (src/serve/chain.h)", "Bottom (src/serve/chain.h)"),
        run_case(
            "declared-but-only-defined-in-a-program",
            lambda root: write_helper(
                root, "perfbench",
                "int Helper(int x);\n"
                "Result<int> Shard::Probe(int attempt) const;\n"),
            "program-reached", "Helper", "Probe"),
        run_case(
            "allowlisted-function-is-fine",
            lambda root: write_helper(
                root, "perfbench",
                "int main() { return Shard().Probe(1).value(); }\n"),
            allowlist={"Helper": "the oracle a test compares against"}),
        run_case(
            "stale-allowlist-entry",
            lambda root: None,
            "program-reached", "Retired", "stale",
            allowlist={"Retired": "deleted long ago"}),
        run_case(
            "undocumented-engine-key",
            lambda root: write(
                root, "src/engine/factory.cc",
                CLEAN_FACTORY_CC.replace(
                    "    return MakeDangoron",
                    "    RETURN_IF_ERROR(ConsumeInt(&options, \"max_jump\", "
                    "0, kInt64Max, &max_jump));\n    return MakeDangoron")),
            "engine-option-catalog", "engine 'dangoron' consumes 'max_jump'"),
        run_case(
            "undocumented-server-key",
            lambda root: write(
                root, "src/engine/factory.h",
                CLEAN_FACTORY_H.replace(
                    "///   degrade=<off|auto>       default degradation "
                    "policy\n", "")),
            "engine-option-catalog", "CreateServer consumes 'degrade'"),
        run_case(
            "documented-key-the-factory-rejects",
            lambda root: write(
                root, "src/engine/factory.h",
                CLEAN_FACTORY_H.replace(
                    "///              threads=<int>\n",
                    "///              threads=<int>, pivots=<int>\n")),
            "engine-option-catalog", "documents 'pivots' for engine "
                                     "'dangoron'"),
        run_case(
            "common-key-an-engine-rejects",
            lambda root: write(
                root, "src/engine/factory.h",
                CLEAN_FACTORY_H.replace(
                    "///   naive:     (none)\n",
                    "///   common:    threads=<int>\n")),
            "engine-option-catalog", "documents 'threads' for engine "
                                     "'naive'"),
        run_case(
            "commented-mutex-is-fine",
            lambda root: write(
                root, "src/serve/prose.h",
                "// wraps std::mutex so the analysis sees it\nint x;\n")),
    ]
    failed = results.count(False)
    if failed:
        print(f"invariant selftest FAILED ({failed}/{len(results)} cases)")
        return 1
    print(f"invariant selftest passed ({len(results)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
