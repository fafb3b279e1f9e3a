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
  - a second ConnectWithRetry( call site under src/router/.

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

CLEAN_FLAGS_H = """
inline constexpr ExitCodeSpec kExitCodeSpecs[] = {
    {0, "success"},
    {1, "generic failure"},
};
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
    write(root, "docs/WIRE_PROTOCOL.md", CLEAN_WIRE_DOC)
    write(root, "docs/ARCHITECTURE.md", CLEAN_ARCH_DOC)
    write(root, "examples/serve_flags.h", CLEAN_FLAGS_H)


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


def run_case(case, mutate, *substrings):
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
