#!/usr/bin/env python3
"""Builds the serving-stack benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny] [--corrupt-reference]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; span traces of --trace 1 runs land in its
traces/ directory. The last line of standard output is the result JSON.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the perfbench binary; returns its path or None."""
    build_dir = build_root / "perfbench"
    tmp = build_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return build_dir / "perfbench"


def source_digest():
    """SHA-256 over the library sources: the commit stamp of a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src").is_dir():
        log(f"no library sources under {ROOT / 'src'}")
        return 2
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root)
    if binary is None:
        return 2

    provenance = {"commit": commit(), "source_sha256": source_digest()}
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--provenance", json.dumps(provenance)]
    if args.trace:
        traces = build_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
