#!/usr/bin/env python3
"""Self-test of the serving-stack benchmark.

    python3 perfbench/selftest.py

Runs every workload once at tiny sizes — the two BENCHMARK.json gates and
the two it leaves out as too sensitive to host noise — traced and
untraced, and checks the result line against the benchmark's contract:
every named metric is printed with its unit and a finite value. It also
checks that a deliberately corrupted reference fails the run, and that the
benchmark fails without printing a result when the library sources are
missing. Run from the repository root; it builds into $CARGO_TARGET_DIR
(default .bench_build) like run.py.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WORKLOADS = ("climate_cold", "climate_approx", "dashboard_warm", "routed_exact")


def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class WorkloadTest(unittest.TestCase):
    def check_metrics(self, workload, trace, names):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_line(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        metrics = result["metrics"]
        self.assertEqual(set(metrics), set(names))
        for name, unit in names.items():
            with self.subTest(workload=workload, metric=name):
                self.assertEqual(metrics[name]["unit"], unit)
                value = metrics[name]["value"]
                self.assertIsInstance(value, (int, float))
                self.assertTrue(math.isfinite(value))
        return metrics

    def test_gated_workloads_exist(self):
        gated = [workload["name"] for workload in SPEC["workloads"]]
        self.assertLessEqual(set(gated), set(WORKLOADS))

    def test_end_to_end_metrics(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_metrics(workload, 0, names)
                for name in names:
                    self.assertGreater(metrics[name]["value"], 0, name)
                if workload != "climate_approx":
                    for name in ("edge_recall", "edge_precision"):
                        self.assertEqual(metrics[name]["value"], 1, name)

    def test_per_layer_metrics(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(workload, 1, names)

    def test_corrupted_reference_is_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--corrupt-reference")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result_line(proc)["correct"])

    def test_fails_without_library_sources(self):
        bare = BUILD_ROOT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        proc = run(WORKLOADS[0], 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result_line(proc))


if __name__ == "__main__":
    unittest.main(verbosity=2)
