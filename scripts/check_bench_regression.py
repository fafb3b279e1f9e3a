#!/usr/bin/env python3
"""Bench-regression gate for the blocked kernels, the query paths and shard
scaling.

Compares freshly measured bench JSON against the committed baselines and
fails (exit 1) when a hardware-normalized number regressed by more than the
tolerance.

Raw ns/ms numbers are machine-dependent — CI runners are not the machine
that produced the committed baselines — so every gated number is a ratio
measured *within one run*:

- kernels (BENCH_kernels.json): the blocked-vs-scalar speedup. The scalar
  reference loop is deliberately plain, making it a stable yardstick across
  microarchitectures: a fresh speedup below (1 - tolerance) x the baseline
  speedup means the blocked kernel lost ground in hardware-normalized
  terms, i.e. a real code regression rather than a slower runner.
- query sweep (BENCH_query.json "query_sweep" rows): the exact-mode
  (jump=off) query's vectorized window-major sweep vs the scalar pair-major
  cell loop, same hardware-normalized treatment — plus two absolute
  within-run properties: speedup >= MIN_SWEEP_SPEEDUP at n_series >= 256
  (the acceptance bar of the sweep kernel) and time-to-first-window
  strictly below the full sweep (the engine-level streaming property).
- query jump (BENCH_query.json "query_jump" rows): the approx tier's jump
  walk at or below the exact sweep's latency on uncached windows, both
  timed within one run against one index — what Eq. 2 jumping buys a
  deadline-bound client; an approx tier slower than exact has lost its
  reason to exist. The speedup magnitude is informational.
- wire shard scaling (BENCH_wire.json): the "wire_shard_cold" rows measure
  the same query served cold through a 1-shard and a K-shard ShardRouter
  fan-out, within one run. Correctness invariants (zero failures/mismatches,
  every request completed, every shard saw every request) gate on any
  hardware; the scaling ratio — K=4 cold throughput >= 2.5x the K=1 row —
  only gates when the run had at least 4 cores (rows mark themselves
  "skipped" otherwise, where the ratio measures scheduler timeslicing, not
  the router's fan-out).

Usage:
  check_bench_regression.py --baseline BENCH_kernels.json \
      --fresh build/BENCH_kernels.json [--tolerance 0.25] \
      [--query-baseline BENCH_query.json \
       --query-fresh build/BENCH_query.json] \
      [--wire-baseline BENCH_wire.json \
       --wire-fresh build/BENCH_wire.json]
"""

import argparse
import json
import sys

# Absolute floor for the sweep-vs-scalar exact-query speedup at
# n_series >= 256: the vectorized banded sweep wins >= ~2.5x on measured
# machines; a sweep that cannot hold 2x over the deliberately plain scalar
# loop has lost its reason to exist (the band/kernel regressed), regardless
# of the runner.
MIN_SWEEP_SPEEDUP = 2.0
MIN_SWEEP_SPEEDUP_N = 256


def load_entries(path, key_fields):
    with open(path) as f:
        data = json.load(f)
    entries = {}
    for entry in data:
        key = tuple(entry.get(field) for field in key_fields)
        entries[key] = entry
    return entries


def check_ratio_floor(name, key, baseline, fresh, field, tolerance, failures):
    """Gates `field` (higher is better) at (1 - tolerance) x baseline."""
    base_value = baseline[field]
    fresh_value = fresh[field]
    floor = (1.0 - tolerance) * base_value
    ok = fresh_value >= floor
    print(f"{name:<20} {str(key):>14} {base_value:>13.3f} "
          f"{fresh_value:>14.3f} {floor:>8.3f}  "
          f"{'ok' if ok else 'REGRESSED'}")
    if not ok:
        failures.append(
            f"{name} {key}: {field} {fresh_value:.3f} < floor {floor:.3f} "
            f"(baseline {base_value:.3f}, tolerance {tolerance:.0%})")


def gate_kernels(baseline_path, fresh_path, tolerance, failures):
    baseline = load_entries(baseline_path, ("kernel", "n_series"))
    fresh = load_entries(fresh_path, ("kernel", "n_series"))
    print(f"{'bench':<20} {'key':>14} {'baseline':>13} "
          f"{'fresh':>14} {'bound':>8}  verdict")
    for key, base_entry in sorted(baseline.items()):
        fresh_entry = fresh.get(key)
        if fresh_entry is None:
            failures.append(f"kernel {key}: missing from fresh run")
            print(f"{'kernel':<20} {str(key):>14} {'-':>13} {'-':>14} "
                  f"{'-':>8}  MISSING")
            continue
        check_ratio_floor("kernel", key, base_entry, fresh_entry, "speedup",
                          tolerance, failures)


def gate_query(baseline_path, fresh_path, tolerance, failures):
    baseline = load_entries(baseline_path, ("bench", "n_series"))
    fresh = load_entries(fresh_path, ("bench", "n_series"))
    for key, base_entry in sorted(baseline.items()):
        bench, n = key
        fresh_entry = fresh.get(key)
        if fresh_entry is None:
            failures.append(f"{bench} n={n}: missing from fresh run")
            print(f"{bench:<20} {str(key):>14} {'-':>13} {'-':>14} "
                  f"{'-':>8}  MISSING")
            continue
        if bench == "query_jump":
            # Hard acceptance: the approx (Eq. 2 jumping) tier must answer
            # at or below the exact tier's uncached latency — both measured
            # within this run against one index, so the ratio is
            # hardware-independent. The speedup magnitude is informational
            # (it tracks how much the workload's correlations sit below
            # threshold); approx > exact means the jumping path regressed.
            ok = fresh_entry["approx_ms"] <= fresh_entry["exact_ms"]
            print(f"{bench:<20} {str(key):>14} "
                  f"{base_entry['approx_speedup']:>13.2f} "
                  f"{fresh_entry['approx_speedup']:>14.2f} {'>= 1.0':>8}  "
                  f"{'ok' if ok else 'REGRESSED'}")
            if not ok:
                failures.append(
                    f"{bench} n={n}: approx {fresh_entry['approx_ms']:.3f} ms "
                    f"is above the exact uncached latency "
                    f"{fresh_entry['exact_ms']:.3f} ms")
            continue
        # Hardware-normalized floor against the committed baseline, like the
        # build kernels.
        check_ratio_floor(bench, key, base_entry, fresh_entry, "speedup",
                          tolerance, failures)
        # Absolute acceptance floor at scale: the sweep must hold >= 2x over
        # the scalar cell loop where it matters.
        if n >= MIN_SWEEP_SPEEDUP_N and \
                fresh_entry["speedup"] < MIN_SWEEP_SPEEDUP:
            failures.append(
                f"{bench} n={n}: speedup {fresh_entry['speedup']:.3f} < "
                f"absolute floor {MIN_SWEEP_SPEEDUP:.1f}")
        # Engine-level streaming: first window strictly before the full
        # sweep (the fraction itself is informational — band/num_windows).
        if fresh_entry["ttfw_ms"] >= fresh_entry["full_ms"]:
            failures.append(
                f"{bench} n={n}: engine ttfw {fresh_entry['ttfw_ms']:.3f} ms "
                f"is not below the full sweep "
                f"{fresh_entry['full_ms']:.3f} ms")


# The router's acceptance bar: cold exact throughput at K=4 shards must be
# at least this multiple of the K=1 row, measured within one run on a
# machine with >= 4 cores (below that the shards timeslice one core and the
# ratio measures the scheduler).
MIN_SHARD_SCALING = 2.5
SHARD_SCALING_K = 4


def gate_wire_shard_scaling(baseline_path, fresh_path, failures):
    baseline = load_entries(baseline_path, ("bench", "shards"))
    fresh = load_entries(fresh_path, ("bench", "shards"))
    fresh_by_k = {}
    for key, base_entry in sorted(
            (k, v) for k, v in baseline.items() if k[0] == "wire_shard_cold"):
        bench, shards = key
        fresh_entry = fresh.get(key)
        if fresh_entry is None:
            failures.append(f"{bench} K={shards}: missing from fresh run")
            print(f"{bench:<20} {str(key):>14} {'-':>13} {'-':>14} "
                  f"{'-':>8}  MISSING")
            continue
        fresh_by_k[shards] = fresh_entry
        # Correctness invariants gate on any hardware, skipped or not: a
        # failure or a shard that missed a request is a router bug, never a
        # slow runner.
        problems = []
        if fresh_entry["failures"] != 0:
            problems.append(f"{fresh_entry['failures']} failures")
        if fresh_entry["window_mismatches"] != 0:
            problems.append(
                f"{fresh_entry['window_mismatches']} delivered-window "
                f"accounting mismatches")
        if fresh_entry["completed"] != fresh_entry["total_requests"]:
            problems.append(
                f"completed {fresh_entry['completed']} of "
                f"{fresh_entry['total_requests']} requests")
        per_shard = fresh_entry["per_shard_requests"]
        if len(per_shard) != shards or \
                any(n != fresh_entry["total_requests"] for n in per_shard):
            problems.append(
                f"per-shard request counts {per_shard} != "
                f"{fresh_entry['total_requests']} on each of {shards} shards")
        for percentile in ("p50", "p99"):
            ttfw = fresh_entry[f"ttfw_{percentile}_ms"]
            total = fresh_entry[f"{percentile}_ms"]
            if ttfw > total:
                problems.append(
                    f"ttfw_{percentile} {ttfw:.3f} ms above total "
                    f"{percentile} {total:.3f} ms")
        ok = not problems
        print(f"{bench:<20} {str(key):>14} "
              f"{base_entry['throughput_rps']:>13.2f} "
              f"{fresh_entry['throughput_rps']:>14.2f} {'invariant':>9}  "
              f"{'ok' if ok else 'REGRESSED'}")
        for problem in problems:
            failures.append(f"{bench} K={shards}: {problem}")

    one = fresh_by_k.get(1)
    gated = fresh_by_k.get(SHARD_SCALING_K)
    if one is None or gated is None:
        failures.append(
            f"wire_shard_cold: need both K=1 and K={SHARD_SCALING_K} rows "
            f"for the scaling gate, have K={sorted(fresh_by_k)}")
        return
    if one.get("skipped") or gated.get("skipped"):
        print(f"{'wire_shard_scaling':<20} {'K=' + str(SHARD_SCALING_K):>14} "
              f"{'-':>13} {'-':>14} {'-':>8}  skipped "
              f"(only {gated.get('cores')} cores)")
        return
    ratio = (gated["throughput_rps"] / one["throughput_rps"]
             if one["throughput_rps"] > 0 else 0.0)
    ok = ratio >= MIN_SHARD_SCALING
    print(f"{'wire_shard_scaling':<20} {'K=' + str(SHARD_SCALING_K):>14} "
          f"{one['throughput_rps']:>13.2f} {gated['throughput_rps']:>14.2f} "
          f"{'>= ' + format(MIN_SHARD_SCALING, '.1f') + 'x':>8}  "
          f"{'ok' if ok else 'REGRESSED'}")
    if not ok:
        failures.append(
            f"wire_shard_cold: K={SHARD_SCALING_K} cold throughput "
            f"{gated['throughput_rps']:.2f} rps is {ratio:.2f}x the K=1 "
            f"row ({one['throughput_rps']:.2f} rps), below the "
            f"{MIN_SHARD_SCALING:.1f}x scaling floor")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_kernels.json")
    parser.add_argument("--fresh", required=True,
                        help="JSON emitted by this run's bench_microkernels")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional speedup loss (default 0.25)")
    parser.add_argument("--query-baseline",
                        help="committed BENCH_query.json")
    parser.add_argument("--query-fresh",
                        help="JSON emitted by this run's bench_query_time")
    parser.add_argument("--wire-baseline",
                        help="committed BENCH_wire.json")
    parser.add_argument("--wire-fresh",
                        help="JSON emitted by this run's bench_wire (gates "
                             "its wire_shard_cold rows: K=4 cold throughput "
                             ">= 2.5x K=1, vacuous below 4 cores)")
    args = parser.parse_args()

    failures = []
    gate_kernels(args.baseline, args.fresh, args.tolerance, failures)
    if args.query_baseline and args.query_fresh:
        gate_query(args.query_baseline, args.query_fresh, args.tolerance,
                   failures)
    elif args.query_baseline or args.query_fresh:
        print("need both --query-baseline and --query-fresh",
              file=sys.stderr)
        return 2
    if args.wire_baseline and args.wire_fresh:
        gate_wire_shard_scaling(args.wire_baseline, args.wire_fresh, failures)
    elif args.wire_baseline or args.wire_fresh:
        print("need both --wire-baseline and --wire-fresh", file=sys.stderr)
        return 2

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
