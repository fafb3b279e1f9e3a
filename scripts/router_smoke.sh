#!/usr/bin/env bash
# Multi-process smoke test of the sharded serving path: a router process
# fronting forked serverd shards, queried by the stock CLI client.
#
# Scenario 1 — clean fan-out:
#   dangoron_serverd generate -> data.csv
#   dangoron_serverd route data.csv spawn=2   (forks 2 `serve` children)
#   dangoron_serverd query <router>  -> routed.csv
#   dangoron_serverd query <shard 0> -> direct.csv   (full dataset = truth)
#   cmp routed.csv direct.csv
#
# Scenario 2 — shard death:
#   dangoron_serverd route data.csv spawn=3
#   SIGKILL one shard child while a routed query is in flight
#   the query must still exit 0 with output byte-identical to direct.csv
#   (mid-stream failover / plan-time re-plan, whichever the race yields),
#   and after the supervisor respawns the child a follow-up query matches
#   too.
#
# The byte-compare is the acceptance property from the router work: a
# sharded query answers byte-identically to an unsharded one — shard
# failures included. Usage:
#
#   scripts/router_smoke.sh [build-dir]   # default: build

set -euo pipefail

BUILD="${1:-build}"
WORK="$(mktemp -d)"
ROUTER_PID=""

cleanup() {
  if [[ -n "$ROUTER_PID" ]]; then
    kill "$ROUTER_PID" 2>/dev/null || true
    wait "$ROUTER_PID" 2>/dev/null || true  # reaps its shard children too
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# Randomized ports so a stale listener from a previous run cannot collide.
ROUTER_PORT=$((20000 + RANDOM % 2000))
BASE_PORT=$((ROUTER_PORT + 1))

"$BUILD/dangoron_serverd" generate 48 2048 block pink 1 "$WORK/data.csv" \
  >/dev/null

"$BUILD/dangoron_serverd" route "$WORK/data.csv" spawn=2 \
  port="$ROUTER_PORT" base-port="$BASE_PORT" &
ROUTER_PID=$!

# The router prints its banner only once both shards answered their
# readiness probes; poll with real queries until it serves (window and step
# must be multiples of the shards' basic window, 24 by default).
QUERY=(query 127.0.0.1 "$ROUTER_PORT" data 288 96 0.3 abs)
up=""
for _ in $(seq 1 60); do
  if ! kill -0 "$ROUTER_PID" 2>/dev/null; then
    echo "router_smoke: router process died during startup" >&2
    exit 1
  fi
  if "$BUILD/dangoron_serverd" "${QUERY[@]}" "$WORK/routed.csv" \
      >/dev/null 2>&1; then
    up=1
    break
  fi
  sleep 0.25
done
if [[ -z "$up" ]]; then
  echo "router_smoke: router never answered a query" >&2
  exit 1
fi

# Every shard holds the full dataset, so shard 0 queried directly (no pair
# restriction) is the unsharded ground truth.
"$BUILD/dangoron_serverd" query 127.0.0.1 "$BASE_PORT" data 288 96 0.3 abs \
  "$WORK/direct.csv" >/dev/null

if ! cmp -s "$WORK/routed.csv" "$WORK/direct.csv"; then
  echo "router_smoke: sharded output differs from the unsharded query" >&2
  exit 1
fi
if [[ ! -s "$WORK/routed.csv" ]]; then
  echo "router_smoke: query produced no output" >&2
  exit 1
fi

echo "router_smoke: OK — 2-shard routed query byte-identical to direct query"

# ---------------------------------------------------------- shard death --
# Fresh 3-shard router on its own ports; the 2-shard one dies first so the
# cleanup trap only ever owns one router.
kill "$ROUTER_PID" 2>/dev/null || true
wait "$ROUTER_PID" 2>/dev/null || true
ROUTER_PID=""

ROUTER_PORT=$((24000 + RANDOM % 2000))
BASE_PORT=$((ROUTER_PORT + 1))
"$BUILD/dangoron_serverd" route "$WORK/data.csv" spawn=3 \
  port="$ROUTER_PORT" base-port="$BASE_PORT" &
ROUTER_PID=$!

QUERY=(query 127.0.0.1 "$ROUTER_PORT" data 288 96 0.3 abs)
up=""
for _ in $(seq 1 60); do
  if ! kill -0 "$ROUTER_PID" 2>/dev/null; then
    echo "router_smoke: 3-shard router died during startup" >&2
    exit 1
  fi
  if "$BUILD/dangoron_serverd" "${QUERY[@]}" "$WORK/warm.csv" \
      >/dev/null 2>&1; then
    up=1
    break
  fi
  sleep 0.25
done
if [[ -z "$up" ]]; then
  echo "router_smoke: 3-shard router never answered a query" >&2
  exit 1
fi

VICTIM="$(pgrep -P "$ROUTER_PID" | head -n 1 || true)"
if [[ -z "$VICTIM" ]]; then
  echo "router_smoke: could not find a shard child to kill" >&2
  exit 1
fi

# SIGKILL the shard while a routed query is in flight. Whether the kill
# lands mid-stream (failover re-dispatches the dead range) or between
# queries (planning re-plans around the refused connect), the query must
# succeed with unchanged bytes.
"$BUILD/dangoron_serverd" "${QUERY[@]}" "$WORK/killed.csv" \
  >/dev/null 2>&1 &
QUERY_PID=$!
sleep 0.05
kill -9 "$VICTIM" 2>/dev/null || true
if ! wait "$QUERY_PID"; then
  echo "router_smoke: routed query failed after a shard was SIGKILLed" >&2
  exit 1
fi
if ! cmp -s "$WORK/killed.csv" "$WORK/direct.csv"; then
  echo "router_smoke: post-kill output differs from the unsharded query" >&2
  exit 1
fi

# The supervisor reaps the corpse, respawns the shard, and re-probes it;
# follow-up queries keep answering (over survivors until the respawn lands,
# over all three after).
ok=""
for _ in $(seq 1 40); do
  if "$BUILD/dangoron_serverd" "${QUERY[@]}" "$WORK/respawned.csv" \
      >/dev/null 2>&1; then
    ok=1
    break
  fi
  sleep 0.25
done
if [[ -z "$ok" ]]; then
  echo "router_smoke: router stopped answering after the shard kill" >&2
  exit 1
fi
if ! cmp -s "$WORK/respawned.csv" "$WORK/direct.csv"; then
  echo "router_smoke: post-respawn output differs from the unsharded query" >&2
  exit 1
fi

echo "router_smoke: OK — 3-shard query survives a SIGKILLed shard byte-identically"
