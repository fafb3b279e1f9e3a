#!/usr/bin/env bash
# Differential smoke test of the dangoron_serverd command line.
#
#   generate -> d.csv                    Tomborg, 24 series x 2048 points
#   run d.csv dangoron:jump=off -> a.csv
#   run d.csv naive             -> b.csv
#   a.csv vs b.csv                       incremental Dangoron is exact: the
#                                        same (window, i, j) rows, values
#                                        within 1e-12
#
# repeated with `abs`, then the same query over the wire: `serve` on an
# ephemeral port, `query` it, and the served CSV must be byte-identical to
# run's dangoron:jump=off CSV (one writer, %.17g values). The wire check
# runs again on the same data generated as d.dgrn, the lossless binary
# format. Malformed arguments must be usage errors (exit 2): a
# half-numeric beta, a non-numeric window, a non-numeric port. Usage:
#
#   scripts/cli_smoke.sh [build-dir]   # default: build

set -euo pipefail

BUILD="$(cd "${1:-build}" && pwd)"
WORK="$(mktemp -d)"
SERVE_PID=""

cleanup() {
  if [[ -n "$SERVE_PID" ]]; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "cli_smoke: $*" >&2
  exit 1
}

dangoron_serverd() {
  "$BUILD/dangoron_serverd" "$@"
}

# Runs a command; fails unless it exits with the expected code.
expect_exit() {
  local want="$1"
  shift
  local got=0
  "$@" >"$WORK/out.txt" 2>&1 || got=$?
  if [[ "$got" != "$want" ]]; then
    cat "$WORK/out.txt" >&2
    fail "'$*' exited $got, expected $want"
  fi
}

cd "$WORK"
expect_exit 0 dangoron_serverd generate 24 2048 uniform pink 7 d.csv

for mode in "" abs; do
  expect_exit 0 dangoron_serverd run d.csv "dangoron:jump=off" 192 96 0.6 \
    $mode a.csv
  expect_exit 0 dangoron_serverd run d.csv naive 192 96 0.6 $mode b.csv
  if [[ "$(wc -l <a.csv)" -le 1 ]]; then
    fail "run ${mode:-signed} found no edges"
  fi
  # Values print at full precision, where the sketch's and the naive
  # two-pass arithmetic may differ in the last bits: rows must match
  # exactly, values to 1e-12.
  cmp -s <(cut -d, -f1-3 a.csv) <(cut -d, -f1-3 b.csv) ||
    fail "dangoron:jump=off and naive edge sets differ (${mode:-signed})"
  paste -d, a.csv b.csv | awk -F, 'NR > 1 {
      d = $4 - $8; if (d < 0) d = -d; if (d > 1e-12) bad = 1 }
      END { exit bad }' ||
    fail "dangoron:jump=off and naive values differ (${mode:-signed})"
done
echo "cli_smoke: OK — jump=off and naive agree, signed and abs"

expect_exit 2 dangoron_serverd run d.csv dangoron 192 96 0.6x
expect_exit 2 dangoron_serverd run d.csv dangoron abc 96 0.6
expect_exit 2 dangoron_serverd run d.csv dangoron 192 96 0.6 ""
expect_exit 2 dangoron_serverd serve d.csv port=abc
expect_exit 2 dangoron_serverd generate 24 2048 uniform pink 7x
echo "cli_smoke: OK — malformed arguments exit 2"

# The wire path: a signed query served by `serve` writes the file `run`
# writes, byte for byte (doubles travel as bit patterns, and both
# subcommands write through the same CSV writer). serve_query <data> <out>
# serves <data> on an ephemeral port, queries it into <out>, and stops the
# server, which must exit cleanly and print its stats line.
serve_query() {
  "$BUILD/dangoron_serverd" serve "$1" port=0 >serve.txt 2>&1 &
  SERVE_PID=$!
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^serving dataset .* on [^:]*:\([0-9]*\) .*/\1/p' serve.txt)"
    [[ -n "$port" ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || fail "serve died: $(cat serve.txt)"
    sleep 0.1
  done
  [[ -n "$port" ]] || fail "serve never printed its port"
  expect_exit 0 dangoron_serverd query 127.0.0.1 "$port" data 192 96 0.6 "$2"
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID" || fail "serve exited non-zero on SIGTERM"
  SERVE_PID=""
  grep -q '^shutting down: ' serve.txt || fail "serve printed no stats line"
}

serve_query d.csv q.csv
expect_exit 0 dangoron_serverd run d.csv "dangoron:jump=off" 192 96 0.6 a.csv
cmp -s q.csv a.csv || fail "served CSV differs from run's"
echo "cli_smoke: OK — serve + query write run's CSV byte for byte"

# `generate` picks the lossless binary format by the .dgrn extension, and
# both `run` and `serve` read it back.
expect_exit 0 dangoron_serverd generate 24 2048 uniform pink 7 d.dgrn
[[ "$(head -c 4 d.dgrn)" == DGRN ]] || fail "d.dgrn is not a .dgrn file"
serve_query d.dgrn q.csv
expect_exit 0 dangoron_serverd run d.dgrn "dangoron:jump=off" 192 96 0.6 a.csv
[[ "$(wc -l <a.csv)" -gt 1 ]] || fail "run d.dgrn found no edges"
cmp -s q.csv a.csv || fail "served CSV differs from run's (d.dgrn)"
echo "cli_smoke: OK — generate writes .dgrn, and run and serve agree on it"
