#!/usr/bin/env bash
# End-to-end network serving perf gate: builds the e2gcl_serve CLI,
# bench_serve_net, and bench_compare; starts a real `e2gcl_serve
# --listen` process on an ephemeral loopback port; drives it with the
# closed-loop bench client fleet; and gates the fresh net/ records
# against the committed bench/BENCH_serve.json baseline.
#
#   tools/check_net.sh                    # gate against the baseline
#   tools/check_net.sh --threshold 1.25   # tighter gate
#   tools/check_net.sh --rebaseline       # refresh the net/ baseline
#
# The default threshold matches tools/check_serve.sh's 1.5x: loopback
# round trips sit in the tens of microseconds, where scheduler noise
# alone exceeds bench_compare's default 25%. --rebaseline runs the
# IDENTICAL server-process flow (same dataset, same serve flags, same
# client fleet) and splices the fresh net/ records into
# bench/BENCH_serve.json in place, leaving the serve/ records alone —
# baseline and candidate must measure the same workload or the gate
# compares apples to oranges.
#
# Exit codes follow bench_compare: 0 = within threshold,
# 1 = regression(s), 2 = usage/file error.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build"
BASELINE="$ROOT/bench/BENCH_serve.json"

REBASELINE=0
COMPARE_ARGS=()
HAVE_THRESHOLD=0
while [ $# -gt 0 ]; do
  case "$1" in
    --rebaseline) REBASELINE=1 ;;
    --threshold) HAVE_THRESHOLD=1; COMPARE_ARGS+=("$1") ;;
    *) COMPARE_ARGS+=("$1") ;;
  esac
  shift
done
if [ "$HAVE_THRESHOLD" = 0 ]; then
  COMPARE_ARGS=(--threshold 1.5 "${COMPARE_ARGS[@]}")
fi

cmake -B "$BUILD" -S "$ROOT" >/dev/null
cmake --build "$BUILD" -j "$(nproc)" \
  --target e2gcl_serve_cli bench_serve_net bench_compare >/dev/null

if [ "$REBASELINE" = 0 ] && [ ! -f "$BASELINE" ]; then
  echo "check_net: missing baseline $BASELINE (run with --rebaseline)" >&2
  exit 2
fi

# Start a real server process the way an operator would: a quick
# one-epoch pre-train (the gate measures the wire, not the encoder),
# precomputed embeddings, ephemeral port.
WORK="$(mktemp -d)"
SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

"$BUILD/tools/e2gcl_serve" --train --dataset cora --epochs 1 \
  --precompute --listen 0 >"$WORK/server.log" &
SERVER_PID=$!

# The server prints "listening on port N" once the socket is bound.
PORT=
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^listening on port \([0-9][0-9]*\)$/\1/p' \
    "$WORK/server.log" | head -n1)"
  [ -n "$PORT" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "check_net: server exited before binding; log follows" >&2
    cat "$WORK/server.log" >&2
    exit 2
  fi
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "check_net: server never reported its port" >&2
  exit 2
fi

if [ "$REBASELINE" = 1 ]; then
  E2GCL_NET_TARGET="127.0.0.1:$PORT" \
    "$BUILD/bench/bench_serve_net" --merge-into "$BASELINE"
  echo "check_net: net/ baseline records rewritten in $BASELINE"
  exit 0
fi

CANDIDATE="$WORK/BENCH_net_candidate.json"
E2GCL_NET_TARGET="127.0.0.1:$PORT" E2GCL_BENCH_JSON="$CANDIDATE" \
  "$BUILD/bench/bench_serve_net"

# The candidate holds only net/ records; bench_compare reports the
# serve/ records that exist only in the baseline as notes, not
# regressions, so the shared baseline file gates both benches.
"$BUILD/tools/bench_compare" "${COMPARE_ARGS[@]}" "$BASELINE" "$CANDIDATE"
