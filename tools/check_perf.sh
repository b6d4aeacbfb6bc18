#!/usr/bin/env bash
# Perf gate: runs the engineering benches of <rev> (the parent) and of
# the working tree (the change) as alternating pairs on this host and
# judges every record by one rule (bench_compare; the rule is in
# src/obs/report_compare.h).
#
#   tools/check_perf.sh <rev> [kernels|serve|net|scale ...]
#
# Builds both trees in Release under build-perf/ (tools/rev_build.sh),
# then runs each named suite (run_once below), or all four, as 10 pairs
# of fresh processes, the parent first on odd pairs; each run writes its
# records through E2GCL_BENCH_JSON. Per suite it prints a table and
# writes the comparison with a host header to
# build-perf/BENCH_<suite>.json. All four take about 20 minutes on
# 4 vCPUs, plus the builds.
#
# Exit codes: 0 = no REGRESSED row, 1 = a REGRESSED row, 2 = usage,
# build or run failure, or a suite with no record in common, 3 = a
# change run of the scale suite over its peak-RSS budget.
set -euo pipefail

PAIRS=10
# The bounds as bench_compare thresholds. Serving rows sit at a few
# microseconds per request, where scheduling noise alone exceeds 25%.
declare -A THRESHOLD=([kernels]=1.25 [serve]=1.5 [net]=1.5 [scale]=1.25)
# A fully-resident scale run provably cannot stay under this budget:
# the 1.05M-node graph's feature matrix (134 MB) plus its CSR adjacency
# (~42 MB) alone exceed it. Each side's graph store is generated by a
# separate process (bench_scale --prepare), so the training process's
# VmHWM, a process-lifetime high-water mark, never includes generation.
SCALE_RSS_MB=160

usage() {
  echo "usage: $0 <rev> [kernels|serve|net|scale ...]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
REV="$1"
shift
SUITES="${*:-kernels serve net scale}"
for suite in $SUITES; do
  [ -n "${THRESHOLD[$suite]:-}" ] || { echo "no suite $suite" >&2; usage; }
done
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SHA="$(git -C "$ROOT" rev-parse --verify "$REV^{commit}")" || usage
HEAD_SHA="$(git -C "$ROOT" rev-parse HEAD)"
[ -z "$(git -C "$ROOT" status --porcelain)" ] || HEAD_SHA="$HEAD_SHA+dirty"
WORK="$ROOT/build-perf"
mkdir -p "$WORK"

# shellcheck source=tools/rev_build.sh
source "$ROOT/tools/rev_build.sh"
TARGETS="bench_micro_kernels bench_serve bench_serve_net e2gcl_serve_cli
  bench_scale"
rev_export "$ROOT" "$SHA" "$WORK"
rev_build check_perf "$WORK/rev-src" "$WORK/rev-build" "$TARGETS"
rev_build check_perf "$ROOT" "$WORK/head-build" "$TARGETS bench_compare"

SERVER_PID=
stop_server() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID" && wait "$SERVER_PID" || true
  fi
  SERVER_PID=
}
trap stop_server EXIT
trap 'exit 130' INT TERM

# One net run: a fresh server as an operator starts one (a one-epoch
# pre-train, as the suite measures the wire, not the encoder), driven
# by that side's client fleet, then stopped.
net_run() {  # net_run <bin dir> <json out> <log>
  "$1/tools/e2gcl_serve" --train --dataset cora --epochs 1 --precompute \
    --listen 0 >"$3.server" 2>&1 &
  SERVER_PID=$!
  local port= status=2
  for _ in $(seq 300); do  # the server prints its port once bound
    port="$(sed -n 's/^listening on port \([0-9]*\)$/\1/p' "$3.server")"
    [ -z "$port" ] && kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
  done
  if [ -n "$port" ]; then
    status=0
    E2GCL_NET_TARGET="127.0.0.1:$port" E2GCL_BENCH_JSON="$2" \
      "$1/bench/bench_serve_net" >"$3" 2>&1 || status=$?
  fi
  stop_server
  return "$status"
}

run_once() {  # run_once <suite> <rev|head> <json out> <log>
  local bin="$WORK/$2-build"
  case "$1" in
    # Numeric: google-benchmark on some installs rejects "0.2s".
    kernels) E2GCL_BENCH_JSON="$3" "$bin/bench/bench_micro_kernels" \
               --benchmark_min_time=0.2 >"$4" 2>&1 ;;
    serve) E2GCL_BENCH_JSON="$3" "$bin/bench/bench_serve" >"$4" 2>&1 ;;
    net) net_run "$bin" "$3" "$4" ;;
    scale) E2GCL_BENCH_JSON="$3" "$bin/bench/bench_scale" --train \
             "$runs/$2-store" --max-rss-mb "$SCALE_RSS_MB" >"$4" 2>&1 ;;
  esac
}

status=0
rss_over=0
for suite in $SUITES; do
  runs="$WORK/runs/$suite"
  rm -rf "$runs"
  mkdir -p "$runs/rev" "$runs/head" "$runs/logs"
  if [ "$suite" = scale ]; then
    for side in rev head; do
      echo "check_perf: scale: preparing the $side graph store"
      "$WORK/$side-build/bench/bench_scale" --prepare "$runs/$side-store" \
        >"$runs/logs/$side-prepare.log" 2>&1 ||
        { echo "check_perf: prepare failed, see $runs/logs" >&2; exit 2; }
    done
  fi
  start=$SECONDS
  for pair in $(seq -w "$PAIRS"); do
    order="rev head"
    [ $((10#$pair % 2)) = 1 ] || order="head rev"
    echo "check_perf: $suite: pair $pair/$PAIRS ($order)"
    for side in $order; do
      log="$runs/logs/$side-$pair.log"
      code=0
      run_once "$suite" "$side" "$runs/$side/run-$pair.json" "$log" || code=$?
      if [ "$suite" = scale ] && [ "$code" = 3 ]; then
        echo "check_perf: scale: $side run $pair over ${SCALE_RSS_MB} MB" >&2
        [ "$side" = rev ] || rss_over=1
      elif [ "$code" != 0 ]; then
        tail -n 20 "$log"* >&2 || true
        echo "check_perf: $suite: $side run $pair failed ($code)" >&2
        exit 2
      fi
    done
  done
  rm -rf "$runs/rev-store" "$runs/head-store"
  echo "check_perf: $suite: $PAIRS pairs in $((SECONDS - start)) s," \
    "bound ${THRESHOLD[$suite]}x, $REV ($SHA) vs the working tree"
  compare=("$WORK/head-build/tools/bench_compare" --threshold
           "${THRESHOLD[$suite]}" "$runs/rev" "$runs/head")
  code=0
  "${compare[@]}" || code=$?
  if [ "$code" = 2 ]; then
    status=2
  else
    [ "$code" = 0 ] || [ "$status" = 2 ] || status=1
    "${compare[@]}" --json --commits "$SHA,$HEAD_SHA" \
      >"$WORK/BENCH_$suite.json" || true
  fi
done

if [ "$status" != 2 ] && [ "$rss_over" = 1 ]; then
  echo "check_perf: a change run of scale exceeded ${SCALE_RSS_MB} MB" >&2
  exit 3
fi
exit "$status"
