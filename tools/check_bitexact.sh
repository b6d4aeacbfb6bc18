#!/usr/bin/env bash
# Bit-exactness check against another revision. Builds <rev> (exported
# with `git archive`, so no worktree or checkout is touched) and the
# working tree, runs e2gcl_cli in both on
#   - resident cora pre-training (20 epochs), and
#   - sharded, out-of-core arxiv pre-training (--shards 4 --out-of-core,
#     2 epochs, each side generating its own graph store),
# each at E2GCL_NUM_THREADS 1 and 4 with --obs-report and
# --save-embedding, then compares the per-epoch losses of the run
# reports and the embedding files byte for byte.
#
#   tools/check_bitexact.sh <rev>                  # default SIMD backend
#   tools/check_bitexact.sh <rev> --simd portable  # both sides portable
#
# Builds and runs go under build-bitexact[-<simd>]/ at the repo root
# (E2GCL_BITEXACT_DIR overrides); later calls rebuild incrementally.
# A revision whose CLI ignores --save-embedding for sharded runs leaves
# that file out: the missing comparison is reported, not failed.
#
# Exit codes: 0 = identical, 1 = a difference, 2 = usage or build error.
set -euo pipefail

usage() {
  echo "usage: $0 <rev> [--simd auto|avx2|portable]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
REV="$1"
shift
SIMD=auto
while [ $# -gt 0 ]; do
  case "$1" in
    --simd) [ $# -ge 2 ] || usage; SIMD="$2"; shift ;;
    *) usage ;;
  esac
  shift
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SHA="$(git -C "$ROOT" rev-parse --verify "$REV^{commit}")" || usage
WORK="${E2GCL_BITEXACT_DIR:-$ROOT/build-bitexact-$SIMD}"
mkdir -p "$WORK"

build() {  # build <source dir> <build dir>
  echo "check_bitexact: building $1 (E2GCL_SIMD=$SIMD)"
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
           -DE2GCL_SIMD="$SIMD" &&
         cmake --build "$2" -j "$(nproc)" --target e2gcl_cli; } \
       >"$2.log" 2>&1; then
    tail -20 "$2.log" >&2
    echo "check_bitexact: build failed, log in $2.log" >&2
    exit 2
  fi
}

# The exported tree is refreshed only when <rev> resolves to a new
# commit, so repeated checks against one revision rebuild nothing.
if [ "$(cat "$WORK/rev.sha" 2>/dev/null)" != "$SHA" ]; then
  rm -rf "$WORK/rev-src" "$WORK/rev-build"
  mkdir -p "$WORK/rev-src"
  git -C "$ROOT" archive "$SHA" | tar -x -C "$WORK/rev-src"
  echo "$SHA" >"$WORK/rev.sha"
fi
build "$WORK/rev-src" "$WORK/rev-build"
build "$ROOT" "$WORK/head-build"

# Per-epoch losses of a run report, one exact (%.17g round-trip) line
# each.
losses() {
  python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
for e in report["epochs"]:
    print(e["epoch"], repr(float(e["loss"])))
EOF
}

run_side() {  # run_side <rev|head>
  local cli="$WORK/$1-build/tools/e2gcl_cli" out="$WORK/runs/$1"
  rm -rf "$out"
  mkdir -p "$out"
  "$cli" --dataset arxiv --prepare-store --store-dir "$out/store" \
    >"$out/prepare.log" 2>&1
  for t in 1 4; do
    E2GCL_NUM_THREADS=$t "$cli" --dataset cora --epochs 20 --seed 1 \
      --obs-report "$out/cora-t$t.json" \
      --save-embedding "$out/cora-t$t.csv" >"$out/cora-t$t.log" 2>&1
    E2GCL_NUM_THREADS=$t "$cli" --dataset arxiv --shards 4 --out-of-core \
      --store-dir "$out/store" --epochs 2 --seed 1 \
      --obs-report "$out/arxiv-t$t.json" \
      --save-embedding "$out/arxiv-t$t.csv" >"$out/arxiv-t$t.log" 2>&1
  done
}

for side in rev head; do
  echo "check_bitexact: running $side"
  if ! run_side "$side"; then
    echo "check_bitexact: a $side run failed; logs in $WORK/runs/$side" >&2
    exit 2
  fi
done

status=0
for run in cora-t1 cora-t4 arxiv-t1 arxiv-t4; do
  rev="$WORK/runs/rev/$run" head="$WORK/runs/head/$run"
  if diff <(losses "$rev.json") <(losses "$head.json") >/dev/null; then
    echo "  $run losses: identical ($(losses "$head.json" | wc -l) epochs)"
  else
    echo "  $run losses: DIFFER"
    diff <(losses "$rev.json") <(losses "$head.json") | head -6 || true
    status=1
  fi
  if [ ! -f "$rev.csv" ]; then
    echo "  $run embedding: not written by $REV, not compared"
  elif cmp -s "$rev.csv" "$head.csv"; then
    echo "  $run embedding: identical"
  else
    echo "  $run embedding: DIFFER"
    status=1
  fi
done

if [ "$status" = 0 ]; then
  echo "check_bitexact: identical to $REV ($SHA, E2GCL_SIMD=$SIMD)"
else
  echo "check_bitexact: differences against $REV ($SHA, E2GCL_SIMD=$SIMD)"
fi
exit "$status"
