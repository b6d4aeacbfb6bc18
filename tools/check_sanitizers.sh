#!/usr/bin/env bash
# One command for the whole static + dynamic analysis gate: the
# e2gcl_lint pass, then ThreadSanitizer, AddressSanitizer, and
# UndefinedBehaviorSanitizer builds running the suites that exercise
# the parallel kernels and the fault-tolerance machinery (checkpoint
# I/O, kill/resume, death tests), plus a clang thread-safety-analysis
# build leg over the annotated serving/net stack. Usage:
#
#   tools/check_sanitizers.sh               # lint + all legs below
#   tools/check_sanitizers.sh lint          # static analysis only
#   tools/check_sanitizers.sh thread        # ThreadSanitizer only
#   tools/check_sanitizers.sh address       # AddressSanitizer only
#   tools/check_sanitizers.sh undefined     # UBSan only
#   tools/check_sanitizers.sh portable      # E2GCL_SIMD=portable build only
#   tools/check_sanitizers.sh threadsafety  # -DE2GCL_THREAD_SAFETY=ON build
#   tools/check_sanitizers.sh thread address portable  # several legs
#
# Several names run every leg named, in the order given (lint, when
# named, always runs first), and the summary lists each; an unknown
# name prints the usage and exits 2 before anything builds.
#
# The portable leg rebuilds with -DE2GCL_SIMD=portable and runs the
# same suites, proving the scalar kernel fallback stays green on
# machines (or compilers) without AVX2. The fallback also runs under
# every sanitizer leg regardless of that leg's dispatched backend:
# simd_portable.cc is always compiled, and simd_kernels_test (in the
# target list below) calls the simd::portable::* kernels directly.
#
# The address and undefined legs also run bench_paper at toy size
# (E2GCL_BENCH_SCALE=0.1, one seed, two epochs): every paper experiment,
# so every baseline and the node, link and graph protocols, end to end.
#
# The threadsafety leg is build-only: it compiles the annotated targets
# with -Wthread-safety -Werror=thread-safety under clang (see
# src/core/thread_annotations.h); under gcc the mode configures as a
# documented no-op skip, so the leg passes trivially there.
#
# Each configured tree lives in build-<config>/ next to the regular
# build/ so configurations never share object files. A per-leg PASS/FAIL
# summary prints at the end; the exit code is nonzero if any leg failed.
set -euo pipefail

usage() {
  echo "usage: $0 [lint|thread|address|undefined|portable|threadsafety|both|all]..." >&2
  exit 2
}

# Every named leg runs, in the order given; an unknown name is refused
# before anything builds.
RUN_LINT=0
LEGS=()
[ $# -gt 0 ] || set -- all
for ARG in "$@"; do
  case "$ARG" in
    lint)         RUN_LINT=1 ;;
    thread|address|undefined|portable|threadsafety) LEGS+=("$ARG") ;;
    both)         LEGS+=(thread address) ;;
    all)          LEGS+=(thread address undefined portable threadsafety)
                  RUN_LINT=1 ;;
    *) usage ;;
  esac
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

LEG_NAMES=()
LEG_RESULTS=()
record() {  # record <leg-name> <0|nonzero>
  LEG_NAMES+=("$1")
  if [ "$2" = 0 ]; then LEG_RESULTS+=(PASS); else LEG_RESULTS+=(FAIL); fi
}

if [ "$RUN_LINT" = 1 ]; then
  echo "=== e2gcl_lint ==="
  lint_status=0
  "$ROOT/tools/check_lint.sh" || lint_status=1
  record lint "$lint_status"
fi

# The race-prone and fault-injection code paths live in these binaries;
# running the full suite under sanitizers takes far longer without
# covering more of the interesting code.
TARGETS=(
  parallel_test
  tensor_matrix_test
  tensor_csr_test
  graph_test
  simd_kernels_test
  kmeans_test
  baselines_test
  eval_test
  graph_level_test
  core_selector_test
  core_trainer_test
  core_view_test
  autograd_ops_test
  autograd_loss_test
  serialize_test
  io_robustness_test
  fault_tolerance_test
  failure_injection_test
  obs_test
  run_report_test
  bench_compare_test
  hash_order_test
  serve_test
  serve_robustness_test
  net_protocol_test
  net_serve_test
  lint_test
  shard_test
)

for LEG in ${LEGS[@]+"${LEGS[@]}"}; do
  BUILD="$ROOT/build-$LEG"
  leg_status=0

  if [ "$LEG" = threadsafety ]; then
    # Build-only leg: the annotated libraries under clang's
    # -Wthread-safety (or a documented skip under gcc).
    echo "=== threadsafety (build only) ==="
    if ! cmake -B "$BUILD" -S "$ROOT" -DE2GCL_THREAD_SAFETY=ON \
        -DE2GCL_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo; then
      leg_status=1
    elif ! cmake --build "$BUILD" -j "$(nproc)" \
        --target e2gcl_parallel e2gcl_obs e2gcl_serve e2gcl_net; then
      leg_status=1
    fi
    record "$LEG" "$leg_status"
    continue
  fi

  if [ "$LEG" = portable ]; then
    # Not a sanitizer: a plain build forced onto the scalar SIMD
    # backend, running the same suites (plus the kernel parity tests,
    # which become exact-equality comparisons in this mode).
    CONFIG=(-DE2GCL_SIMD=portable)
  else
    CONFIG=(-DE2GCL_SANITIZE="$LEG")
  fi
  # A leg that fails to build is recorded and the next leg still runs.
  if ! cmake -B "$BUILD" -S "$ROOT" "${CONFIG[@]}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo ||
     ! cmake --build "$BUILD" -j "$(nproc)" --target "${TARGETS[@]}"; then
    record "$LEG" 1
    continue
  fi

  # Exercise a real pool even on small CI machines; fail on any report.
  export E2GCL_NUM_THREADS="${E2GCL_NUM_THREADS:-4}"
  if [ "$LEG" = thread ]; then
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
  fi

  # Run each gtest binary directly (ctest registers per-case names,
  # which makes selecting whole binaries awkward); any sanitizer report
  # fails it.
  for t in "${TARGETS[@]}"; do
    echo "=== $t ($LEG) ==="
    if ! "$BUILD/tests/$t"; then
      leg_status=1
    fi
  done
  if [ "$LEG" = address ] || [ "$LEG" = undefined ]; then
    echo "=== bench_paper ($LEG) ==="
    if ! cmake --build "$BUILD" -j "$(nproc)" --target bench_paper ||
       ! E2GCL_BENCH_SCALE=0.1 E2GCL_BENCH_RUNS=1 E2GCL_BENCH_EPOCHS=2 \
        "$BUILD/bench/bench_paper" >/dev/null; then
      leg_status=1
    fi
  fi
  record "$LEG" "$leg_status"
done

echo
echo "=== summary ==="
status=0
for i in "${!LEG_NAMES[@]}"; do
  printf '%-14s %s\n' "${LEG_NAMES[$i]}" "${LEG_RESULTS[$i]}"
  if [ "${LEG_RESULTS[$i]}" = FAIL ]; then status=1; fi
done
if [ "${#LEG_NAMES[@]}" = 0 ]; then
  echo "(no legs ran)"
fi
exit $status
