#!/usr/bin/env bash
# Lint gate: builds every target with -Werror on (libraries, tools,
# tests, benches and examples, so the gate proves the whole tree
# compiles warning-clean), then runs e2gcl_lint over src/, tools/ and
# tests/. Exits nonzero on a warning or any unsuppressed finding.
#
#   tools/check_lint.sh           # text diagnostics
#   tools/check_lint.sh --json    # machine-readable report on stdout
#
# If clang-tidy is installed, the advisory .clang-tidy baseline is also
# run over src/ (findings are reported but never fail the gate — see
# DESIGN.md "Static analysis & invariants").
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-lint"

# The default Release flags (-O3 -march=native): the build users get,
# where some warnings fire that -O2 never raises. Named explicitly so a
# build dir configured with another type is switched back.
cmake -B "$BUILD" -S "$ROOT" -DE2GCL_WERROR=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON -DCMAKE_BUILD_TYPE=Release >/dev/null
if ! cmake --build "$BUILD" -j "$(nproc)" >"$BUILD/werror-build.log" 2>&1; then
  grep -E "error|warning" "$BUILD/werror-build.log" | head -40 >&2
  echo "-Werror build FAILED, log in $BUILD/werror-build.log" >&2
  exit 1
fi

status=0
"$BUILD/tools/e2gcl_lint" --root "$ROOT" "$@" || status=$?

if command -v clang-tidy >/dev/null 2>&1; then
  echo "--- clang-tidy (advisory) ---" >&2
  # Advisory only: report, never gate.
  find "$ROOT/src" -name '*.cc' -print0 |
    xargs -0 -n 8 clang-tidy -p "$BUILD" --quiet 2>/dev/null || true
fi

# Thread-safety leg: compile the concurrent subsystems under clang's
# -Wthread-safety (promoted to errors by E2GCL_THREAD_SAFETY=ON). This
# is where the E2GCL_GUARDED_BY / E2GCL_REQUIRES annotations in
# core/thread_annotations.h are actually checked; on a gcc-only host
# the mode configures as a documented no-op, so the leg builds (proving
# the annotation macros expand cleanly) but the capability analysis
# itself only gates where clang is available.
echo "--- thread-safety build leg ---" >&2
TS_BUILD="$ROOT/build-threadsafety"
cmake -B "$TS_BUILD" -S "$ROOT" -DE2GCL_THREAD_SAFETY=ON \
  -DE2GCL_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
if ! cmake --build "$TS_BUILD" -j "$(nproc)" \
    --target e2gcl_parallel e2gcl_obs e2gcl_serve e2gcl_net >/dev/null; then
  echo "thread-safety build leg FAILED" >&2
  status=1
fi

exit $status
