# Sourced by tools/check_bitexact.sh and tools/check_perf.sh.

# rev_export <root> <sha> <work dir>: `git archive`s <sha> into <work
# dir>/rev-src (no worktree or checkout is touched), only when <sha>
# changed, so repeated checks against one revision rebuild nothing.
rev_export() {
  if [ "$(cat "$3/rev.sha" 2>/dev/null)" != "$2" ]; then
    rm -rf "$3/rev-src" "$3/rev-build"
    mkdir -p "$3/rev-src"
    git -C "$1" archive "$2" | tar -x -C "$3/rev-src"
    echo "$2" >"$3/rev.sha"
  fi
}

# rev_build <tag> <source dir> <build dir> "<targets>" [cmake args...]:
# a Release build; exits the calling script with 2 when it fails.
rev_build() {
  local tag="$1" src="$2" build="$3" targets="$4"
  shift 4
  echo "$tag: building $src"
  # shellcheck disable=SC2086  # <targets> is a word list
  if ! { cmake -S "$src" -B "$build" -DCMAKE_BUILD_TYPE=Release "$@" &&
         cmake --build "$build" -j "$(nproc)" --target $targets; } \
       >"$build.log" 2>&1; then
    tail -20 "$build.log" >&2
    echo "$tag: build failed, log in $build.log" >&2
    exit 2
  fi
}
