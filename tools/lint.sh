#!/usr/bin/env bash
# Static-analysis entry point — the CI lint job runs this file verbatim, so
# local `tools/lint.sh` reproduces the gate exactly.
#
# Stages (default: the error-model grep and all three clang gates):
#   error-model    the archive, engine and serve layers convert between
#                  exceptions and Status only through guarded() (plain grep,
#                  no compiler needed)
#   thread-safety  clang build with -Wthread-safety as errors
#   tidy           run-clang-tidy over src/ using .clang-tidy
#   fuzz           ~60s sanitized libFuzzer smoke per harness, seeded from
#                  tests/corpus/ (clang + libFuzzer required)
#   fuzz-replay    replay tests/corpus/ through the standalone harnesses —
#                  works with any compiler, no fuzzing toolchain needed
#
# Usage: tools/lint.sh [stage ...]
set -euo pipefail

cd "$(dirname "$0")/.."
REPO="$PWD"
CLANG_CXX="${CLANG_CXX:-clang++}"
RUN_CLANG_TIDY="${RUN_CLANG_TIDY:-run-clang-tidy}"
FUZZ_SECONDS="${FUZZ_SECONDS:-10}"
JOBS="$(nproc 2>/dev/null || echo 4)"

need() {
  command -v "$1" >/dev/null 2>&1 || {
    echo "lint: required tool '$1' not found" >&2
    exit 1
  }
}

# Internals throw and Status appears only at public entry points, through
# guarded() (docs/API.md, "The error model").  The archive, engine and serve
# layers follow the rule, so a hand-written bridge there is a regression.
stage_error_model() {
  echo "== error-model: no hand-written Status bridges under src/archive/, src/engine/ or src/serve/ =="
  local found=0
  grep -rnE 'status_from_current_exception|throw_status' src/archive src/engine src/serve || found=$?
  case "$found" in
    0)
      echo "lint: src/archive/, src/engine/ and src/serve/ convert only through guarded(), Result::value() and Status::throw_if_error()" >&2
      exit 1
      ;;
    1) ;;  # no match
    *) exit 1 ;;  # grep itself failed (its message is above)
  esac
}

stage_thread_safety() {
  need "$CLANG_CXX"
  echo "== thread-safety: clang -Wthread-safety -Werror =="
  cmake -B build-tsa -S . \
    -DCMAKE_CXX_COMPILER="$CLANG_CXX" \
    -DFRAZ_THREAD_SAFETY=ON -DFRAZ_WERROR=ON >/dev/null
  cmake --build build-tsa -j "$JOBS"
}

stage_tidy() {
  need "$CLANG_CXX"
  need "$RUN_CLANG_TIDY"
  echo "== clang-tidy over src/ =="
  cmake -B build-tidy -S . -DCMAKE_CXX_COMPILER="$CLANG_CXX" >/dev/null
  "$RUN_CLANG_TIDY" -p build-tidy -quiet "$REPO/src/.*\.cpp$"
}

# Everything that feeds the fuzz binaries, hashed.  The fuzz stages stamp
# this into their build tree after a successful build and skip the
# configure+compile entirely when it matches — the common case for lint runs
# that only touched tests or docs.
fuzz_source_hash() {
  {
    find "$REPO/src" "$REPO/fuzz" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
      sort -z | xargs -0 sha256sum
    sha256sum "$REPO/CMakeLists.txt"
  } | sha256sum | cut -d' ' -f1
}

# build_fuzzers_cached <build-dir> [cmake flags...]: (re)build the `fuzzers`
# target unless the stamped source hash matches and the harness binaries
# exist.
build_fuzzers_cached() {
  local build_dir="$1"
  shift
  local stamp="$build_dir/.fuzz-src-hash"
  local hash
  hash="$(fuzz_source_hash)"
  if [ -f "$stamp" ] && [ "$(cat "$stamp")" = "$hash" ] &&
    ls "$build_dir"/fuzz_* >/dev/null 2>&1; then
    echo "-- fuzz harnesses up to date (sources ${hash:0:12}), skipping rebuild"
    return 0
  fi
  rm -f "$stamp"
  cmake -B "$build_dir" -S . "$@" >/dev/null
  cmake --build "$build_dir" -j "$JOBS" --target fuzzers
  echo "$hash" >"$stamp"
}

# Harness name -> seed directory.  The default strips the fuzz_ prefix; the
# sz blocked harness reads the v2 corpus, which lives under the payload
# format's name.
seed_dir_for() {
  case "$1" in
    fuzz_sz_blocked) echo "$REPO/tests/corpus/sz2" ;;
    *) echo "$REPO/tests/corpus/${1#fuzz_}" ;;
  esac
}

stage_fuzz() {
  need "$CLANG_CXX"
  echo "== fuzz smoke: ${FUZZ_SECONDS}s per harness, ASan+UBSan =="
  build_fuzzers_cached build-fuzz \
    -DCMAKE_CXX_COMPILER="$CLANG_CXX" \
    -DFRAZ_FUZZ=ON -DFRAZ_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  for harness in build-fuzz/fuzz_*; do
    [ -x "$harness" ] || continue
    local name seed_dir work_dir
    name="$(basename "$harness")"
    seed_dir="$(seed_dir_for "$name")"
    work_dir="build-fuzz/corpus-work/${name#fuzz_}"
    mkdir -p "$work_dir"
    echo "-- $name (seeds: $seed_dir)"
    "$harness" -max_total_time="$FUZZ_SECONDS" -timeout=5 -rss_limit_mb=2048 \
      "$work_dir" "$seed_dir"
  done
}

stage_fuzz_replay() {
  echo "== fuzz replay: checked-in corpus through standalone harnesses =="
  build_fuzzers_cached build-replay -DFRAZ_FUZZ=ON
  for harness in build-replay/fuzz_*; do
    [ -x "$harness" ] || continue
    local name seed_dir
    name="$(basename "$harness")"
    seed_dir="$(seed_dir_for "$name")"
    echo "-- $name (seeds: $seed_dir)"
    "$harness" "$seed_dir"
  done
}

stages=("$@")
[ ${#stages[@]} -eq 0 ] && stages=(error-model thread-safety tidy fuzz)
for stage in "${stages[@]}"; do
  case "$stage" in
    error-model) stage_error_model ;;
    thread-safety) stage_thread_safety ;;
    tidy) stage_tidy ;;
    fuzz) stage_fuzz ;;
    fuzz-replay) stage_fuzz_replay ;;
    *)
      echo "lint: unknown stage '$stage' (error-model|thread-safety|tidy|fuzz|fuzz-replay)" >&2
      exit 2
      ;;
  esac
done
echo "lint: all requested stages passed"
