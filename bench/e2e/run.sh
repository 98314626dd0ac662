#!/usr/bin/env bash
# Builds bench_e2e from this checkout (once; later calls only rebuild what
# changed) and runs one workload. Run from the repository root:
#
#   bash bench/e2e/run.sh --workload mmm-1024 --seed 1 --seconds 50 --trace 0
#
# Build output goes to stderr, so stdout ends with the benchmark's JSON line.
# Everything the build and the run write stays under .bench_build/, including
# the native tier's temporary compiler files (TMPDIR).
set -euo pipefail

if [[ ! -f src/CMakeLists.txt || ! -f bench/e2e/CMakeLists.txt ]]; then
  echo "bench_e2e: run from the repository root; library sources not found" >&2
  exit 2
fi

# The commit for the machine record, read at every run. A tree that is not
# itself a git checkout records "unknown", even inside another repository.
commit=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [[ $top -ef . ]]; then
  commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
export SHACKLE_E2E_COMMIT=$commit

build=.bench_build/e2e
mkdir -p .bench_build/tmp
export TMPDIR="$PWD/.bench_build/tmp"
if [[ ! -f $build/CMakeCache.txt ]]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs=$(nproc)
cmake --build "$build" --target bench_e2e -j "$(( jobs < 4 ? jobs : 4 ))" >&2
exec "$build/bench_e2e" "$@"
