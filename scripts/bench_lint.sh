#!/bin/sh
# Run the static-verifier throughput microbenchmarks and emit
# BENCH_lint.json (google-benchmark JSON, incl. insns/s per row).
#
# The lint pass gates smtsim-run --lint and every smtsim-serve
# admission, so its cost is tracked like simulator throughput
# (docs/ANALYSIS.md).
#
# The build must be a Release build: the script refuses any other
# CMAKE_BUILD_TYPE (numbers from debug-ish builds are not
# comparable and must never land in BENCH_lint.json). It stamps the
# JSON context with the build type, git sha, compiler and CPU count
# (smtsim_* keys, scripts/bench_common.sh) and checks the stamp with
# scripts/check_bench_json.py.
#
# Usage: scripts/bench_lint.sh [build-dir] [out.json]
#   SMTSIM_BENCH_MIN_TIME  benchmark_min_time seconds (default 0.5;
#                          use e.g. 0.1 for a CI smoke run)
set -eu

build=${1:-build}
out=${2:-BENCH_lint.json}
min_time=${SMTSIM_BENCH_MIN_TIME:-0.5}

if [ ! -x "$build/bench/bench_lint" ]; then
    echo "bench_lint not built in $build (cmake --build $build" \
         "--target bench_lint)" >&2
    exit 1
fi

. "$(dirname "$0")/bench_common.sh"
bench_require_release "$build" "verifier-throughput" bench_lint

"$build/bench/bench_lint" \
    --benchmark_min_time="$min_time" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_context="$(bench_context "$build")"

# Belt and braces: the context we just asked for must actually be
# in the artifact, so downstream consumers can trust any
# BENCH_lint.json they are handed.
python3 "$(dirname "$0")/check_bench_json.py" "$out"

echo "wrote $out" >&2
