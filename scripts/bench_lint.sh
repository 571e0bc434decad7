#!/bin/sh
# Run the static-verifier throughput microbenchmarks and emit
# BENCH_lint.json (google-benchmark JSON, incl. insns/s per row).
#
# The lint pass gates smtsim-run --lint and every smtsim-serve
# admission, so its cost is tracked like simulator throughput
# (docs/ANALYSIS.md).
#
# Release builds only; the JSON is stamped with the build type, git
# sha, compiler and CPU count and checked (bench_run,
# scripts/bench_common.sh).
#
# Usage: scripts/bench_lint.sh [build-dir] [out.json]
#   SMTSIM_BENCH_MIN_TIME  benchmark_min_time seconds (default 0.5;
#                          use e.g. 0.1 for a CI smoke run)
set -eu

. "$(dirname "$0")/bench_common.sh"
bench_run "${1:-build}" bench_lint verifier-throughput \
    "${2:-BENCH_lint.json}"
