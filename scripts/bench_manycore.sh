#!/bin/sh
# Run the many-core scaling benchmarks and emit BENCH_manycore.json
# (google-benchmark JSON: per-row corecycles/s, MIPS and
# logical_processors, from 1x1 up to 64 cores x 8 slots = 512
# logical processors).
#
# Release builds only; the JSON is stamped with the build type, git
# sha, compiler and CPU count and checked (bench_run,
# scripts/bench_common.sh).
#
# Also guards the parallel-host promise (check_bench_json.py
# --mc-eff): on the 16-core machine the 4-host-thread row must reach
# at least SMTSIM_BENCH_MC_EFF parallel efficiency (t1 / (4 * t4),
# real time) over the 1-host-thread row. The guard is skipped
# automatically when the host has fewer than 4 CPUs — barrier
# hand-offs on an oversubscribed host measure the scheduler, not the
# simulator.
#
# Usage: scripts/bench_manycore.sh [build-dir] [out.json]
#   SMTSIM_BENCH_MIN_TIME  benchmark_min_time seconds (default 0.5;
#                          use e.g. 0.1 for a CI smoke run)
#   SMTSIM_BENCH_MC_EFF    required 4-thread parallel efficiency
#                          (default 0.3); set to "skip" to disable
set -eu

. "$(dirname "$0")/bench_common.sh"
bench_run "${1:-build}" bench_manycore "many-core scaling" \
    "${2:-BENCH_manycore.json}" --mc-eff
