#!/bin/sh
# Run the many-core scaling benchmarks and emit BENCH_manycore.json
# (google-benchmark JSON: per-row corecycles/s, MIPS and
# logical_processors, from 1x1 up to 64 cores x 8 slots = 512
# logical processors).
#
# The build must be a Release build: the script refuses any other
# CMAKE_BUILD_TYPE (scaling numbers from debug-ish builds are not
# comparable). It stamps the JSON context with the build type, git
# sha, compiler and CPU count (smtsim_* keys,
# scripts/bench_common.sh) and checks the stamp with
# scripts/check_bench_json.py.
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

build=${1:-build}
out=${2:-BENCH_manycore.json}
min_time=${SMTSIM_BENCH_MIN_TIME:-0.5}

if [ ! -x "$build/bench/bench_manycore" ]; then
    echo "bench_manycore not built in $build (cmake --build $build)" >&2
    exit 1
fi

. "$(dirname "$0")/bench_common.sh"
bench_require_release "$build" "many-core scaling" bench_manycore

"$build/bench/bench_manycore" \
    --benchmark_min_time="$min_time" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_context="$(bench_context "$build")"

# The context we just asked for must actually be in the artifact, so
# downstream consumers can trust any BENCH_manycore.json handed to
# them; the checker also applies the parallel-efficiency floor.
python3 "$(dirname "$0")/check_bench_json.py" --mc-eff "$out"

echo "wrote $out" >&2
