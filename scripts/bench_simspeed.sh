#!/bin/sh
# Run the simulator-throughput microbenchmarks and emit
# BENCH_simspeed.json (google-benchmark JSON, incl. cycles/s and
# MIPS counters per engine config).
#
# Release builds only; the JSON is stamped with the build type, git
# sha, compiler and CPU count (bench_run, scripts/bench_common.sh).
#
# scripts/check_bench_json.py checks the stamp and two perf
# promises, each a ratio of two rows from the same run:
#  - --fast-floor: the functional engine's chunk loop (BM_Fastpath)
#    reaches at least SMTSIM_BENCH_FAST_X times (default 3) the MIPS
#    of the same engine's reference stepping (BM_Interpreter) on the
#    same kernel (docs/PERF.md);
#  - --trace-guard: observability no-cost-when-disabled.
#    BM_CoreTraceOff (event sink detached) must stay within
#    SMTSIM_BENCH_TRACE_PCT percent (default 2) of the plain
#    BM_Core/4 row (docs/OBSERVABILITY.md), comparing the minima of
#    40 interleaved repetitions in a dedicated run.
#
# Usage: scripts/bench_simspeed.sh [build-dir] [out.json]
#   SMTSIM_BENCH_MIN_TIME   benchmark_min_time seconds (default 0.5;
#                           use e.g. 0.1 for a CI smoke run)
#   SMTSIM_BENCH_TRACE_PCT  allowed tracing-disabled overhead in
#                           percent (default 2); set to "skip" to
#                           disable the guard
#   SMTSIM_BENCH_FAST_X     required chunk-loop speedup over
#                           reference stepping (default 3); set to
#                           "skip" to disable the guard
set -eu

build=${1:-build}

. "$(dirname "$0")/bench_common.sh"
# The chunk-loop floor compares two rows of the same artifact.
bench_run "$build" bench_simspeed simulator-throughput \
    "${2:-BENCH_simspeed.json}" --fast-floor

if [ "${SMTSIM_BENCH_TRACE_PCT:-2}" = "skip" ]; then
    echo "tracing-overhead guard skipped" >&2
    exit 0
fi

# Dedicated guard run: the two rows are randomly interleaved and
# repeated, and the guard compares each row's fastest repetition:
# noise from other tenants on a shared runner only adds time, so a
# median of a few repetitions swings by tens of percent on identical
# code while the minima agree.
guard_json=$(mktemp)
trap 'rm -f "$guard_json"' EXIT
"$build/bench/bench_simspeed" \
    --benchmark_filter='BM_Core/4$|BM_CoreTraceOff' \
    --benchmark_min_time=0.1 \
    --benchmark_repetitions=40 \
    --benchmark_enable_random_interleaving=true \
    --benchmark_display_aggregates_only=true \
    --benchmark_out="$guard_json" \
    --benchmark_out_format=json \
    --benchmark_context="$(bench_context "$build")" >/dev/null

python3 "$(dirname "$0")/check_bench_json.py" --trace-guard "$guard_json"
