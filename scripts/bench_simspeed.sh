#!/bin/sh
# Run the simulator-throughput microbenchmarks and emit
# BENCH_simspeed.json (google-benchmark JSON, incl. cycles/s and
# MIPS counters per engine config).
#
# The build must be a Release build: the script refuses any other
# CMAKE_BUILD_TYPE (numbers from debug-ish builds are not
# comparable and must never land in BENCH_simspeed.json). It stamps
# the JSON context with the build type, git sha, compiler and CPU
# count (smtsim_* keys, scripts/bench_common.sh) and checks the
# stamp with scripts/check_bench_json.py.
#
# Also guards two perf promises:
#  - observability no-cost-when-disabled: BM_CoreTraceOff (event
#    sink detached) must stay within SMTSIM_BENCH_TRACE_PCT percent
#    (default 2) of the plain BM_Core/4 row from the same run
#    (docs/OBSERVABILITY.md);
#  - functional-first speedup: BM_Fastpath must reach at least
#    SMTSIM_BENCH_FAST_X times (default 3) the MIPS of
#    BM_Interpreter on the same kernel (docs/PERF.md).
#
# Usage: scripts/bench_simspeed.sh [build-dir] [out.json]
#   SMTSIM_BENCH_MIN_TIME   benchmark_min_time seconds (default 0.5;
#                           use e.g. 0.1 for a CI smoke run)
#   SMTSIM_BENCH_TRACE_PCT  allowed tracing-disabled overhead in
#                           percent (default 2); set to "skip" to
#                           disable the guard
#   SMTSIM_BENCH_FAST_X     required fast-engine speedup over the
#                           interpreter (default 3); set to "skip"
#                           to disable the guard
set -eu

build=${1:-build}
out=${2:-BENCH_simspeed.json}
min_time=${SMTSIM_BENCH_MIN_TIME:-0.5}
trace_pct=${SMTSIM_BENCH_TRACE_PCT:-2}
fast_x=${SMTSIM_BENCH_FAST_X:-3}

if [ ! -x "$build/bench/bench_simspeed" ]; then
    echo "bench_simspeed not built in $build (cmake --build $build)" >&2
    exit 1
fi

. "$(dirname "$0")/bench_common.sh"
bench_require_release "$build" "simulator-throughput" bench_simspeed

"$build/bench/bench_simspeed" \
    --benchmark_min_time="$min_time" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_context="$(bench_context "$build")"

# Belt and braces: the context we just asked for must actually be in
# the artifact, so downstream consumers (EXPERIMENTS.md, CI diffs)
# can trust any BENCH_simspeed.json they are handed.
python3 "$(dirname "$0")/check_bench_json.py" "$out"

echo "wrote $out" >&2

if [ "$fast_x" = "skip" ]; then
    echo "fastpath speedup guard skipped" >&2
else
    # Same kernel, same MIPS definition, same run — the ratio is the
    # functional-first headline number (docs/PERF.md).
    python3 - "$out" "$fast_x" <<'EOF'
import json
import sys

out, need = sys.argv[1], float(sys.argv[2])
rows = {b["name"]: b for b in json.load(open(out))["benchmarks"]}
try:
    interp = rows["BM_Interpreter"]["MIPS"]
    fast = rows["BM_Fastpath"]["MIPS"]
except KeyError as missing:
    sys.exit(f"bench guard: row {missing} missing from {out}")
ratio = fast / interp
print(f"fast engine: {fast:.1f} MIPS vs interpreter {interp:.1f} "
      f"MIPS ({ratio:.2f}x)", file=sys.stderr)
if ratio < need:
    sys.exit(f"bench guard: fast-engine speedup {ratio:.2f}x is "
             f"below the required {need:.1f}x over BM_Interpreter")
EOF
fi

if [ "$trace_pct" = "skip" ]; then
    echo "tracing-overhead guard skipped" >&2
    exit 0
fi

# Dedicated guard run: the two rows are randomly interleaved and
# repeated so the median comparison is robust against scheduler
# noise on shared runners.
guard_json=$(mktemp)
trap 'rm -f "$guard_json"' EXIT
"$build/bench/bench_simspeed" \
    --benchmark_filter='BM_Core/4$|BM_CoreTraceOff' \
    --benchmark_min_time=0.3 \
    --benchmark_repetitions=7 \
    --benchmark_enable_random_interleaving=true \
    --benchmark_report_aggregates_only=true \
    --benchmark_out="$guard_json" \
    --benchmark_out_format=json >/dev/null

python3 - "$guard_json" "$trace_pct" <<'EOF'
import json
import sys

out, pct = sys.argv[1], float(sys.argv[2])
rows = {b["name"]: b for b in json.load(open(out))["benchmarks"]}
try:
    base = rows["BM_Core/4_median"]["cpu_time"]
    off = rows["BM_CoreTraceOff_median"]["cpu_time"]
except KeyError as missing:
    sys.exit(f"bench guard: row {missing} missing from {out}")
over = 100.0 * (off / base - 1.0)
print(f"tracing disabled: {over:+.2f}% vs BM_Core/4 (median of 7, "
      f"interleaved)", file=sys.stderr)
if over > pct:
    sys.exit(f"bench guard: tracing-disabled overhead {over:.2f}% "
             f"exceeds {pct:.1f}% (event emission must hide behind "
             f"a null-sink check)")
EOF
