#!/bin/sh
# Load-test the simulation service and emit BENCH_serve.json:
# thundering-herd dedup (N identical submissions -> 1 simulation,
# p50/p99 latency), distinct-spec throughput, and recovery under
# injected worker crashes. The bench fails hard (exit 1) if the
# herd executes more than once or any job is lost.
#
# The build must be a Release build, for the same reason as
# scripts/bench_simspeed.sh: latency/throughput numbers from
# debug-ish builds are not comparable and must never land in
# BENCH_serve.json.
#
# Usage: scripts/bench_serve.sh [build-dir] [out.json]
#   SMTSIM_SERVE_HERD     herd submissions       (default 1200)
#   SMTSIM_SERVE_CLIENTS  concurrent connections (default 32)
#   SMTSIM_SERVE_SWEEP    distinct sweep jobs    (default 96)
set -eu

build=${1:-build}
out=${2:-BENCH_serve.json}

. "$(dirname "$0")/bench_common.sh"
bench_require_release "$build" "service latency" bench_serve

# Dozens of client sockets plus worker pipes; the default soft
# limit of 1024 is tight on some CI hosts.
ulimit -n 4096 2>/dev/null || true

"$build/bench/bench_serve" "$out"

echo "wrote $out" >&2
