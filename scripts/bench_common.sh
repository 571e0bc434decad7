# Shared by the bench scripts (source it; POSIX sh).
#
# bench_require_release BUILD WHAT TARGET
#   Exit unless BUILD/bench/TARGET is built and BUILD is a
#   CMAKE_BUILD_TYPE=Release build: the benchmark binary cannot tell
#   how the library it links was compiled, so the build type is read
#   from the CMake cache. WHAT names the numbers in the message.
#
# bench_context BUILD
#   Print the --benchmark_context value that stamps the JSON with
#   the build type, the git sha of BUILD's source tree ("-dirty"
#   when tracked files differ from it), the C++ compiler and the
#   host's CPU count, under smtsim_* keys that cannot collide with
#   google-benchmark's own library_build_type.
#   scripts/check_bench_json.py checks the stamp.
#
# bench_run BUILD TARGET WHAT OUT [CHECK-FLAG...]
#   bench_require_release, then run the google-benchmark binary
#   TARGET for SMTSIM_BENCH_MIN_TIME seconds per row (default 0.5)
#   into OUT, stamped with bench_context, and check OUT with
#   scripts/check_bench_json.py and CHECK-FLAGs: the stamp asked for
#   must be in the artifact, so any ledger handed on can be trusted.

bench_cache_var() {
    sed -n "s/^$2:[^=]*=//p" "$1/CMakeCache.txt"
}

bench_require_release() {
    if [ ! -x "$1/bench/$3" ]; then
        echo "$3 not built in $1 (cmake --build $1 --target $3)" >&2
        exit 1
    fi
    if [ ! -f "$1/CMakeCache.txt" ]; then
        echo "bench guard: $1/CMakeCache.txt not found (not a CMake" \
             "build dir?)" >&2
        exit 1
    fi
    bench_build_type=$(bench_cache_var "$1" CMAKE_BUILD_TYPE)
    if [ "$bench_build_type" != "Release" ]; then
        echo "bench guard: $1 is a '${bench_build_type:-<unset>}'" \
             "build; $2 numbers are only meaningful from a Release" \
             "build:" >&2
        echo "    cmake -B build-release -DCMAKE_BUILD_TYPE=Release &&" \
             "cmake --build build-release --target $3" >&2
        exit 1
    fi
}

bench_run() {
    bench_build=$1 bench_target=$2 bench_what=$3 bench_out=$4
    shift 4
    bench_require_release "$bench_build" "$bench_what" "$bench_target"
    "$bench_build/bench/$bench_target" \
        --benchmark_min_time="${SMTSIM_BENCH_MIN_TIME:-0.5}" \
        --benchmark_out="$bench_out" \
        --benchmark_out_format=json \
        --benchmark_context="$(bench_context "$bench_build")"
    python3 "$(dirname "$0")/check_bench_json.py" "$@" "$bench_out"
    echo "wrote $bench_out" >&2
}

bench_context() {
    src=$(bench_cache_var "$1" CMAKE_HOME_DIRECTORY)
    sha=$(git -C "$src" rev-parse HEAD 2>/dev/null || echo unknown)
    if [ "$sha" != unknown ] && ! git -C "$src" diff --quiet HEAD; then
        sha="$sha-dirty"
    fi
    cxx=$(bench_cache_var "$1" CMAKE_CXX_COMPILER)
    # Context values are comma-separated pairs: drop commas.
    compiler=$("$cxx" --version 2>/dev/null | head -n 1 | tr -d ',')
    ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null ||
           echo unknown)
    printf 'smtsim_build_type=%s,smtsim_git_sha=%s,' \
        "$(bench_cache_var "$1" CMAKE_BUILD_TYPE)" "$sha"
    printf 'smtsim_compiler=%s,smtsim_nproc=%s\n' \
        "${compiler:-unknown}" "$ncpu"
}
