# Shared by the bench scripts (source it; POSIX sh).
#
# bench_require_release BUILD WHAT TARGET
#   Exit unless BUILD is a CMAKE_BUILD_TYPE=Release build: the
#   benchmark binary cannot tell how the library it links was
#   compiled, so the build type is read from the CMake cache. WHAT
#   names the numbers in the message, TARGET the bench target.
#
# bench_context BUILD
#   Print the --benchmark_context value that stamps the JSON with
#   the build type, the git sha of BUILD's source tree ("-dirty"
#   when tracked files differ from it), the C++ compiler and the
#   host's CPU count, under smtsim_* keys that cannot collide with
#   google-benchmark's own library_build_type.
#   scripts/check_bench_json.py checks the stamp.

bench_cache_var() {
    sed -n "s/^$2:[^=]*=//p" "$1/CMakeCache.txt"
}

bench_require_release() {
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
