/**
 * @file
 * perfbench: the repository benchmark binary.
 *
 *     perfbench --workload W --seed N --seconds S --trace 0|1
 *               --expected perfbench/expected.txt --scratch DIR
 *     perfbench --record-expected FILE
 *
 * Workloads: paper-grid, fuzz, serve-mix, manycore (see
 * perfbench/README.md). With --trace 0 the last stdout line is the
 * JSON result with the end-to-end metrics; with --trace 1 it carries
 * the per-layer metrics of a separate traced run. Exit status: 0
 * when every op was correct, 1 on a failed op or check, 2 on a usage
 * or build-type error, 3 when a workload refused to report.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "base/strutil.hh"
#include "bench.hh"
#include "serve/worker.hh"

using namespace perfbench;

namespace
{

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --expected FILE --scratch DIR\n"
                 "       perfbench --record-expected FILE\n",
                 why);
    std::exit(2);
}

} // namespace

namespace perfbench
{

int
recordExpected(const std::string &path)
{
    std::vector<std::string> lines = {
        "# Expected simulated results for perfbench, recorded with",
        "# `perfbench --record-expected FILE` (perfbench/README.md).",
        "# <section> <key> <cycles> <instructions> <stats-fnv1a>; the",
        "# fuzz-pool lines pin <programs> <corpus-fnv1a>."};
    for (auto record : {recordPaperGrid, recordServeMix, recordManycore,
                        recordFuzz}) {
        const std::vector<std::string> part = record();
        if (part.empty()) {
            std::fprintf(stderr, "record: a section failed\n");
            return 1;
        }
        lines.insert(lines.end(), part.begin(), part.end());
    }
    std::ofstream os(path);
    for (const std::string &line : lines)
        os << line << '\n';
    if (!os) {
        std::fprintf(stderr, "record: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("record: wrote %zu lines to %s\n", lines.size(),
                path.c_str());
    return 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    // The serve-mix daemon re-executes this binary as its worker.
    if (argc == 2 && std::strcmp(argv[1], "--worker") == 0)
        return smtsim::serve::workerMain();

    if (!kOptimized) {
        std::fprintf(stderr, "perfbench: refusing to run: this binary "
                             "was compiled without optimization\n");
        return 2;
    }

    Options opts;
    std::string record;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            unsigned long long seed = 0;
            if (!smtsim::parseUint(value, &seed))
                usage("bad --seed");
            opts.seed = seed;
        } else if (arg == "--seconds") {
            long long s = 0;
            if (!smtsim::parseInt(value, &s) || s < 1 || s > 60)
                usage("bad --seconds");
            opts.seconds = static_cast<double>(s);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opts.trace = value == "1";
            have_trace = true;
        } else if (arg == "--expected") {
            opts.expected_path = value;
        } else if (arg == "--scratch") {
            opts.scratch = value;
        } else if (arg == "--record-expected") {
            record = value;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!record.empty())
        return recordExpected(record);
    if (opts.workload.empty() || !have_trace ||
        opts.expected_path.empty() || opts.scratch.empty())
        usage("--workload, --trace, --expected and --scratch are "
              "required");

    std::printf("perfbench.stamp: nproc=%u compiler=\"%s\" "
                "build_type=%s optimized=%d\n",
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, kOptimized ? 1 : 0);
    std::printf("perfbench.run: workload=%s seed=%llu seconds=%g "
                "trace=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);

    ExpectedTable expected;
    std::string err;
    if (!expected.load(opts.expected_path, &err))
        usage(err.c_str());
    std::filesystem::create_directories(opts.scratch);

    Report report;
    try {
        if (opts.workload == "paper-grid")
            runPaperGrid(opts, expected, report);
        else if (opts.workload == "fuzz")
            runFuzz(opts, expected, report);
        else if (opts.workload == "serve-mix")
            runServeMix(opts, expected, report);
        else if (opts.workload == "manycore")
            runManycore(opts, expected, report);
        else
            usage(("unknown workload " + opts.workload).c_str());
    } catch (const std::exception &e) {
        std::printf("perfbench: %s failed: %s\n", opts.workload.c_str(),
                    e.what());
        return 1;
    }
    if (report.metrics.empty()) {
        std::printf("perfbench: %s reported nothing\n",
                    opts.workload.c_str());
        return 3;
    }
    std::printf("perfbench: %llu ops attempted, %llu failed\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    std::fflush(stdout);
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
}
