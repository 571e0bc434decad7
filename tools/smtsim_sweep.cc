/**
 * @file
 * smtsim-sweep: run a declarative experiment grid through the
 * smtsim::lab engine — in parallel, with resumable content-addressed
 * result caching.
 *
 *     smtsim-sweep [options]
 *
 * Sweep description:
 *     --workload SPEC    workload, repeatable. SPEC is a kind
 *                        (raytrace, livermore1, matmul, bsearch,
 *                        stencil, radiosity, recurrence, listwalk)
 *                        optionally followed by :key=value,...
 *                        e.g. raytrace:width=24,height=24
 *                        (default raytrace:width=24,height=24)
 *     --engine core|baseline|both   grid engine(s); "both" adds a
 *                        sequential baseline point per workload
 *                        (default core)
 *     --slots LIST       comma-separated thread-slot counts (def 4)
 *     --frames LIST      context-frame counts; -1 = slots (def -1)
 *     --lsu LIST         load/store unit counts (default 1)
 *     --width LIST       per-slot issue widths (default 1)
 *     --standby on|off|both        standby stations (default on)
 *     --interval LIST    rotation intervals (default 8)
 *     --cores LIST       simulated core counts. The default {1}
 *                        keeps the classic single-core grid; any
 *                        other list switches every cell to the
 *                        many-core machine engine (docs/MANYCORE.md)
 *                        with shared-L2 remote-data coupling
 *     --max-cycles N     per-job cycle budget override
 *     --timeout SECONDS  per-job wall-clock budget
 *
 * Execution:
 *     --jobs N           worker threads (default: host cores)
 *     --host-threads N   host threads per machine-engine job
 *                        (0 = sequential reference schedule;
 *                        results are bit-identical either way)
 *     --cache-dir PATH   result cache (default .smtsim-cache)
 *     --cache-max-mb N   cache size budget in MiB; least-recently-
 *                        used records are evicted past it (default
 *                        unbounded)
 *     --no-cache         disable the result cache
 *     --dry-run          print the expanded job grid with a cache
 *                        hit/miss prediction per point, then exit
 *                        without simulating
 *     --quiet            no progress line on stderr
 *
 * Output:
 *     --json PATH        write the full ResultSet as JSON ('-' =
 *                        stdout)
 *     --csv PATH         write the flat CSV ('-' = stdout)
 *     --table            print the summary table (default when no
 *                        --json/--csv target is stdout)
 *
 * Exit status: 0 when every point succeeded, 1 otherwise.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "base/strutil.hh"
#include "lab/lab.hh"

using namespace smtsim;
using namespace smtsim::lab;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options]   (see file header or "
                 "docs/LAB.md for options)\n",
                 argv0);
    std::exit(2);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "smtsim-sweep: %s\n", msg.c_str());
    std::exit(2);
}

int
run(int argc, char **argv)
{
    ExperimentSpec spec;
    spec.name = "smtsim-sweep";
    LabOptions opts;
    opts.cache_dir = ".smtsim-cache";
    std::string engine = "core";
    std::string json_path, csv_path;
    bool want_table = false;
    bool quiet = false;
    bool dry_run = false;

    auto need_value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--engine") {
            engine = need_value(i);
            if (engine != "core" && engine != "baseline" &&
                engine != "both")
                die("--engine must be core, baseline or both");
        } else if (arg == "--cores") {
            spec.cores = parseIntList(arg, need_value(i), 1);
        } else if (arg == "--host-threads") {
            long long v = 0;
            if (!parseInt(need_value(i), &v) || v < 0)
                die("--host-threads needs an integer >= 0");
            opts.machine_host_threads = static_cast<int>(v);
        } else if (arg == "--max-cycles") {
            unsigned long long v = 0;
            if (!parseUint(need_value(i), &v) || v == 0)
                die("--max-cycles needs a positive integer");
            opts.max_cycles = v;
        } else if (arg == "--timeout") {
            long long v = 0;
            if (!parseInt(need_value(i), &v) || v <= 0)
                die("--timeout needs a positive integer (seconds)");
            opts.timeout_seconds = static_cast<double>(v);
        } else if (arg == "--jobs") {
            long long v = 0;
            if (!parseInt(need_value(i), &v) || v <= 0)
                die("--jobs needs a positive integer");
            opts.num_threads = static_cast<int>(v);
        } else if (arg == "--cache-dir") {
            opts.cache_dir = need_value(i);
        } else if (arg == "--cache-max-mb") {
            unsigned long long v = 0;
            if (!parseUint(need_value(i), &v) || v == 0)
                die("--cache-max-mb needs a positive integer");
            opts.cache_max_bytes = v * 1024ull * 1024ull;
        } else if (arg == "--no-cache") {
            opts.cache_dir.clear();
        } else if (arg == "--dry-run") {
            dry_run = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--json") {
            json_path = need_value(i);
        } else if (arg == "--csv") {
            csv_path = need_value(i);
        } else if (arg == "--table") {
            want_table = true;
        } else if (i + 1 < argc && setGridFlag(spec, arg, argv[i + 1])) {
            ++i;
        } else {
            usage(argv[0]);
        }
    }

    if (spec.workloads.empty())
        spec.workloads.push_back(WorkloadSpec::rayTrace(24, 24));
    spec.include_baseline = engine == "both";

    std::vector<Job> jobs;
    if (engine == "baseline") {
        for (const WorkloadSpec &wl : spec.workloads)
            jobs.push_back(baselineJob(wl.kind + "/baseline", wl,
                                       spec.baseline_template));
    } else {
        jobs = spec.expand();
    }

    if (dry_run) {
        // Predict, don't simulate: probe the cache without touching
        // LRU stamps so a dry run never perturbs eviction order.
        // Keys must match what runJobs() would use, so apply the
        // same sweep-wide cycle clamp before hashing.
        clampCycles(jobs, opts.max_cycles);
        const ResultCache cache(opts.cache_dir);
        std::size_t hits = 0;
        std::printf("%-40s %-16s %s\n", "job", "key", "cache");
        for (const Job &job : jobs) {
            const bool hit = cache.contains(job);
            hits += hit ? 1 : 0;
            std::printf("%-40s %-16s %s\n", job.id.c_str(),
                        job.cacheKey().c_str(),
                        hit ? "hit" : "miss");
        }
        std::printf("%zu job(s): %zu predicted cache hit(s), %zu "
                    "to simulate\n",
                    jobs.size(), hits, jobs.size() - hits);
        return 0;
    }

    if (!quiet) {
        std::fprintf(stderr,
                     "%zu job(s), cache %s\n", jobs.size(),
                     opts.cache_dir.empty()
                         ? "disabled"
                         : opts.cache_dir.c_str());
        if (isatty(fileno(stderr)))
            opts.progress = stderrProgress();
    }

    const ResultSet rs = runJobs(jobs, opts);

    if (!json_path.empty())
        writeTextOutput(json_path, rs.toJson().dump(2) + "\n",
                        "JSON");
    if (!csv_path.empty())
        writeTextOutput(csv_path, rs.toCsv(), "CSV");
    if (want_table || (json_path != "-" && csv_path != "-"))
        rs.toTable("sweep results").print(std::cout);

    std::fprintf(stderr,
                 "%zu job(s): %zu simulated, %zu from cache, %zu "
                 "failed (%.2fs simulation time)\n",
                 rs.results.size(),
                 rs.results.size() - rs.cacheHits(), rs.cacheHits(),
                 rs.failures(), rs.simSeconds());
    return rs.failures() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Bad flag values and unwritable outputs end here, named.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        die(e.what());
    }
}
