/**
 * @file
 * paper-grid: the lab jobs behind the paper's Tables 2, 3 and 5 and
 * the applications table, each with its baseline denominator, run
 * cold through lab::runJobs as closed batches. An op is one grid
 * cell. The inputs are the paper's own, so the simulated statistics
 * and paper_err_pct do not depend on the seed.
 */

#include <cmath>
#include <cstdio>
#include <optional>
#include <set>

#include "baseline/baseline.hh"
#include "bench.hh"
#include "core/processor.hh"
#include "lab/lab.hh"

namespace perfbench
{

using namespace smtsim;

namespace
{

/**
 * Host threads of the lab executor. One: over five interleaved pairs
 * of 20 s runs, the quartile spread of ops_per_s, p50_ms and tail_ms
 * was 14%, 15% and 21% at one thread against 22%, 28% and 34% at two,
 * whose passes wait for whichever thread the host slowed.
 */
constexpr int kThreads = 1;

/**
 * tail_ms percentile (bench.hh summarize()): a 30 s run completes
 * 1200-1800 cells, 12-18 of them beyond p99. The costliest cell is
 * 1.7% of the ops, so p99 falls within its runs.
 */
constexpr double kTailPct = 99.0;

/** Table 5 list length (bench_table5). */
constexpr int kListNodes = 400;

lab::WorkloadSpec
paperRay()
{
    return lab::WorkloadSpec::rayTrace(24, 24, 5, 42);
}

std::string
t2Id(int slots, int lsu, bool standby)
{
    return "t2/s" + std::to_string(slots) + "/ls" +
           std::to_string(lsu) + (standby ? "/sb" : "/nosb");
}

std::string
t3Id(int d, int s)
{
    return "t3/d" + std::to_string(d) + "/s" + std::to_string(s);
}

std::string
t5Id(int slots)
{
    return "t5/eager/s" + std::to_string(slots);
}

/** Every published value with a simulated counterpart. */
struct PaperValue
{
    std::string id;
    double published = 0.0;
    /** Table 5 reports cycles per iteration, the others speed-up. */
    bool per_iteration = false;
};

std::vector<PaperValue>
publishedValues()
{
    std::vector<PaperValue> v;
    const double t2[2][2][3] = {{{1.79, 2.84, 3.22}, {1.83, 2.89, 3.22}},
                                {{2.01, 3.68, 5.68}, {2.02, 3.72, 5.79}}};
    for (int lsu : {1, 2})
        for (bool sb : {false, true})
            for (int i = 0; i < 3; ++i)
                v.push_back({t2Id(2 << i, lsu, sb), t2[lsu - 1][sb][i]});
    const struct
    {
        int d, s;
        double value;
    } t3[] = {{1, 2, 2.02}, {1, 4, 3.72}, {1, 8, 5.79},
              {2, 1, 1.31}, {2, 2, 2.43}, {2, 4, 4.37},
              {4, 1, 1.52}, {4, 2, 2.79}, {8, 1, 1.68}};
    for (const auto &c : t3)
        v.push_back({t3Id(c.d, c.s), c.value});
    v.push_back({"t5/seq", 56.0, true});
    v.push_back({t5Id(2), 32.5, true});
    v.push_back({t5Id(3), 21.67, true});
    for (int s : {4, 6, 8})
        v.push_back({t5Id(s), 17.0, true});
    return v;
}

struct App
{
    const char *name;
    lab::WorkloadSpec spec;
};

std::vector<App>
applications()
{
    return {
        {"raytrace", lab::WorkloadSpec::rayTrace(16, 16)},
        {"matmul", lab::WorkloadSpec::matmul(16)},
        {"bsearch", lab::WorkloadSpec::bsearch(512, 64)},
        {"radiosity", lab::WorkloadSpec::radiosity(32)},
        {"livermore1", lab::WorkloadSpec::livermore1(256, true)},
        {"stencil", lab::WorkloadSpec::stencil(24, 16, 3)},
    };
}

/** The whole grid, in the order the bench binaries print it. */
std::vector<lab::Job>
paperJobs()
{
    std::vector<lab::Job> jobs;
    const lab::WorkloadSpec ray = paperRay();

    // Table 2 (and Table 3's denominator).
    jobs.push_back(lab::baselineJob("t2/baseline", ray));
    for (int lsu : {1, 2}) {
        for (bool standby : {false, true}) {
            for (int slots : {1, 2, 4, 8}) {
                CoreConfig cfg;
                cfg.num_slots = slots;
                cfg.fus.load_store = lsu;
                cfg.standby_enabled = standby;
                cfg.rotation_interval = 8;
                jobs.push_back(
                    lab::coreJob(t2Id(slots, lsu, standby), ray, cfg));
            }
        }
    }

    // Table 3: (D,S) hybrids with two load/store units.
    for (int d : {1, 2, 4, 8}) {
        for (int s : {1, 2, 4, 8}) {
            if (d * s > 8)
                continue;
            if (s == 1) {
                BaselineConfig cfg;
                cfg.width = d;
                cfg.fus.load_store = 2;
                jobs.push_back(lab::baselineJob(t3Id(d, s), ray, cfg));
            } else {
                CoreConfig cfg;
                cfg.width = d;
                cfg.num_slots = s;
                cfg.fus.load_store = 2;
                jobs.push_back(lab::coreJob(t3Id(d, s), ray, cfg));
            }
        }
    }

    // Table 5: eager list-walk iterations vs the sequential loop.
    jobs.push_back(lab::baselineJob(
        "t5/seq", lab::WorkloadSpec::listWalk(kListNodes)));
    for (int slots : {1, 2, 3, 4, 6, 8}) {
        CoreConfig cfg;
        cfg.num_slots = slots;
        cfg.rotation_mode = RotationMode::Explicit;
        jobs.push_back(lab::coreJob(
            t5Id(slots),
            lab::WorkloadSpec::listWalk(kListNodes, -1, true), cfg));
    }

    // Applications table: speed-up at 2/4/8 slots, two LS units.
    for (const App &app : applications()) {
        const std::string base = std::string("app/") + app.name;
        jobs.push_back(lab::baselineJob(base + "/baseline", app.spec));
        for (int s : {2, 4, 8}) {
            CoreConfig cfg;
            cfg.num_slots = s;
            cfg.fus.load_store = 2;
            if (app.spec.kind == "livermore1")
                cfg.rotation_mode = RotationMode::Explicit;
            jobs.push_back(lab::coreJob(
                base + "/s" + std::to_string(s), app.spec, cfg));
        }
    }
    return jobs;
}

/**
 * Mean absolute % error of the simulated paper values whose id
 * starts with @p prefix.
 */
double
paperError(const lab::ResultSet &rs, Report &report,
           const std::string &prefix = "")
{
    const lab::JobResult *base = rs.find("t2/baseline");
    double sum = 0.0;
    int n = 0;
    for (const PaperValue &pv : publishedValues()) {
        if (pv.id.rfind(prefix, 0) != 0)
            continue;
        const lab::JobResult *r = rs.find(pv.id);
        if (!base || !r || !r->ok || r->stats.cycles == 0) {
            report.fail("paper value " + pv.id + " not simulated");
            continue;
        }
        const double sim =
            pv.per_iteration
                ? static_cast<double>(r->stats.cycles) / kListNodes
                : static_cast<double>(base->stats.cycles) /
                      static_cast<double>(r->stats.cycles);
        sum += std::fabs(sim - pv.published) / pv.published * 100.0;
        ++n;
    }
    return n ? sum / n : 0.0;
}

lab::LabOptions
labOptions()
{
    lab::LabOptions o;
    o.num_threads = kThreads;
    return o;
}

/** Check one pass; returns the simulated instructions it retired. */
std::uint64_t
checkPass(const lab::ResultSet &rs, const ExpectedTable &expected,
          Report &report, std::vector<double> *latencies)
{
    std::uint64_t insns = 0;
    for (const lab::JobResult &r : rs.results) {
        ++report.attempted;
        if (latencies)
            latencies->push_back(r.wall_seconds);
        if (!r.ok) {
            report.failOp(r.id + ": " + r.error);
            continue;
        }
        const std::string diff = expected.check("paper", r.id, r.stats);
        if (!diff.empty()) {
            report.failOp(diff);
            continue;
        }
        insns += r.stats.instructions;
    }
    return insns;
}

/** Set-up: the job list plus every distinct program, assembled. */
std::vector<lab::Job>
setUp()
{
    std::vector<lab::Job> jobs = paperJobs();
    std::set<std::string> seen;
    for (const lab::Job &job : jobs) {
        job.cacheKey();
        if (seen.insert(job.workload.canonical()).second)
            lab::instantiate(job.workload);
    }
    return jobs;
}

/**
 * One cell through the parts simulateJob composes, each in a span:
 * instantiate, load, construct, run, verify.
 */
RunStats
tracedCell(const lab::Job &job, Tracer &tr, std::string *error,
           CoreCounts *counts)
{
    SpanScope op(&tr, "op");
    Workload w;
    {
        SpanScope s(&tr, "workloads.instantiate");
        w = lab::instantiate(job.workload);
    }
    MainMemory mem;
    {
        SpanScope s(&tr, "harness.load");
        w.program.loadInto(mem);
        if (w.init)
            w.init(mem);
    }
    RunStats stats;
    if (job.engine == lab::EngineKind::Core) {
        std::optional<MultithreadedProcessor> cpu;
        {
            SpanScope s(&tr, "core.construct");
            cpu.emplace(w.program, mem, job.core);
        }
        {
            SpanScope s(&tr, "core.run");
            stats = cpu->run();
        }
        if (counts)
            counts->add(stats, cpu->detail(), job.core.fus.load_store);
    } else {
        std::optional<BaselineProcessor> cpu;
        {
            SpanScope s(&tr, "baseline.construct");
            cpu.emplace(w.program, mem, job.baseline);
        }
        SpanScope s(&tr, "baseline.run");
        stats = cpu->run();
    }
    SpanScope s(&tr, "workloads.check");
    if (!stats.finished)
        *error = "cycle budget exhausted";
    else if (w.check && !w.check(mem, error) && error->empty())
        *error = "output check failed";
    return stats;
}

void
runTraced(const Options &opts, const ExpectedTable &expected,
          const std::vector<lab::Job> &jobs, Report &report)
{
    addPerLayerDefaults(report);
    Tracer tr;
    CoreCounts counts;
    double untraced_s = 0.0, traced_s = 0.0;
    double exec_busy = 0.0, exec_capacity = 0.0;
    std::uint64_t core_insns = 0, base_insns = 0, core_runs = 0;
    std::uint64_t ops = 0;
    const auto t0 = Clock::now();
    for (int pass = 0; pass == 0 || secondsSince(t0) < opts.seconds;
         ++pass) {
        for (const lab::Job &job : jobs) {
            // The untraced composition and its traced parts back to
            // back, so both see the same host conditions.
            auto u0 = Clock::now();
            const lab::JobResult plain = lab::simulateJob(job);
            untraced_s += secondsSince(u0);

            tr.setOp(static_cast<int>(ops));
            std::string error;
            u0 = Clock::now();
            const RunStats stats = tracedCell(
                job, tr, &error, pass == 0 ? &counts : nullptr);
            traced_s += secondsSince(u0);
            ++ops;
            ++report.attempted;

            std::string diff = expected.check("paper", job.id, stats);
            if (diff.empty() && !error.empty())
                diff = job.id + ": " + error;
            if (diff.empty() && !(plain.ok && statsHash(plain.stats) == statsHash(stats)))
                diff = job.id + ": untraced run differs from traced";
            if (!diff.empty()) {
                report.failOp(diff);
                continue;
            }
            if (job.engine == lab::EngineKind::Core) {
                core_insns += stats.instructions;
                ++core_runs;
            } else {
                base_insns += stats.instructions;
            }
        }
        // The executor itself: idle share of its threads over a batch.
        const auto e0 = Clock::now();
        const lab::ResultSet rs = lab::runJobs(jobs, labOptions());
        exec_capacity += kThreads * secondsSince(e0);
        exec_busy += rs.simSeconds();
    }

    const auto t = tr.totals();
    auto ms = [&](const char *name) { return selfMsPerOp(t, name, ops); };
    auto ns = [&](const char *name) {
        const auto it = t.find(name);
        return it == t.end() ? 0.0 : it->second.self_ns;
    };
    setMetric(report, "core.run_ms", ms("core.run"));
    setMetric(report, "core.construct_ms", ms("core.construct"));
    setMetric(report, "core.ns_per_insn",
              core_insns ? ns("core.run") / static_cast<double>(core_insns)
                         : 0.0);
    setMetric(report, "core.runs",
              static_cast<double>(core_runs) / static_cast<double>(ops));
    setMetric(report, "baseline.run_ms", ms("baseline.run"));
    setMetric(report, "baseline.ns_per_insn",
              base_insns ? ns("baseline.run") /
                               static_cast<double>(base_insns)
                         : 0.0);
    setMetric(report, "workloads.instantiate_ms",
              ms("workloads.instantiate"));
    reportCoreCounts(report, counts);
    setMetric(report, "lab.executor_overhead_pct",
              100.0 * (1.0 - exec_busy / exec_capacity));
    setMetric(report, "trace.overhead_pct",
              100.0 * (traced_s / untraced_s - 1.0));
    setMetric(report, "trace.unattributed_pct",
              100.0 * ns("op") / t.at("op").total_ns);
    std::printf("traced: %llu ops, untraced %.3f s, traced %.3f s\n",
                static_cast<unsigned long long>(ops), untraced_s,
                traced_s);
    tr.write(opts.scratch + "/spans-paper-grid.tsv");
}

} // namespace

void
runPaperGrid(const Options &opts, const ExpectedTable &expected,
             Report &report)
{
    std::vector<double> setup;
    std::vector<lab::Job> jobs;
    auto timedSetUp = [&setup, &jobs](int times) {
        for (int i = 0; i < times; ++i) {
            const auto t0 = Clock::now();
            jobs = setUp();
            setup.push_back(secondsSince(t0));
        }
    };
    timedSetUp(kSetupRepeats);
    if (opts.trace) {
        runTraced(opts, expected, jobs, report);
        return;
    }

    // A window is one pass: every pass is the same batch.
    std::vector<Window> windows;
    double err = 0.0;
    const auto t0 = Clock::now();
    while (windows.empty() || secondsSince(t0) < opts.seconds) {
        Window w;
        const auto p0 = Clock::now();
        const lab::ResultSet rs = lab::runJobs(jobs, labOptions());
        w.seconds = secondsSince(p0);
        w.insns = checkPass(rs, expected, report, &w.latencies);
        if (windows.empty())
            err = paperError(rs, report);
        windows.push_back(std::move(w));
        timedSetUp(kSetupPerWindow);
    }
    std::printf("paper-grid: %zu passes of %zu cells on %d threads in "
                "%.3f s\n",
                windows.size(), jobs.size(), kThreads, secondsSince(t0));

    report.add("setup_s", "s", median(setup));
    reportWindows(report, windows, kTailPct);
    report.add("peak_rss_mb", "MB", peakRssMb());
    report.add("paper_err_pct", "%", err);
}

double
paperErrorPass(const ExpectedTable &expected, Report &report)
{
    const lab::ResultSet rs = lab::runJobs(paperJobs(), labOptions());
    Report scratch;
    checkPass(rs, expected, scratch, nullptr);
    if (!scratch.correct())
        report.fail("paper grid differs from stored values");
    return paperError(rs, report);
}

std::vector<std::string>
recordPaperGrid()
{
    const lab::ResultSet rs = lab::runJobs(paperJobs(), labOptions());
    std::vector<std::string> lines;
    for (const lab::JobResult &r : rs.results) {
        if (!r.ok) {
            std::fprintf(stderr, "record: %s failed: %s\n", r.id.c_str(),
                         r.error.c_str());
            return {};
        }
        lines.push_back(expectedLine("paper", r.id, r.stats.cycles,
                                     r.stats.instructions,
                                     statsHash(r.stats)));
    }
    Report scratch;
    std::printf("record: paper_err_pct %.4f (table 2 %.4f, table 3 "
                "%.4f, table 5 %.4f)\n",
                paperError(rs, scratch), paperError(rs, scratch, "t2/"),
                paperError(rs, scratch, "t3/"),
                paperError(rs, scratch, "t5/"));
    return lines;
}

} // namespace perfbench
