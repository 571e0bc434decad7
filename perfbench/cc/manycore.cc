/**
 * @file
 * manycore: bench_manycore's coupled configuration -- 16 cores x 8
 * slots x 10 frames, the matmul data segment mapped remote, L2
 * access 200 cycles, hop latency 8 -- run with ManyCoreMachine::run
 * on the sequential schedule. An op is one machine run; the next
 * machine is built between ops. The input is fixed, so the stored
 * MachineStats hold for every seed.
 */

#include <cstdio>
#include <iterator>
#include <memory>

#include "bench.hh"
#include "lab/lab.hh"
#include "machine/manycore.hh"

namespace perfbench
{

using namespace smtsim;

namespace
{

/**
 * Machine sizes the timed ops cycle through: bench_manycore's coupled
 * configuration at 16 cores and at the sizes around it. With every op
 * the same 16-core run, p50_ms was the latency at whichever host speed
 * held most of a run (other tenants slow this host by up to 40% for
 * seconds to minutes) and spread 29% and 33% over two sets of ten 30 s
 * runs. Op costs spread over 12-20 cores move the median smoothly
 * with the host instead. The set-up and the traced run use 16 cores.
 */
constexpr int kCoreCounts[] = {16, 12, 13, 14, 15, 17, 18, 19, 20};
constexpr int kCores = 16;

/**
 * Host threads of an op: 0, the sequential schedule. The threaded
 * schedules wait at every quantum barrier for each of their threads,
 * and on a host whose hypervisor takes vCPUs away now and then, ops
 * stall there: over ten 30 s runs on 3 host threads, while it stole
 * about 2% of the CPU time, tail_ms spread 136% and ops_per_s 25%,
 * against 5% and 14% on the sequential schedule. Nor are they faster
 * here: machine.par_eff, which the traced run measures by timing the
 * 2-thread schedule, read 0.24 to 0.52.
 */
constexpr int kOpThreads = 0;
/** Host threads of the threaded schedule the traced run compares. */
constexpr int kParThreads = 2;

/** Machine runs per timing window: one of each size. */
constexpr int kWindowOps = std::size(kCoreCounts);

/**
 * tail_ms percentile (bench.hh summarize()): a 30 s run holds 300-500
 * machine runs, 15-25 of them beyond p95.
 */
constexpr double kTailPct = 95.0;

MachineConfig
machineConfig(const Workload &w, int cores = kCores)
{
    MachineConfig cfg;
    cfg.num_cores = cores;
    cfg.core.num_slots = 8;
    cfg.core.num_frames = 10;
    cfg.core.fus.load_store = 2;
    cfg.core.max_cycles = 5'000'000;
    cfg.core.remote.base = w.program.data_base;
    cfg.core.remote.size = static_cast<Addr>(w.program.data.size());
    cfg.noc.l2_access_cycles = 200;
    cfg.noc.hop_latency = 8;
    return cfg;
}

Workload
workload()
{
    return lab::instantiate(lab::WorkloadSpec::matmul(8));
}

std::unique_ptr<ManyCoreMachine>
build(const Workload &w, const MachineConfig &cfg)
{
    return std::make_unique<ManyCoreMachine>(
        w.program, cfg, [&w](int, MainMemory &mem) {
            if (w.init)
                w.init(mem);
        });
}

/** Stats and outputs of one finished run; "" when both hold. */
std::string
checkRun(const ManyCoreMachine &m, const MachineStats &s, const Workload &w,
         const ExpectedTable &expected)
{
    const Expected *e = expected.find(
        "manycore", "matmul8/c" + std::to_string(m.numCores()));
    const RunStats agg = s.aggregate();
    if (!e || e->cycles != s.cycles || e->insns != agg.instructions ||
        e->hash != machineHash(s))
        return "machine stats differ from the stored value (cycles " +
               std::to_string(s.cycles) + ", quanta " +
               std::to_string(s.quanta) + ")";
    for (int c = 0; c < m.numCores(); ++c) {
        std::string why;
        if (w.check && !w.check(m.memory(c), &why))
            return "core " + std::to_string(c) + ": " + why;
    }
    return {};
}

void
runTraced(const Options &opts, const ExpectedTable &expected,
          const Workload &w, const MachineConfig &cfg, Report &report)
{
    addPerLayerDefaults(report);
    Tracer tr;
    CoreCounts counts;
    double plain_s = 0.0, par_s = 0.0;
    std::uint64_t ops = 0, quanta = 0;
    MachineStats first;
    const auto t0 = Clock::now();
    while (ops == 0 || secondsSince(t0) < opts.seconds) {
        // Untraced runs: the op itself (for the tracing overhead) and
        // the threaded schedule (for par_eff).
        for (int threads : {kOpThreads, kParThreads}) {
            auto m = build(w, cfg);
            const auto s0 = Clock::now();
            m->run(threads);
            (threads == kOpThreads ? plain_s : par_s) += secondsSince(s0);
        }
        tr.setOp(static_cast<int>(ops));
        std::unique_ptr<ManyCoreMachine> m;
        MachineStats s;
        {
            SpanScope op(&tr, "op");
            {
                SpanScope b(&tr, "machine.build");
                m = build(w, cfg);
            }
            SpanScope r(&tr, "machine.run");
            s = m->run(kOpThreads);
        }
        ++report.attempted;
        const std::string why = checkRun(*m, s, w, expected);
        if (!why.empty())
            report.failOp(why);
        if (ops == 0) {
            first = s;
            for (int c = 0; c < m->numCores(); ++c)
                counts.add(s.cores[static_cast<std::size_t>(c)],
                           m->core(c).detail(), cfg.core.fus.load_store);
        }
        quanta += s.quanta;
        ++ops;
    }

    const auto t = tr.totals();
    const double run_s = t.at("machine.run").total_ns / 1e9;
    setMetric(report, "machine.build_ms",
              selfMsPerOp(t, "machine.build", ops));
    setMetric(report, "machine.run_ms", selfMsPerOp(t, "machine.run", ops));
    setMetric(report, "machine.quanta", static_cast<double>(first.quanta));
    setMetric(report, "machine.us_per_quantum",
              run_s * 1e6 / static_cast<double>(quanta));
    setMetric(report, "machine.par_eff", plain_s / (kParThreads * par_s));
    setMetric(report, "interconnect.requests",
              static_cast<double>(first.noc.requests));
    setMetric(report, "interconnect.conflicts",
              static_cast<double>(first.noc.conflicts));
    setMetric(report, "interconnect.mean_latency_cycles",
              first.noc.requests
                  ? static_cast<double>(first.noc.total_latency) /
                        static_cast<double>(first.noc.requests)
                  : 0.0);
    reportCoreCounts(report, counts);
    // The untraced op is the run alone; the build sits between ops.
    setMetric(report, "trace.overhead_pct",
              100.0 * (run_s / plain_s - 1.0));
    setMetric(report, "trace.unattributed_pct",
              100.0 * t.at("op").self_ns / t.at("op").total_ns);
    std::printf("traced: %llu ops, sequential %.3f s untraced / %.3f s "
                "traced, %d threads %.3f s\n",
                static_cast<unsigned long long>(ops), plain_s, run_s,
                kParThreads, par_s);
    tr.write(opts.scratch + "/spans-manycore.tsv");
}

} // namespace

void
runManycore(const Options &opts, const ExpectedTable &expected,
            Report &report)
{
    std::vector<double> setup;
    Workload w;
    MachineConfig cfg;
    std::unique_ptr<ManyCoreMachine> next;
    for (int i = 0; i < kSetupRepeats; ++i) {
        next.reset();
        const auto t0 = Clock::now();
        w = workload();
        cfg = machineConfig(w);
        next = build(w, cfg);
        setup.push_back(secondsSince(t0));
    }
    // Later samples build a machine of their own and discard it; the
    // workload they instantiate is identical to w.
    auto sampleSetUp = [&setup] {
        for (int i = 0; i < kSetupPerWindow; ++i) {
            const auto t0 = Clock::now();
            const Workload sw = workload();
            build(sw, machineConfig(sw));
            setup.push_back(secondsSince(t0));
        }
    };
    if (opts.trace) {
        runTraced(opts, expected, w, cfg, report);
        return;
    }

    // A window is one op of each size; the check and the next
    // machine's build sit between ops, inside the window.
    std::vector<Window> windows;
    const auto t0 = Clock::now();
    while (windows.empty() || secondsSince(t0) < opts.seconds) {
        Window win;
        const auto w0 = Clock::now();
        for (int i = 0; i < kWindowOps; ++i) {
            std::unique_ptr<ManyCoreMachine> m = std::move(next);
            const auto op0 = Clock::now();
            const MachineStats s = m->run(kOpThreads);
            win.latencies.push_back(secondsSince(op0));
            ++report.attempted;
            const std::string why = checkRun(*m, s, w, expected);
            if (why.empty())
                win.insns += s.aggregate().instructions;
            else
                report.failOp(why);
            m.reset();
            next = build(w, machineConfig(
                                w, kCoreCounts[(i + 1) % kWindowOps]));
        }
        win.seconds = secondsSince(w0);
        windows.push_back(std::move(win));
        sampleSetUp();
    }
    const double rss = peakRssMb();
    next.reset();
    std::printf("manycore: %zu sequential machine runs in %.3f s\n",
                windows.size() * kWindowOps, secondsSince(t0));

    report.add("setup_s", "s", median(setup));
    reportWindows(report, windows, kTailPct);
    report.add("peak_rss_mb", "MB", rss);
    report.add("paper_err_pct", "%", paperErrorPass(expected, report));
}

std::vector<std::string>
recordManycore()
{
    const Workload w = workload();
    std::vector<std::string> lines;
    for (int cores : kCoreCounts) {
        auto m = build(w, machineConfig(w, cores));
        const MachineStats s = m->run(0);
        if (!s.finished)
            return {};
        std::printf("record: manycore %d cores: %llu cycles, %llu quanta, "
                    "%llu remote requests\n",
                    cores, static_cast<unsigned long long>(s.cycles),
                    static_cast<unsigned long long>(s.quanta),
                    static_cast<unsigned long long>(s.noc.requests));
        lines.push_back(expectedLine(
            "manycore", "matmul8/c" + std::to_string(cores), s.cycles,
            s.aggregate().instructions, machineHash(s)));
    }
    return lines;
}

} // namespace perfbench
