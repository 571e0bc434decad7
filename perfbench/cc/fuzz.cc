/**
 * @file
 * fuzz: set-up generates a fixed program pool with fuzz::generate --
 * the first kPoolSize programs `smtsim-fuzz --seed 1` checks -- and
 * an op takes one program through assemble -> analysis::lint ->
 * fuzz::checkProgram, one program at a time. A window is one pass
 * over the pool in a seed-chosen order; passes repeat for the run.
 *
 * The pool is the same for every seed because program cost is heavy
 * tailed: with seed-chosen program sets, ops_per_s moved 17%
 * (quartile spread over five seeds) from the inputs alone. The pool
 * is pinned by its corpus hash, so a generator change cannot swap
 * the workload under a comparison.
 */

#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <set>

#include "analysis/lint.hh"
#include "asmr/assembler.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "baseline/baseline.hh"
#include "bench.hh"
#include "core/processor.hh"
#include "fuzz/generate.hh"
#include "fuzz/oracle.hh"

namespace perfbench
{

using namespace smtsim;
using namespace smtsim::fuzz;

namespace
{

/** Programs in the pool, and so per timing window. */
constexpr int kPoolSize = 100;

/** Top-level generator seed of the pool (smtsim-fuzz's default). */
constexpr std::uint64_t kPoolSeed = 1;

/**
 * tail_ms percentile (bench.hh summarize()): a 30 s run checks about
 * 3000 programs, some 15 of them beyond p99.5. Each program of the
 * pool is 1% of the ops, so p99 would fall between the costliest
 * program and the next; p99.5 falls within the costliest one's runs.
 */
constexpr double kTailPct = 99.5;

struct Generated
{
    std::string text;
    GenFeatures features;
};

/** smtsim-fuzz's first @p count programs for kPoolSeed. */
std::vector<Generated>
generatePool(int count, std::uint64_t *hash)
{
    Rng top(kPoolSeed);
    Fnv1a corpus;
    std::vector<Generated> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        GenOptions opts;
        opts.seed = top.next();
        const GenProgram prog = generate(opts);
        out.push_back({prog.render(), prog.features});
        corpus.add(out.back().text);
    }
    *hash = corpus.digest();
    return out;
}

std::string
pinLine(int count, std::uint64_t hash)
{
    return "fuzz-pool " + std::to_string(count) + " " + hashToHex(hash);
}

/** @return false when the pool differs from its pinned hash. */
bool
checkPin(const ExpectedTable &expected, int count, std::uint64_t hash,
         Report &report)
{
    std::printf("fuzz: pool of %d programs, corpus hash %s\n", count,
                hashToHex(hash).c_str());
    for (const std::string &line : expected.section("fuzz-pool")) {
        if (line == pinLine(count, hash))
            return true;
    }
    report.fail("fuzz pool corpus hash is not the pinned one: the "
                "generator no longer produces the pinned programs");
    return false;
}

/** One untraced op. @return "" or the failure. */
std::string
checkOne(const Generated &g)
{
    try {
        const Program image = assemble(g.text);
        const analysis::LintReport lr = analysis::lint(image);
        if (!lr.diags.empty())
            return "lint: " + analysis::formatText(lr, "<gen>");
        if (const auto div = checkProgram(image, g.features))
            return "divergence " + div->ref.name() + " vs " +
                   div->cfg.name() + ": " + div->detail;
    } catch (const std::exception &e) {
        return std::string("error: ") + e.what();
    }
    return {};
}

/**
 * Instructions the oracle grid retires for one program: each cell
 * retires what its interpreter reference does (else it diverges), so
 * they are counted from the references at each thread count. The
 * replay and many-core checks are not counted.
 */
std::uint64_t
gridInstructions(const Generated &g)
{
    const Program image = assemble(g.text);
    std::map<int, std::uint64_t> ref;
    for (int slots : {1, 2, 4, 8}) {
        RunConfig rc;
        rc.engine = Engine::Interp;
        rc.slots = slots;
        ref[slots] = runEngine(image, rc).instructions;
    }
    std::set<std::string> refs;
    std::uint64_t total = 0;
    for (const auto &[r, cell] : buildGrid(g.features)) {
        if (refs.insert(r.name()).second)
            total += ref[r.slots];
        total += ref[cell.slots];
    }
    return total;
}

// -- traced run -------------------------------------------------------

std::uint64_t
fpBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

void
captureMemory(const Program &prog, const MainMemory &mem, EngineState &st)
{
    for (std::size_t i = 0; i < prog.data.size() / 4; ++i)
        st.mem.push_back(
            mem.read32(prog.data_base + static_cast<Addr>(i) * 4));
}

struct TraceCounts
{
    std::uint64_t cells = 0;
    std::uint64_t core_runs = 0;
    std::uint64_t core_insns = 0;
    std::uint64_t base_insns = 0;
    std::uint64_t interp_insns = 0;
    std::uint64_t fast_insns = 0;
    /** Exact simulated counts of the first pass. */
    CoreCounts exact;
};

/**
 * runEngine's core and baseline cases split into construct and run
 * spans; the interpreter and fast engine go through runEngine whole.
 */
EngineState
tracedCell(const Program &prog, const RunConfig &rc, Tracer &tr,
           TraceCounts &c, bool first_pass)
{
    const OracleBudget budget;
    ++c.cells;
    switch (rc.engine) {
      case Engine::Interp: {
        SpanScope s(&tr, "fuzz.cell.interp");
        EngineState st = runEngine(prog, rc, budget);
        c.interp_insns += st.instructions;
        return st;
      }
      case Engine::Fast: {
        SpanScope s(&tr, "fuzz.cell.fast");
        EngineState st = runEngine(prog, rc, budget);
        c.fast_insns += st.instructions;
        return st;
      }
      case Engine::Baseline: {
        SpanScope s(&tr, "fuzz.cell.baseline");
        EngineState st;
        MainMemory mem;
        prog.loadInto(mem);
        try {
            BaselineConfig cfg;
            cfg.width = rc.width;
            cfg.fast_forward = rc.fast_forward;
            cfg.max_cycles = budget.max_cycles;
            std::optional<BaselineProcessor> cpu;
            {
                SpanScope b(&tr, "baseline.construct");
                cpu.emplace(prog, mem, cfg);
            }
            RunStats stats;
            {
                SpanScope b(&tr, "baseline.run");
                stats = cpu->run();
            }
            st.finished = stats.finished;
            st.instructions = stats.instructions;
            c.base_insns += stats.instructions;
            std::array<std::uint32_t, kNumRegs> ir{};
            std::array<std::uint64_t, kNumRegs> fr{};
            for (int i = 0; i < kNumRegs; ++i) {
                ir[i] = cpu->intReg(static_cast<RegIndex>(i));
                fr[i] = fpBits(cpu->fpReg(static_cast<RegIndex>(i)));
            }
            st.iregs.push_back(ir);
            st.fregs.push_back(fr);
            captureMemory(prog, mem, st);
        } catch (const FatalError &e) {
            st.trapped = true;
            st.trap = std::string("fatal: ") + e.what();
        } catch (const PanicError &e) {
            st.trapped = true;
            st.trap = std::string("panic: ") + e.what();
        }
        return st;
      }
      case Engine::Core:
        break;
    }

    SpanScope s(&tr, "fuzz.cell.core");
    EngineState st;
    MainMemory mem;
    prog.loadInto(mem);
    try {
        CoreConfig cfg;
        cfg.num_slots = rc.slots;
        cfg.width = rc.width;
        cfg.fast_forward = rc.fast_forward;
        cfg.standby_enabled = rc.standby;
        cfg.max_cycles = budget.max_cycles;
        if (rc.explicit_rot) {
            cfg.rotation_mode = RotationMode::Explicit;
            cfg.rotation_interval = rc.interval;
        }
        if (rc.cache) {
            cfg.dcache.size_bytes = 1024;
            cfg.icache.size_bytes = 1024;
        }
        if (rc.remote) {
            cfg.remote.base = prog.symbol("table");
            cfg.remote.size = 64;
            cfg.remote.latency = 40;
            cfg.num_frames = cfg.num_slots + 1;
        }
        std::optional<MultithreadedProcessor> cpu;
        {
            SpanScope b(&tr, "core.construct");
            cpu.emplace(prog, mem, cfg);
        }
        RunStats stats;
        {
            SpanScope b(&tr, "core.run");
            stats = cpu->run();
        }
        ++c.core_runs;
        c.core_insns += stats.instructions;
        if (first_pass)
            c.exact.add(stats, cpu->detail(), cfg.fus.load_store);
        st.finished = stats.finished;
        st.instructions = stats.instructions;
        for (int t = 0; t < rc.slots; ++t) {
            std::array<std::uint32_t, kNumRegs> ir{};
            std::array<std::uint64_t, kNumRegs> fr{};
            for (int i = 0; i < kNumRegs; ++i) {
                ir[i] = cpu->intReg(t, static_cast<RegIndex>(i));
                fr[i] = fpBits(cpu->fpReg(t, static_cast<RegIndex>(i)));
            }
            st.iregs.push_back(ir);
            st.fregs.push_back(fr);
        }
        captureMemory(prog, mem, st);
    } catch (const FatalError &e) {
        st.trapped = true;
        st.trap = std::string("fatal: ") + e.what();
    } catch (const PanicError &e) {
        st.trapped = true;
        st.trap = std::string("panic: ") + e.what();
    }
    return st;
}

/** checkProgram's parts, each in a span. */
std::string
tracedOp(const Generated &g, Tracer &tr, TraceCounts &c, bool first_pass)
{
    SpanScope op(&tr, "op");
    Program image;
    {
        SpanScope s(&tr, "asmr.assemble");
        image = assemble(g.text);
    }
    {
        SpanScope s(&tr, "analysis.lint");
        if (!analysis::lint(image).diags.empty())
            return "lint diagnostics";
    }
    std::vector<std::pair<RunConfig, RunConfig>> grid;
    {
        SpanScope s(&tr, "fuzz.grid");
        grid = buildGrid(g.features);
    }
    std::map<std::string, EngineState> refs;
    for (const auto &[ref, cell] : grid) {
        auto it = refs.find(ref.name());
        if (it == refs.end())
            it = refs.emplace(ref.name(),
                              tracedCell(image, ref, tr, c, first_pass))
                     .first;
        const EngineState got = tracedCell(image, cell, tr, c, first_pass);
        SpanScope s(&tr, "fuzz.diff");
        const std::string diff =
            diffStates(it->second, got, g.features.usesQueues());
        if (!diff.empty())
            return "divergence " + cell.name() + ": " + diff;
    }
    {
        SpanScope s(&tr, "fuzz.replay_check");
        if (const auto div = checkReplayTiming(image, g.features))
            return "replay divergence: " + div->detail;
    }
    SpanScope s(&tr, "fuzz.manycore_check");
    if (const auto div = checkManyCoreDeterminism(image, g.features))
        return "manycore divergence: " + div->detail;
    return {};
}

void
runTraced(const Options &opts, const std::vector<Generated> &set,
          Report &report)
{
    addPerLayerDefaults(report);
    Tracer tr;
    TraceCounts c;
    double untraced_s = 0.0, traced_s = 0.0;
    std::uint64_t ops = 0;
    const auto t0 = Clock::now();
    for (int pass = 0; pass == 0 || secondsSince(t0) < opts.seconds;
         ++pass) {
        for (std::size_t i = 0; i < set.size(); ++i) {
            const Generated &g = set[i];
            auto u0 = Clock::now();
            const std::string plain = checkOne(g);
            untraced_s += secondsSince(u0);

            tr.setOp(static_cast<int>(ops));
            u0 = Clock::now();
            std::string traced;
            try {
                traced = tracedOp(g, tr, c, pass == 0);
            } catch (const std::exception &e) {
                traced = std::string("error: ") + e.what();
            }
            traced_s += secondsSince(u0);
            ++ops;
            ++report.attempted;
            if (!plain.empty() || !traced.empty())
                report.failOp("program " + std::to_string(i) + ": " +
                              (plain.empty() ? traced : plain));
        }
    }

    const auto t = tr.totals();
    auto ms = [&](const char *name) { return selfMsPerOp(t, name, ops); };
    auto total_ms = [&](const char *name) {
        const auto it = t.find(name);
        return it == t.end() ? 0.0
                             : it->second.total_ns / 1e6 /
                                   static_cast<double>(ops);
    };
    auto ns = [&](const char *name) {
        const auto it = t.find(name);
        return it == t.end() ? 0.0 : it->second.total_ns;
    };
    const double n = static_cast<double>(ops);
    setMetric(report, "core.run_ms", ms("core.run"));
    setMetric(report, "core.construct_ms", ms("core.construct"));
    setMetric(report, "core.ns_per_insn",
              c.core_insns ? ns("core.run") /
                                 static_cast<double>(c.core_insns)
                           : 0.0);
    setMetric(report, "core.runs", static_cast<double>(c.core_runs) / n);
    setMetric(report, "baseline.run_ms", ms("baseline.run"));
    setMetric(report, "baseline.ns_per_insn",
              c.base_insns ? ns("baseline.run") /
                                 static_cast<double>(c.base_insns)
                           : 0.0);
    setMetric(report, "asmr.assemble_ms", ms("asmr.assemble"));
    setMetric(report, "analysis.lint_ms", ms("analysis.lint"));
    setMetric(report, "interp.mips",
              c.interp_insns / (ns("fuzz.cell.interp") / 1e9) / 1e6);
    setMetric(report, "fastpath.mips",
              c.fast_insns / (ns("fuzz.cell.fast") / 1e9) / 1e6);
    setMetric(report, "fuzz.cell_ms.interp", total_ms("fuzz.cell.interp"));
    setMetric(report, "fuzz.cell_ms.fast", total_ms("fuzz.cell.fast"));
    setMetric(report, "fuzz.cell_ms.baseline",
              total_ms("fuzz.cell.baseline"));
    setMetric(report, "fuzz.cell_ms.core", total_ms("fuzz.cell.core"));
    setMetric(report, "fuzz.replay_check_ms", ms("fuzz.replay_check"));
    setMetric(report, "fuzz.manycore_check_ms",
              ms("fuzz.manycore_check"));
    setMetric(report, "fuzz.cells", static_cast<double>(c.cells) / n);

    reportCoreCounts(report, c.exact);
    setMetric(report, "trace.overhead_pct",
              100.0 * (traced_s / untraced_s - 1.0));
    setMetric(report, "trace.unattributed_pct",
              100.0 * t.at("op").self_ns / t.at("op").total_ns);
    std::printf("traced: %llu ops, untraced %.3f s, traced %.3f s\n",
                static_cast<unsigned long long>(ops), untraced_s,
                traced_s);
    tr.write(opts.scratch + "/spans-fuzz.tsv");
}

} // namespace

void
runFuzz(const Options &opts, const ExpectedTable &expected,
        Report &report)
{
    std::vector<double> setup;
    std::vector<Generated> pool;
    std::uint64_t pool_hash = 0;
    auto timedSetUp = [&](int times) {
        for (int i = 0; i < times; ++i) {
            const auto t0 = Clock::now();
            pool = generatePool(kPoolSize, &pool_hash);
            setup.push_back(secondsSince(t0));
        }
    };
    timedSetUp(kSetupRepeats);
    if (!checkPin(expected, kPoolSize, pool_hash, report))
        return;
    if (opts.trace) {
        runTraced(opts, pool, report);
        return;
    }

    // Every window checks the whole pool, so windows differ only in
    // host conditions; the seed orders each pass.
    Rng rng(opts.seed + 1);
    std::vector<std::size_t> order(pool.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<Window> windows;
    const auto t0 = Clock::now();
    while (windows.empty() || secondsSince(t0) < opts.seconds) {
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.next() % i]);
        Window w;
        const auto w0 = Clock::now();
        for (std::size_t idx : order) {
            const auto op0 = Clock::now();
            const std::string why = checkOne(pool[idx]);
            w.latencies.push_back(secondsSince(op0));
            ++report.attempted;
            if (!why.empty())
                report.failOp("program " + std::to_string(idx) + ": " +
                              why);
        }
        w.seconds = secondsSince(w0);
        windows.push_back(std::move(w));
        timedSetUp(kSetupPerWindow);
    }
    const double wall = secondsSince(t0);
    const double rss = peakRssMb();

    std::uint64_t pass_insns = 0;
    for (const Generated &g : pool)
        pass_insns += gridInstructions(g);
    for (Window &w : windows)
        w.insns = pass_insns;
    std::printf("fuzz: %zu passes over %zu programs in %.3f s\n",
                windows.size(), pool.size(), wall);

    report.add("setup_s", "s", median(setup));
    reportWindows(report, windows, kTailPct);
    report.add("peak_rss_mb", "MB", rss);
    report.add("paper_err_pct", "%", paperErrorPass(expected, report));
}

std::vector<std::string>
recordFuzz()
{
    std::uint64_t hash = 0;
    generatePool(kPoolSize, &hash);
    return {pinLine(kPoolSize, hash)};
}

} // namespace perfbench
