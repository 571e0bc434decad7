/**
 * @file
 * Simulator-throughput microbenchmarks (google-benchmark): how many
 * simulated cycles and instructions per second each engine
 * achieves. Not a paper experiment — this tracks the usability of
 * the reproduction itself, and seeds the perf trajectory recorded
 * in EXPERIMENTS.md ("simulator throughput").
 *
 * Representative configs:
 *  - functional engine, reference stepping and chunk loop (1
 *    thread),
 *  - baseline RISC,
 *  - multithreaded core at 1/4/8 slots (dense issue),
 *  - concurrent multithreading with a 200-cycle remote-memory
 *    latency (the config dominated by idle cycles, where the
 *    fast-forward event model matters most),
 *  - building and destroying one core of bench_manycore's shape
 *    (BM_CoreConstruct), which a many-core machine pays per core.
 *
 * Every engine config reports simulated cycles/s and MIPS
 * (millions of simulated instructions per second).
 *
 * scripts/bench_simspeed.sh runs this binary and emits
 * BENCH_simspeed.json for before/after tracking.
 */

#include <benchmark/benchmark.h>

#include "asmr/assembler.hh"
#include "baseline/baseline.hh"
#include "core/processor.hh"
#include "fastpath/engine.hh"
#include "obs/event.hh"
#include "trace/synth.hh"
#include "workloads/workloads.hh"

using namespace smtsim;

namespace
{

Program
benchKernel(bool parallel)
{
    SynthParams p;
    p.seed = 101;
    p.iterations = 256;
    p.insns_per_block = 32;
    p.parallel = parallel;
    return makeSyntheticKernel(p);
}

/** The remote-memory worker of bench_concurrent, reduced. */
constexpr Addr kRemoteBase = 0x00400000;
constexpr int kWordsPerCtx = 24;
constexpr int kRemoteContexts = 8;

const char *kRemoteWorker = R"(
main:   blez r2, done
loop:   lw   r3, 0(r1)
        add  r4, r4, r3
        mul  r5, r4, r3
        xor  r5, r5, r4
        addi r1, r1, 4
        addi r2, r2, -1
        bgtz r2, loop
        sw   r4, 0(r6)
done:   halt
        .data
outs:   .word 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
)";

void
reportRates(benchmark::State &state, std::uint64_t cycles,
            std::uint64_t insns)
{
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insns) / 1e6,
        benchmark::Counter::kIsRate);
}

/** The functional engine on the single-thread bench kernel, with
 *  the chunk loop on or off (reference stepping). */
void
runFunctionalBench(benchmark::State &state, bool chunked)
{
    const Program prog = benchKernel(false);
    std::uint64_t insns = 0;
    for (auto _ : state) {
        MainMemory mem;
        prog.loadInto(mem);
        fastpath::FastEngine engine(prog, mem);
        const InterpResult r =
            chunked ? engine.run() : engine.runReference();
        insns += r.steps;
        benchmark::DoNotOptimize(r.steps);
    }
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insns) / 1e6,
        benchmark::Counter::kIsRate);
}

} // namespace

static void
BM_Interpreter(benchmark::State &state)
{
    runFunctionalBench(state, false);
}
BENCHMARK(BM_Interpreter);

static void
BM_Fastpath(benchmark::State &state)
{
    // The BM_Interpreter shape with the chunk loop on —
    // scripts/check_bench_json.py --fast-floor asserts the MIPS
    // ratio between the two rows stays >= 3x (docs/PERF.md).
    runFunctionalBench(state, true);
}
BENCHMARK(BM_Fastpath);

static void
BM_FastpathTraced(benchmark::State &state)
{
    // Same kernel with full trace recording (branches, memory
    // addresses, queue pushes) into an in-memory ExecTrace.
    const Program prog = benchKernel(false);
    std::uint64_t insns = 0;
    for (auto _ : state) {
        MainMemory mem;
        prog.loadInto(mem);
        const fastpath::TracedRun tr =
            fastpath::recordTrace(prog, mem);
        insns += tr.result.steps;
        benchmark::DoNotOptimize(tr.trace.threads.size());
    }
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insns) / 1e6,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FastpathTraced);

static void
BM_CoreReplay(benchmark::State &state)
{
    // The BM_Core/4 shape driven in verified replay mode from a
    // pre-recorded trace (the mode fuzz::checkReplayTiming checks).
    const Program prog = benchKernel(true);
    CoreConfig cfg;
    cfg.num_slots = 4;
    cfg.fus.load_store = 2;
    InterpConfig icfg;
    icfg.num_threads = cfg.num_slots;
    icfg.queue_depth = cfg.queue_reg_depth;
    MainMemory fmem;
    prog.loadInto(fmem);
    const fastpath::TracedRun recorded =
        fastpath::recordTrace(prog, fmem, icfg);
    std::uint64_t cycles = 0, insns = 0;
    for (auto _ : state) {
        MainMemory mem;
        prog.loadInto(mem);
        MultithreadedProcessor cpu(prog, mem, cfg);
        cpu.setReplayTrace(&recorded.trace);
        const RunStats s = cpu.run();
        cycles += s.cycles;
        insns += s.instructions;
        benchmark::DoNotOptimize(s.cycles);
    }
    reportRates(state, cycles, insns);
}
BENCHMARK(BM_CoreReplay);

static void
BM_Baseline(benchmark::State &state)
{
    const Program prog = benchKernel(false);
    std::uint64_t cycles = 0, insns = 0;
    for (auto _ : state) {
        MainMemory mem;
        prog.loadInto(mem);
        BaselineProcessor cpu(prog, mem);
        const RunStats s = cpu.run();
        cycles += s.cycles;
        insns += s.instructions;
        benchmark::DoNotOptimize(s.cycles);
    }
    reportRates(state, cycles, insns);
}
BENCHMARK(BM_Baseline);

namespace
{

/** Cheapest possible sink: measures the event layer itself, not a
 *  backend format. */
class CountingSink : public obs::EventSink
{
  public:
    void event(const obs::Event &ev) override
    {
        count_ += ev.cycle | 1;    // defeat dead-code elimination
    }
    std::uint64_t count() const { return count_; }

  private:
    std::uint64_t count_ = 0;
};

/** Shared body of BM_Core and the tracing-overhead pair: the dense
 *  kernel on @p slots slots, with or without an event sink attached.
 *  scripts/check_bench_json.py --trace-guard asserts TraceOff stays
 *  within 2% of BM_Core/4 (the disabled event layer must cost one
 *  dead branch per would-be event, nothing more); the two rows run
 *  this one function with the same arguments. */
void
runCoreBench(benchmark::State &state, int slots, bool traced)
{
    const Program prog = benchKernel(true);
    CoreConfig cfg;
    cfg.num_slots = slots;
    cfg.fus.load_store = 2;
    std::uint64_t cycles = 0, insns = 0;
    for (auto _ : state) {
        MainMemory mem;
        prog.loadInto(mem);
        MultithreadedProcessor cpu(prog, mem, cfg);
        CountingSink sink;
        if (traced)
            cpu.setEventSink(&sink);
        const RunStats s = cpu.run();
        cycles += s.cycles;
        insns += s.instructions;
        benchmark::DoNotOptimize(s.cycles);
        benchmark::DoNotOptimize(sink.count());
    }
    reportRates(state, cycles, insns);
}

} // namespace

static void
BM_Core(benchmark::State &state)
{
    runCoreBench(state, static_cast<int>(state.range(0)), false);
}
BENCHMARK(BM_Core)->Arg(1)->Arg(4)->Arg(8);

static void
BM_CoreTraceOff(benchmark::State &state)
{
    runCoreBench(state, 4, false);
}
BENCHMARK(BM_CoreTraceOff);

static void
BM_CoreTraceOn(benchmark::State &state)
{
    runCoreBench(state, 4, true);
}
BENCHMARK(BM_CoreTraceOn);

static void
BM_CoreRemote(benchmark::State &state)
{
    const Program prog = assemble(kRemoteWorker);
    const Addr outs = prog.symbol("outs");

    CoreConfig cfg;
    cfg.num_slots = 2;
    cfg.num_frames = 10;
    cfg.remote.base = kRemoteBase;
    cfg.remote.size = 0x100000;
    cfg.remote.latency = static_cast<Cycle>(state.range(0));

    std::uint64_t cycles = 0, insns = 0;
    for (auto _ : state) {
        MainMemory mem;
        prog.loadInto(mem);
        for (int i = 0; i < kWordsPerCtx * kRemoteContexts; ++i) {
            mem.write32(kRemoteBase + static_cast<Addr>(4 * i),
                        static_cast<std::uint32_t>(i * 3 + 1));
        }
        MultithreadedProcessor cpu(prog, mem, cfg);
        for (int c = 0; c < kRemoteContexts; ++c) {
            std::array<std::uint32_t, kNumRegs> regs{};
            regs[1] = kRemoteBase +
                      static_cast<Addr>(4 * c * kWordsPerCtx);
            regs[2] = kWordsPerCtx;
            regs[6] = outs + static_cast<Addr>(4 * c);
            cpu.spawnContext(prog.entry, regs);
        }
        const RunStats s = cpu.run();
        cycles += s.cycles;
        insns += s.instructions;
        benchmark::DoNotOptimize(s.cycles);
    }
    reportRates(state, cycles, insns);
}
BENCHMARK(BM_CoreRemote)->Arg(200)->Arg(800);

static void
BM_CoreConstruct(benchmark::State &state)
{
    // One core of bench_manycore's machine: 8 slots, 10 frames, 2
    // load/store units, matmul(8)'s data segment remote. Only
    // construction and destruction are timed; the memory is loaded
    // once.
    MatmulParams p;
    p.n = 8;
    const Workload w = makeMatmul(p);
    CoreConfig cfg;
    cfg.num_slots = 8;
    cfg.num_frames = 10;
    cfg.fus.load_store = 2;
    cfg.remote.base = w.program.data_base;
    cfg.remote.size = static_cast<Addr>(w.program.data.size());
    MainMemory mem;
    w.program.loadInto(mem);
    if (w.init)
        w.init(mem);
    for (auto _ : state) {
        MultithreadedProcessor cpu(w.program, mem, cfg);
        benchmark::DoNotOptimize(cpu.now());
    }
}
BENCHMARK(BM_CoreConstruct);

static void
BM_RayTracePixel(benchmark::State &state)
{
    RayTraceParams p;
    p.width = 8;
    p.height = 8;
    const Workload w = makeRayTrace(p);
    CoreConfig cfg;
    cfg.num_slots = 4;
    for (auto _ : state) {
        MainMemory mem;
        w.program.loadInto(mem);
        w.init(mem);
        MultithreadedProcessor cpu(w.program, mem, cfg);
        benchmark::DoNotOptimize(cpu.run().cycles);
    }
}
BENCHMARK(BM_RayTracePixel);

static void
BM_Assembler(benchmark::State &state)
{
    SynthParams p;
    p.seed = 55;
    for (auto _ : state) {
        p.seed += 1;    // defeat caching, keep work comparable
        const Program prog = makeSyntheticKernel(p);
        benchmark::DoNotOptimize(prog.text.size());
    }
}
BENCHMARK(BM_Assembler);

BENCHMARK_MAIN();
