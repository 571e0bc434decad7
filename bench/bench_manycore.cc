/**
 * @file
 * Many-core simulation-throughput benchmarks (google-benchmark):
 * how fast the host simulates an N-core machine, and how well the
 * quantum-parallel host loop scales from 1 to 8 host threads. Not a
 * paper experiment — this tracks whether the reproduction can reach
 * the paper's intended scale (hundreds of logical processors) at a
 * usable speed.
 *
 * Rows are BM_ManyCore/<cores>/<host_threads>; host_threads 0 is
 * the sequential schedule (no worker pool), the one perfbench's
 * manycore ops run. The 16-core rows at 1/2/4/8 host threads feed
 * scripts/bench_manycore.sh, which records BENCH_manycore.json and
 * fails when the 4-thread parallel efficiency drops below a floor.
 * The 64-core/8-slot row is the headline scale: 512 logical
 * processors in one machine.
 *
 * Every row couples the cores through the shared L2 (the workload's
 * data segment is the remote region), so the barrier/fold machinery
 * is on the measured path — an uncoupled machine would parallelize
 * trivially and measure nothing.
 */

#include <benchmark/benchmark.h>

#include "machine/manycore.hh"
#include "workloads/workloads.hh"

using namespace smtsim;

namespace
{

Workload
benchWorkload()
{
    MatmulParams p;
    p.n = 8;
    return makeMatmul(p);
}

MachineConfig
benchConfig(const Workload &w, int cores)
{
    MachineConfig cfg;
    cfg.num_cores = cores;
    cfg.core.num_slots = 8;
    cfg.core.num_frames = 10;   // concurrent MT over the stalls
    cfg.core.fus.load_store = 2;
    cfg.core.max_cycles = 5'000'000;
    cfg.core.remote.base = w.program.data_base;
    cfg.core.remote.size =
        static_cast<Addr>(w.program.data.size());
    // Paper-scale remote latency (bench_simspeed's concurrent-MT
    // row uses 200-800 cycles). The long minimum latency also means
    // long barrier quanta — the work between barriers, not the
    // barrier itself, should dominate.
    cfg.noc.l2_access_cycles = 200;
    cfg.noc.hop_latency = 8;
    return cfg;
}

} // namespace

static void
BM_ManyCore(benchmark::State &state)
{
    const int cores = static_cast<int>(state.range(0));
    const int host_threads = static_cast<int>(state.range(1));
    const Workload w = benchWorkload();
    const MachineConfig cfg = benchConfig(w, cores);
    const auto init = [&w](int, MainMemory &mem) {
        if (w.init)
            w.init(mem);
    };

    std::uint64_t machine_cycles = 0, core_cycles = 0, insns = 0;
    for (auto _ : state) {
        ManyCoreMachine m(w.program, cfg, init);
        const MachineStats s = m.run(host_threads);
        machine_cycles += s.cycles;
        for (const RunStats &cs : s.cores) {
            core_cycles += cs.cycles;
            insns += cs.instructions;
        }
        benchmark::DoNotOptimize(s.cycles);
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(machine_cycles),
        benchmark::Counter::kIsRate);
    // Aggregate per-core cycle throughput: the number that should
    // scale with host threads.
    state.counters["corecycles/s"] = benchmark::Counter(
        static_cast<double>(core_cycles),
        benchmark::Counter::kIsRate);
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insns) / 1e6,
        benchmark::Counter::kIsRate);
    state.counters["logical_processors"] =
        static_cast<double>(cores * cfg.core.num_slots);
}
BENCHMARK(BM_ManyCore)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({16, 0})     // sequential schedule
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->Args({16, 8})
    ->Args({64, 8})     // 512 logical processors
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK_MAIN();
