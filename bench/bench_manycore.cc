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
 *
 * BM_ManyCoreSetUp/16 is perfbench manycore's set-up sample on its
 * own: instantiate matmul(8), build the 16-core machine, destroy it.
 */

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <memory>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "lab/spec.hh"
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

/**
 * One iteration is perfbench manycore's set-up sample: instantiate
 * matmul(8) through the lab, build the machine on the heap, destroy
 * it. Whether a sample page-faults depends less on the constructor's
 * work than on whether glibc trims the heap when the machine is
 * freed (docs/PERF.md section 6): a free that leaves more than
 * M_TRIM_THRESHOLD (128 KiB) free at the top of the heap gives it
 * back to the kernel, and the next build faults it in again. So the
 * row reports minor page faults per iteration and, under glibc, the
 * free space at the top of the heap after the last destroy
 * (mallinfo2().keepcost, in KiB).
 */
static void
BM_ManyCoreSetUp(benchmark::State &state)
{
    const int cores = static_cast<int>(state.range(0));
    rusage before{}, after{};
    getrusage(RUSAGE_SELF, &before);
    for (auto _ : state) {
        const Workload w =
            lab::instantiate(lab::WorkloadSpec::matmul(8));
        auto m = std::make_unique<ManyCoreMachine>(
            w.program, benchConfig(w, cores), [&w](int, MainMemory &mem) {
                if (w.init)
                    w.init(mem);
            });
        benchmark::DoNotOptimize(m.get());
    }
    getrusage(RUSAGE_SELF, &after);
    state.counters["faults/iter"] = benchmark::Counter(
        static_cast<double>(after.ru_minflt - before.ru_minflt),
        benchmark::Counter::kAvgIterations);
#ifdef __GLIBC__
    state.counters["heap_top_KiB"] =
        static_cast<double>(mallinfo2().keepcost) / 1024.0;
#endif
}
BENCHMARK(BM_ManyCoreSetUp)->Arg(16)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
