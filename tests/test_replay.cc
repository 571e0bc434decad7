/**
 * @file
 * Trace-driven replay on the detailed core: a run timed from a
 * recorded execution trace must produce bit-identical statistics to
 * the same run in execute mode, and workloads whose timing feeds
 * back into execution (KILLT races, spin waits) must be caught as
 * diverging, so a caller can fall back to execute mode.
 */

#include <optional>

#include <gtest/gtest.h>

#include "core/processor.hh"
#include "fastpath/engine.hh"
#include "harness/runner.hh"
#include "mem/memory.hh"
#include "workloads/workloads.hh"

using namespace smtsim;

namespace
{

/** Field-by-field RunStats equality with a readable diagnosis. */
void
expectStatsEqual(const RunStats &a, const RunStats &b,
                 const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.instructions, b.instructions) << label;
    EXPECT_EQ(a.finished, b.finished) << label;
    EXPECT_EQ(a.fu_grants, b.fu_grants) << label;
    EXPECT_EQ(a.fu_busy, b.fu_busy) << label;
    EXPECT_EQ(a.unit_busy, b.unit_busy) << label;
    EXPECT_EQ(a.branches, b.branches) << label;
    EXPECT_EQ(a.loads, b.loads) << label;
    EXPECT_EQ(a.stores, b.stores) << label;
    EXPECT_EQ(a.standby_stalls, b.standby_stalls) << label;
    EXPECT_EQ(a.context_switches, b.context_switches) << label;
    EXPECT_EQ(a.writeback_conflicts, b.writeback_conflicts)
        << label;
    EXPECT_EQ(a.dcache_hits, b.dcache_hits) << label;
    EXPECT_EQ(a.dcache_misses, b.dcache_misses) << label;
    EXPECT_EQ(a.icache_hits, b.icache_hits) << label;
    EXPECT_EQ(a.icache_misses, b.icache_misses) << label;
}

/**
 * Record @p w with the fast engine, then time it on the core in
 * verified replay mode. nullopt when the core departs from the
 * trace (ReplayDivergence).
 */
std::optional<RunStats>
recordThenReplay(const Workload &w, const CoreConfig &cfg)
{
    InterpConfig icfg;
    icfg.num_threads = cfg.num_slots;
    icfg.queue_depth = cfg.queue_reg_depth;
    MainMemory fmem;
    w.program.loadInto(fmem);
    if (w.init)
        w.init(fmem);
    const fastpath::TracedRun recorded =
        fastpath::recordTrace(w.program, fmem, icfg);
    EXPECT_TRUE(recorded.result.completed) << w.name;

    MainMemory tmem;
    w.program.loadInto(tmem);
    if (w.init)
        w.init(tmem);
    MultithreadedProcessor cpu(w.program, tmem, cfg);
    cpu.setReplayTrace(&recorded.trace);
    try {
        return cpu.run();
    } catch (const ReplayDivergence &) {
        return std::nullopt;
    }
}

void
expectReplayMatchesExecute(const Workload &w, const CoreConfig &cfg)
{
    const Outcome exec = runCore(w, cfg);
    ASSERT_TRUE(exec.ok) << w.name << ": " << exec.error;
    const std::optional<RunStats> rep = recordThenReplay(w, cfg);
    ASSERT_TRUE(rep) << w.name << " diverged";
    expectStatsEqual(*rep, exec.stats, w.name);
}

} // namespace

TEST(Replay, SingleSlotMatchesExecute)
{
    MatmulParams mp;
    mp.n = 4;
    CoreConfig cfg;
    cfg.num_slots = 1;
    expectReplayMatchesExecute(makeMatmul(mp), cfg);
}

TEST(Replay, MultiSlotWorkloadsMatchExecute)
{
    MatmulParams mp;
    mp.n = 5;
    BsearchParams bp;
    bp.table_size = 32;
    bp.queries_per_thread = 8;
    StencilParams sp;
    sp.width = 8;
    sp.height = 6;
    sp.sweeps = 2;
    RayTraceParams rp;
    rp.width = 4;
    rp.height = 4;
    rp.num_spheres = 3;
    for (const Workload &w : {makeMatmul(mp), makeBsearch(bp),
                              makeStencil(sp), makeRayTrace(rp)}) {
        for (int slots : {2, 4}) {
            CoreConfig cfg;
            cfg.num_slots = slots;
            expectReplayMatchesExecute(w, cfg);
        }
    }
}

TEST(Replay, QueueRegisterWorkloadMatchesExecute)
{
    // Doacross over FP queue registers: replay must reproduce queue
    // occupancy (and hence blocking) without the recorded values
    // influencing timing.
    RecurrenceParams qp;
    qp.n = 24;
    qp.variant = RecurrenceVariant::DoacrossQueue;
    CoreConfig cfg;
    cfg.num_slots = 4;
    expectReplayMatchesExecute(makeRecurrence(qp), cfg);
}

TEST(Replay, MemorySpinWaitFallsBackToExecute)
{
    // The doacross-memory variant spins on a flag word, so its
    // per-thread instruction streams depend on the interleaving:
    // the spin count recorded by the functional engine differs from
    // the core's. Verified replay must catch the first divergent
    // spin branch, so the caller falls back to execute mode.
    RecurrenceParams mp;
    mp.n = 24;
    mp.variant = RecurrenceVariant::DoacrossMemory;
    const Workload w = makeRecurrence(mp);
    CoreConfig cfg;
    cfg.num_slots = 4;
    ASSERT_TRUE(runCore(w, cfg).ok);
    EXPECT_FALSE(recordThenReplay(w, cfg));
}

TEST(Replay, NonDefaultGeometryMatchesExecute)
{
    // Timing-config changes (width, rotation, caches) must not
    // disturb replay: the trace pins values, not schedules.
    MatmulParams mp;
    mp.n = 5;
    const Workload w = makeMatmul(mp);

    CoreConfig wide;
    wide.num_slots = 2;
    wide.width = 2;
    expectReplayMatchesExecute(w, wide);

    CoreConfig rot;
    rot.num_slots = 4;
    rot.rotation_mode = RotationMode::Explicit;
    expectReplayMatchesExecute(w, rot);
}

TEST(Replay, EagerListWalkFallsBackToExecute)
{
    // KILLT's kill point depends on timing, so the eager list walk
    // is declared non-replayable; verified replay must detect the
    // divergence, so the caller re-runs in execute mode.
    ListWalkParams wp;
    wp.num_nodes = 12;
    wp.break_at = 7;
    wp.eager = true;
    const Workload w = makeListWalk(wp);
    CoreConfig cfg;
    cfg.num_slots = 4;
    ASSERT_TRUE(runCore(w, cfg).ok);
    EXPECT_FALSE(recordThenReplay(w, cfg));
}

TEST(Replay, DivergentTraceIsRejected)
{
    // Hand the core a trace recorded from a different program: the
    // pc mismatch must surface as ReplayDivergence, not as silently
    // wrong timing.
    MatmulParams mp;
    mp.n = 4;
    const Workload recorded_w = makeMatmul(mp);
    BsearchParams bp;
    bp.table_size = 32;
    bp.queries_per_thread = 8;
    const Workload timed_w = makeBsearch(bp);

    InterpConfig icfg;
    icfg.num_threads = 2;
    MainMemory fmem;
    recorded_w.program.loadInto(fmem);
    if (recorded_w.init)
        recorded_w.init(fmem);
    const fastpath::TracedRun traced =
        fastpath::recordTrace(recorded_w.program, fmem, icfg);

    CoreConfig cfg;
    cfg.num_slots = 2;
    MainMemory tmem;
    MultithreadedProcessor cpu(timed_w.program, tmem, cfg);
    cpu.setReplayTrace(&traced.trace);
    EXPECT_THROW(cpu.run(), ReplayDivergence);
}
