#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "sched/list_scheduler.hh"
#include "sched/standby_scheduler.hh"

using namespace smtsim;

TEST(RayTrace, CorrectOnInterpreter)
{
    RayTraceParams p;
    p.width = 8;
    p.height = 8;
    const Workload w = makeRayTrace(p);
    const Outcome o = runFunctional(w, 1);
    EXPECT_TRUE(o.ok) << o.error;
}

TEST(RayTrace, CorrectOnBaseline)
{
    RayTraceParams p;
    p.width = 8;
    p.height = 8;
    const Workload w = makeRayTrace(p);
    EXPECT_TRUE(runBaseline(w).ok);
}

class RayTraceCoreSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RayTraceCoreSweep, CorrectOnCore)
{
    RayTraceParams p;
    p.width = 8;
    p.height = 8;
    const Workload w = makeRayTrace(p);
    CoreConfig cfg;
    cfg.num_slots = GetParam();
    const Outcome o = runCore(w, cfg);
    EXPECT_TRUE(o.ok) << o.error;
}

INSTANTIATE_TEST_SUITE_P(Slots, RayTraceCoreSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(RayTrace, SceneVariations)
{
    for (std::uint64_t seed : {1ull, 2ull, 7ull}) {
        RayTraceParams p;
        p.width = 6;
        p.height = 6;
        p.seed = seed;
        p.num_spheres = 3;
        const Workload w = makeRayTrace(p);
        EXPECT_TRUE(runFunctional(w, 1).ok) << "seed " << seed;
    }
}

TEST(RayTrace, ShadowsOffStillCorrect)
{
    RayTraceParams p;
    p.width = 6;
    p.height = 6;
    p.shadows = false;
    const Workload w = makeRayTrace(p);
    CoreConfig cfg;
    cfg.num_slots = 4;
    EXPECT_TRUE(runCore(w, cfg).ok);
}

TEST(RayTrace, MoreThreadsAreFaster)
{
    RayTraceParams p;
    p.width = 12;
    p.height = 12;
    const Workload w = makeRayTrace(p);
    CoreConfig cfg;
    cfg.fus.load_store = 2;
    Cycle prev = kNeverCycle;
    for (int slots : {1, 2, 4}) {
        cfg.num_slots = slots;
        const Outcome o = runCore(w, cfg);
        ASSERT_TRUE(o.ok) << o.error;
        EXPECT_LT(o.stats.cycles, prev);
        prev = o.stats.cycles;
    }
}

TEST(RayTrace, SpeedupOverBaselineInPaperBallpark)
{
    RayTraceParams p;
    p.width = 16;
    p.height = 16;
    const Workload w = makeRayTrace(p);
    const Outcome base = runBaseline(w);
    ASSERT_TRUE(base.ok);

    CoreConfig cfg;
    cfg.num_slots = 4;
    cfg.fus.load_store = 2;
    const Outcome core = runCore(w, cfg);
    ASSERT_TRUE(core.ok);
    const double s = speedup(base.stats, core.stats);
    // Paper Table 2: 3.72 for this configuration. Accept a band.
    EXPECT_GT(s, 2.5);
    EXPECT_LT(s, 4.5);
}

TEST(Livermore, SequentialCorrectEverywhere)
{
    Lk1Params p;
    p.n = 64;
    const Workload w = makeLivermore1(p);
    EXPECT_TRUE(runFunctional(w, 1).ok);
    EXPECT_TRUE(runBaseline(w).ok);
    CoreConfig cfg;
    cfg.num_slots = 1;
    EXPECT_TRUE(runCore(w, cfg).ok);
}

class LivermoreParallelSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(LivermoreParallelSweep, ParallelCorrectOnCore)
{
    Lk1Params p;
    p.n = 64;
    p.parallel = true;
    const Workload w = makeLivermore1(p);
    CoreConfig cfg;
    cfg.num_slots = GetParam();
    cfg.rotation_mode = RotationMode::Explicit;
    const Outcome o = runCore(w, cfg);
    EXPECT_TRUE(o.ok) << o.error;
}

INSTANTIATE_TEST_SUITE_P(Slots, LivermoreParallelSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(Livermore, ParallelMatchesInterpreter)
{
    Lk1Params p;
    p.n = 37;       // odd count exercises uneven splits
    p.parallel = true;
    const Workload w = makeLivermore1(p);
    EXPECT_TRUE(runFunctional(w, 4).ok);
}

TEST(Livermore, MoreSlotsThanIterations)
{
    Lk1Params p;
    p.n = 3;
    p.parallel = true;
    const Workload w = makeLivermore1(p);
    CoreConfig cfg;
    cfg.num_slots = 8;
    cfg.rotation_mode = RotationMode::Explicit;
    EXPECT_TRUE(runCore(w, cfg).ok);
}

TEST(Livermore, ScheduledBodiesStayCorrect)
{
    const std::vector<Insn> body = lk1LoopBody();

    const ScheduleResult a = listSchedule(body);
    StandbySchedulerConfig bc;
    bc.num_slots = 4;
    const ScheduleResult b = standbySchedule(body, bc);

    Lk1Params p;
    p.n = 48;
    p.parallel = true;
    CoreConfig cfg;
    cfg.num_slots = 4;
    cfg.rotation_mode = RotationMode::Explicit;

    for (const ScheduleResult *sched : {&a, &b}) {
        const Workload w = makeLivermore1(p, &sched->order);
        const Outcome o = runCore(w, cfg);
        EXPECT_TRUE(o.ok) << o.error;
    }
}

TEST(Livermore, StrategyAImprovesSingleThreadTime)
{
    Lk1Params p;
    p.n = 64;
    p.parallel = true;
    const Workload plain = makeLivermore1(p);
    const ScheduleResult a = listSchedule(lk1LoopBody());
    const Workload sched = makeLivermore1(p, &a.order);

    CoreConfig cfg;
    cfg.num_slots = 1;
    cfg.rotation_mode = RotationMode::Explicit;
    const Outcome po = runCore(plain, cfg);
    const Outcome so = runCore(sched, cfg);
    ASSERT_TRUE(po.ok && so.ok);
    EXPECT_LT(so.stats.cycles, po.stats.cycles);
}

TEST(Livermore, SaturatesAtMemoryBound)
{
    // 3 loads + 1 store per iteration at issue latency 2 on one
    // load/store unit: >= 8 cycles per iteration no matter how many
    // slots (the paper's stated saturation point).
    Lk1Params p;
    p.n = 128;
    p.parallel = true;
    const Workload w = makeLivermore1(p);
    CoreConfig cfg;
    cfg.num_slots = 8;
    cfg.rotation_mode = RotationMode::Explicit;
    const Outcome o = runCore(w, cfg);
    ASSERT_TRUE(o.ok) << o.error;
    const double per_iter =
        static_cast<double>(o.stats.cycles) / p.n;
    EXPECT_GE(per_iter, 8.0);
    EXPECT_LT(per_iter, 14.0);
}

TEST(ListWalk, SequentialCorrectEverywhere)
{
    ListWalkParams p;
    p.num_nodes = 20;
    const Workload w = makeListWalk(p);
    EXPECT_TRUE(runFunctional(w, 1).ok);
    EXPECT_TRUE(runBaseline(w).ok);
    CoreConfig cfg;
    cfg.num_slots = 1;
    EXPECT_TRUE(runCore(w, cfg).ok);
}

TEST(ListWalk, BreakAtEveryEarlyPosition)
{
    for (int b = 0; b < 6; ++b) {
        ListWalkParams p;
        p.num_nodes = 12;
        p.break_at = b;
        const Workload w = makeListWalk(p);
        EXPECT_TRUE(runBaseline(w).ok) << "break " << b;
    }
}

TEST(TokenRing, CleanCorrectAtEverySlotCount)
{
    TokenRingParams p;
    p.rounds = 12;
    const Workload w = makeTokenRing(p);
    for (int threads : {1, 2, 4, 8})
        EXPECT_TRUE(runFunctional(w, threads).ok)
            << "threads " << threads;
    CoreConfig cfg;
    cfg.num_slots = 4;
    EXPECT_TRUE(runCore(w, cfg).ok);
}

TEST(TokenRing, CheckerRejectsUnfinishedRing)
{
    const Workload w = makeTokenRing({.rounds = 4, .bug = 0});
    MainMemory mem;
    w.program.loadInto(mem);
    w.init(mem);
    std::string why;
    EXPECT_FALSE(w.check(mem, &why));   // never ran: ok flag 0
    EXPECT_FALSE(why.empty());
}

TEST(Workloads, CheckersRejectCorruptedOutput)
{
    // The result checkers must actually detect wrong answers.
    RayTraceParams rp;
    rp.width = 4;
    rp.height = 4;
    const Workload ray = makeRayTrace(rp);
    MainMemory mem;
    ray.program.loadInto(mem);
    ray.init(mem);
    std::string why;
    EXPECT_FALSE(ray.check(mem, &why));     // never ran
    EXPECT_FALSE(why.empty());

    Lk1Params lp;
    lp.n = 8;
    const Workload lk = makeLivermore1(lp);
    MainMemory lmem;
    lk.program.loadInto(lmem);
    lk.init(lmem);
    EXPECT_FALSE(lk.check(lmem, nullptr));
}
