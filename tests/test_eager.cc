#include <gtest/gtest.h>

#include "harness/runner.hh"

using namespace smtsim;

namespace
{

CoreConfig
eagerConfig(int slots)
{
    CoreConfig cfg;
    cfg.num_slots = slots;
    // The kernel switches to explicit rotation itself, but the
    // sweep should not depend on an implicit rotation sneaking in
    // before the setrmode instruction decodes.
    cfg.rotation_mode = RotationMode::Explicit;
    return cfg;
}

} // namespace

TEST(Eager, FullWalkCorrectOnAllEngines)
{
    ListWalkParams p;
    p.num_nodes = 32;
    p.eager = true;
    const Workload w = makeListWalk(p);
    for (int slots : {1, 2, 3, 4, 6, 8}) {
        const Outcome c = runCore(w, eagerConfig(slots));
        EXPECT_TRUE(c.ok) << "slots=" << slots << ": " << c.error;
        const Outcome i = runFunctional(w, slots);
        EXPECT_TRUE(i.ok) << "interp slots=" << slots << ": "
                          << i.error;
    }
}

TEST(Eager, BreakPositionsPreserveSequentialSemantics)
{
    // The break may fall on any thread slot; the priority mechanism
    // must kill exactly the iterations after it.
    for (int break_at : {0, 1, 2, 3, 5, 11, 30}) {
        ListWalkParams p;
        p.num_nodes = 32;
        p.break_at = break_at;
        p.eager = true;
        const Workload w = makeListWalk(p);
        const Outcome c = runCore(w, eagerConfig(4));
        EXPECT_TRUE(c.ok)
            << "break_at=" << break_at << ": " << c.error;
    }
}

TEST(Eager, SingleNodeList)
{
    ListWalkParams p;
    p.num_nodes = 1;
    p.eager = true;
    const Workload w = makeListWalk(p);
    EXPECT_TRUE(runCore(w, eagerConfig(4)).ok);
    EXPECT_TRUE(runCore(w, eagerConfig(1)).ok);
}

TEST(Eager, MatchesSequentialVersionResult)
{
    ListWalkParams p;
    p.num_nodes = 24;
    p.break_at = 13;
    const Workload seq = makeListWalk(p);
    p.eager = true;
    const Workload eager = makeListWalk(p);
    EXPECT_TRUE(runBaseline(seq).ok);
    EXPECT_TRUE(runCore(eager, eagerConfig(4)).ok);
}

TEST(Eager, SpeedupSaturatesWithRecurrence)
{
    // Table 5's shape: adding slots helps until the loop-carried
    // ptr->next recurrence dominates; beyond that the per-iteration
    // time stays flat.
    ListWalkParams p;
    p.num_nodes = 200;
    p.eager = true;
    const Workload w = makeListWalk(p);

    Cycle prev = kNeverCycle;
    std::vector<Cycle> cycles;
    for (int slots : {1, 2, 3, 4, 6, 8}) {
        const Outcome o = runCore(w, eagerConfig(slots));
        ASSERT_TRUE(o.ok) << o.error;
        cycles.push_back(o.stats.cycles);
        EXPECT_LE(o.stats.cycles, prev + prev / 10)
            << "slots=" << slots;
        prev = o.stats.cycles;
    }
    // 2 slots clearly beat 1.
    EXPECT_LT(cycles[1], cycles[0]);
    // 8 slots offer little over 6 (saturation).
    const double six = static_cast<double>(cycles[4]);
    const double eight = static_cast<double>(cycles[5]);
    EXPECT_LT(std::abs(six - eight) / six, 0.15);
}

TEST(Eager, EagerBeatsSequentialBaseline)
{
    ListWalkParams p;
    p.num_nodes = 200;
    const Workload seq = makeListWalk(p);
    p.eager = true;
    const Workload eager = makeListWalk(p);

    const Outcome base = runBaseline(seq);
    const Outcome core = runCore(eager, eagerConfig(4));
    ASSERT_TRUE(base.ok) << base.error;
    ASSERT_TRUE(core.ok) << core.error;
    EXPECT_GT(speedup(base.stats, core.stats), 1.5);
}

TEST(Eager, KillCountsOnlySurvivingInstructions)
{
    // The killed speculative iterations must not inflate committed
    // instruction counts unboundedly: at most ~S iterations of
    // overshoot.
    ListWalkParams p;
    p.num_nodes = 64;
    p.break_at = 10;
    p.eager = true;
    const Workload w = makeListWalk(p);
    const Outcome o = runCore(w, eagerConfig(4));
    ASSERT_TRUE(o.ok) << o.error;
    // 11 iterations of ~15 instructions + prologue + slack for the
    // speculative tail.
    EXPECT_LT(o.stats.instructions, 500u);
}

TEST(Eager, QueueDepthOneStillWorks)
{
    ListWalkParams p;
    p.num_nodes = 16;
    p.eager = true;
    const Workload w = makeListWalk(p);
    CoreConfig cfg = eagerConfig(4);
    cfg.queue_reg_depth = 1;
    EXPECT_TRUE(runCore(w, cfg).ok);
}

TEST(Eager, PriorityStoreOrdering)
{
    // Without a break, tmp must be the LAST node's value even
    // though later iterations run on different slots concurrently.
    ListWalkParams p;
    p.num_nodes = 50;
    p.eager = true;
    const Workload w = makeListWalk(p);
    for (int slots : {2, 4, 8}) {
        EXPECT_TRUE(runCore(w, eagerConfig(slots)).ok)
            << "slots=" << slots;
    }
}
