#include <gtest/gtest.h>

#include "harness/runner.hh"

using namespace smtsim;

namespace
{

Workload
make(RecurrenceVariant variant, int n = 60)
{
    RecurrenceParams p;
    p.n = n;
    p.variant = variant;
    return makeRecurrence(p);
}

CoreConfig
coreCfg(int slots, bool explicit_rotation)
{
    CoreConfig cfg;
    cfg.num_slots = slots;
    if (explicit_rotation)
        cfg.rotation_mode = RotationMode::Explicit;
    return cfg;
}

} // namespace

TEST(Recurrence, SequentialCorrectEverywhere)
{
    const Workload w = make(RecurrenceVariant::Sequential);
    EXPECT_TRUE(runFunctional(w, 1).ok);
    EXPECT_TRUE(runBaseline(w).ok);
    EXPECT_TRUE(runCore(w, coreCfg(1, false)).ok);
}

TEST(Recurrence, QueueDoacrossCorrectAcrossSlotCounts)
{
    const Workload w = make(RecurrenceVariant::DoacrossQueue);
    for (int slots : {1, 2, 3, 4, 6, 8}) {
        const Outcome o = runCore(w, coreCfg(slots, true));
        EXPECT_TRUE(o.ok) << "slots=" << slots << ": " << o.error;
    }
    EXPECT_TRUE(runFunctional(w, 4).ok);
}

TEST(Recurrence, MemoryDoacrossCorrectAcrossSlotCounts)
{
    const Workload w = make(RecurrenceVariant::DoacrossMemory);
    for (int slots : {1, 2, 4, 8}) {
        const Outcome o = runCore(w, coreCfg(slots, false));
        EXPECT_TRUE(o.ok) << "slots=" << slots << ": " << o.error;
    }
}

TEST(Recurrence, MoreSlotsThanIterations)
{
    const Workload w = make(RecurrenceVariant::DoacrossQueue, 3);
    EXPECT_TRUE(runCore(w, coreCfg(8, true)).ok);
}

TEST(Recurrence, SingleIteration)
{
    for (auto v : {RecurrenceVariant::Sequential,
                   RecurrenceVariant::DoacrossQueue,
                   RecurrenceVariant::DoacrossMemory}) {
        const Workload w = make(v, 1);
        EXPECT_TRUE(runCore(w, coreCfg(4, true)).ok)
            << static_cast<int>(v);
    }
}

TEST(Recurrence, QueueBeatsMemoryCommunication)
{
    // Section 2.3.1's rationale: register-transfer-level relaying
    // has far less overhead than store + flag spinning.
    const Workload q = make(RecurrenceVariant::DoacrossQueue, 200);
    const Workload m =
        make(RecurrenceVariant::DoacrossMemory, 200);
    const Outcome qo = runCore(q, coreCfg(4, true));
    const Outcome mo = runCore(m, coreCfg(4, false));
    ASSERT_TRUE(qo.ok) << qo.error;
    ASSERT_TRUE(mo.ok) << mo.error;
    EXPECT_LT(qo.stats.cycles, mo.stats.cycles);
}

TEST(Recurrence, QueueDoacrossBeatsSequential)
{
    const Workload q = make(RecurrenceVariant::DoacrossQueue, 200);
    const Workload s = make(RecurrenceVariant::Sequential, 200);
    const Outcome qo = runCore(q, coreCfg(4, true));
    const Outcome so = runCore(s, coreCfg(1, false));
    ASSERT_TRUE(qo.ok && so.ok);
    EXPECT_LT(qo.stats.cycles, so.stats.cycles);
}

TEST(Recurrence, DeterministicQueueVariant)
{
    const Workload w = make(RecurrenceVariant::DoacrossQueue, 80);
    const Outcome a = runCore(w, coreCfg(4, true));
    const Outcome b = runCore(w, coreCfg(4, true));
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
}
