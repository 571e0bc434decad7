#include <gtest/gtest.h>

#include <vector>

#include "base/logging.hh"
#include "core/schedule.hh"

using namespace smtsim;

namespace
{

/** Write an op into @p slot's station and submit it, as the decode
 *  unit does, in a decode phase led by slot 0. */
void
issue(ScheduleUnit &su, Op op, int slot, Cycle arrive)
{
    IssuedOp &io = su.station(slot);
    io = IssuedOp{};
    io.insn.op = op;
    io.slot = slot;
    io.arrive = arrive;
    su.submit(slot, 0);
}

/** One granted op: its slot and functional unit. */
struct Granted
{
    int slot;
    int unit;
};

/** select() as the core calls it: the ring's offset, and a grant
 *  callback; returns the grants in order. */
std::vector<Granted>
select(ScheduleUnit &su, Cycle c, int top = 0)
{
    std::vector<Granted> out;
    su.select(c, top, [&](const IssuedOp &op, int unit) {
        out.push_back({op.slot, unit});
    });
    return out;
}

} // namespace

TEST(ScheduleUnit, GrantsInPriorityOrder)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 4);
    issue(su, Op::ADD, 0, 1);
    issue(su, Op::ADD, 2, 1);

    // Priority order 2, 3, 0, 1: slot 2 first.
    const auto grants = select(su, 1, 2);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].slot, 2);
    // Slot 0 still waits in its standby station.
    EXPECT_TRUE(su.slotBusy(0));
    EXPECT_FALSE(su.slotBusy(2));
}

TEST(ScheduleUnit, LoserGrantedNextCycle)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 4);
    issue(su, Op::ADD, 0, 1);
    issue(su, Op::ADD, 1, 1);
    ASSERT_EQ(select(su, 1).size(), 1u);
    const auto second = select(su, 2);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].slot, 1);
}

TEST(ScheduleUnit, PriorityWrapsPastTheLastSlot)
{
    // Ring led by slot 3 of 4: order 3, 0, 1, 2.
    ScheduleUnit su(FuClass::LoadStore, 2, 4);
    issue(su, Op::LW, 1, 1);
    issue(su, Op::LW, 2, 1);
    issue(su, Op::LW, 0, 1);
    const auto g = select(su, 1, 3);
    ASSERT_EQ(g.size(), 2u);
    EXPECT_EQ(g[0].slot, 0);
    EXPECT_EQ(g[1].slot, 1);
    EXPECT_TRUE(su.slotBusy(2));
}

TEST(ScheduleUnit, IssueLatencyBlocksUnit)
{
    // Load/store issue latency 2: after a grant at cycle 1 the unit
    // refuses new work at cycle 2 and accepts again at cycle 3.
    ScheduleUnit su(FuClass::LoadStore, 1, 2);
    issue(su, Op::LW, 0, 1);
    issue(su, Op::LW, 1, 1);
    EXPECT_EQ(select(su, 1).size(), 1u);
    EXPECT_EQ(select(su, 2).size(), 0u);
    const auto g = select(su, 3);
    ASSERT_EQ(g.size(), 1u);
    EXPECT_EQ(g[0].slot, 1);
}

TEST(ScheduleUnit, TwoUnitsGrantTwoPerCycle)
{
    ScheduleUnit su(FuClass::LoadStore, 2, 4);
    issue(su, Op::LW, 0, 1);
    issue(su, Op::LW, 1, 1);
    issue(su, Op::LW, 2, 1);
    const auto g = select(su, 1);
    ASSERT_EQ(g.size(), 2u);
    EXPECT_EQ(g[0].slot, 0);
    EXPECT_EQ(g[0].unit, 0);
    EXPECT_EQ(g[1].slot, 1);
    EXPECT_EQ(g[1].unit, 1);
    EXPECT_TRUE(su.slotBusy(2));
}

TEST(ScheduleUnit, ArrivalCycleRespected)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 2);
    issue(su, Op::ADD, 0, 5);
    EXPECT_EQ(su.nextEventCycle(), 5u);
    EXPECT_EQ(select(su, 4).size(), 0u);
    EXPECT_TRUE(su.slotBusy(0));    // occupied even before arrival
    EXPECT_EQ(select(su, 5).size(), 1u);
}

TEST(ScheduleUnit, DoubleSubmitPanics)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 2);
    issue(su, Op::ADD, 0, 1);
    EXPECT_THROW(issue(su, Op::SUB, 0, 2), PanicError);
}

TEST(ScheduleUnit, FlushSlotDropsWaitingWork)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 2);
    issue(su, Op::ADD, 0, 1);
    issue(su, Op::ADD, 1, 1);
    select(su, 1);                  // grants slot 0, slot 1 waits
    su.flushSlot(1);
    EXPECT_FALSE(su.slotBusy(1));
    EXPECT_EQ(select(su, 2).size(), 0u);
}

TEST(ScheduleUnit, FlushSlotDropsIncomingToo)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 2);
    issue(su, Op::ADD, 1, 3);
    EXPECT_TRUE(su.slotBusy(1));
    su.flushSlot(1);
    EXPECT_FALSE(su.slotBusy(1));
    EXPECT_EQ(su.nextEventCycle(), kNeverCycle);
}

TEST(ScheduleUnit, MixedLatencyOpsSetPerOpIssueLatency)
{
    // FABS (issue 1) then another op next cycle is fine.
    ScheduleUnit su(FuClass::FpAdd, 1, 2);
    issue(su, Op::FABS, 0, 1);
    EXPECT_EQ(select(su, 1).size(), 1u);
    issue(su, Op::FADD, 1, 2);
    EXPECT_EQ(select(su, 2).size(), 1u);
}
