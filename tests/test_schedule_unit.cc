#include <gtest/gtest.h>

#include <array>

#include "base/logging.hh"
#include "core/schedule.hh"

using namespace smtsim;

namespace
{

IssuedOp
makeOp(Op op, int slot, Cycle arrive)
{
    IssuedOp io;
    io.insn.op = op;
    io.slot = slot;
    io.arrive = arrive;
    return io;
}

// select() is called as the core calls it: the priority ring as an
// array of slots, and one grant buffer with room for a grant per
// unit.
constexpr int kRing2[] = {0, 1};
constexpr int kRing4[] = {0, 1, 2, 3};

} // namespace

TEST(ScheduleUnit, GrantsInPriorityOrder)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 4);
    std::array<Grant, 1> buf;
    su.submit(makeOp(Op::ADD, 0, 1));
    su.submit(makeOp(Op::ADD, 2, 1));

    // Priority order: slot 2 first.
    const int ring[] = {2, 3, 0, 1};
    const auto grants = su.select(1, ring, buf);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].op.slot, 2);
    // Slot 0 still waits in its standby station.
    EXPECT_TRUE(su.slotBusy(0));
    EXPECT_FALSE(su.slotBusy(2));
}

TEST(ScheduleUnit, LoserGrantedNextCycle)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 4);
    std::array<Grant, 1> buf;
    su.submit(makeOp(Op::ADD, 0, 1));
    su.submit(makeOp(Op::ADD, 1, 1));
    ASSERT_EQ(su.select(1, kRing4, buf).size(), 1u);
    const auto second = su.select(2, kRing4, buf);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].op.slot, 1);
}

TEST(ScheduleUnit, IssueLatencyBlocksUnit)
{
    // Load/store issue latency 2: after a grant at cycle 1 the unit
    // refuses new work at cycle 2 and accepts again at cycle 3.
    ScheduleUnit su(FuClass::LoadStore, 1, 2);
    std::array<Grant, 1> buf;
    su.submit(makeOp(Op::LW, 0, 1));
    su.submit(makeOp(Op::LW, 1, 1));
    EXPECT_EQ(su.select(1, kRing2, buf).size(), 1u);
    EXPECT_EQ(su.select(2, kRing2, buf).size(), 0u);
    const auto g = su.select(3, kRing2, buf);
    ASSERT_EQ(g.size(), 1u);
    EXPECT_EQ(g[0].op.slot, 1);
}

TEST(ScheduleUnit, TwoUnitsGrantTwoPerCycle)
{
    ScheduleUnit su(FuClass::LoadStore, 2, 4);
    std::array<Grant, 2> buf;
    su.submit(makeOp(Op::LW, 0, 1));
    su.submit(makeOp(Op::LW, 1, 1));
    su.submit(makeOp(Op::LW, 2, 1));
    const auto g = su.select(1, kRing4, buf);
    ASSERT_EQ(g.size(), 2u);
    EXPECT_EQ(g[0].op.slot, 0);
    EXPECT_EQ(g[0].unit, 0);
    EXPECT_EQ(g[1].op.slot, 1);
    EXPECT_EQ(g[1].unit, 1);
    EXPECT_TRUE(su.slotBusy(2));
}

TEST(ScheduleUnit, ArrivalCycleRespected)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 2);
    std::array<Grant, 1> buf;
    su.submit(makeOp(Op::ADD, 0, 5));
    EXPECT_EQ(su.select(4, kRing2, buf).size(), 0u);
    EXPECT_TRUE(su.slotBusy(0));    // occupied even before arrival
    EXPECT_EQ(su.select(5, kRing2, buf).size(), 1u);
}

TEST(ScheduleUnit, DoubleSubmitPanics)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 2);
    su.submit(makeOp(Op::ADD, 0, 1));
    EXPECT_THROW(su.submit(makeOp(Op::SUB, 0, 2)), PanicError);
}

TEST(ScheduleUnit, FlushSlotDropsWaitingWork)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 2);
    std::array<Grant, 1> buf;
    su.submit(makeOp(Op::ADD, 0, 1));
    su.submit(makeOp(Op::ADD, 1, 1));
    su.select(1, kRing2, buf);      // grants slot 0, slot 1 waits
    su.flushSlot(1);
    EXPECT_FALSE(su.slotBusy(1));
    EXPECT_EQ(su.select(2, kRing2, buf).size(), 0u);
}

TEST(ScheduleUnit, FlushSlotDropsIncomingToo)
{
    ScheduleUnit su(FuClass::IntAlu, 1, 2);
    su.submit(makeOp(Op::ADD, 1, 3));
    EXPECT_TRUE(su.slotBusy(1));
    su.flushSlot(1);
    EXPECT_FALSE(su.slotBusy(1));
}

TEST(ScheduleUnit, MixedLatencyOpsSetPerOpIssueLatency)
{
    // FABS (issue 1) then another op next cycle is fine.
    ScheduleUnit su(FuClass::FpAdd, 1, 2);
    std::array<Grant, 1> buf;
    su.submit(makeOp(Op::FABS, 0, 1));
    EXPECT_EQ(su.select(1, kRing2, buf).size(), 1u);
    su.submit(makeOp(Op::FADD, 1, 2));
    EXPECT_EQ(su.select(2, kRing2, buf).size(), 1u);
}
