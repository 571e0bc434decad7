#include <gtest/gtest.h>

#include "base/logging.hh"
#include "core/queue_ring.hh"

using namespace smtsim;

TEST(QueueRing, RingTopology)
{
    QueueRing ring(3, 4);
    // Slot 0 writes; slot 1 (its successor) reads.
    ring.reserve(0);
    ring.push(0, 42);
    EXPECT_TRUE(ring.canPop(1, 1));
    EXPECT_FALSE(ring.canPop(2, 1));
    EXPECT_FALSE(ring.canPop(0, 1));
    EXPECT_EQ(ring.pop(1), 42u);
    EXPECT_FALSE(ring.canPop(1, 1));
}

TEST(QueueRing, WrapAround)
{
    QueueRing ring(3, 4);
    // The last slot feeds slot 0.
    ring.reserve(2);
    ring.push(2, 7);
    EXPECT_TRUE(ring.canPop(0, 1));
    EXPECT_EQ(ring.pop(0), 7u);
}

TEST(QueueRing, FifoOrder)
{
    QueueRing ring(2, 4);
    for (std::uint64_t v : {1, 2, 3}) {
        ring.reserve(0);
        ring.push(0, v);
    }
    EXPECT_TRUE(ring.canPop(1, 3));
    EXPECT_EQ(ring.pop(1), 1u);
    EXPECT_EQ(ring.pop(1), 2u);
    EXPECT_EQ(ring.pop(1), 3u);
}

TEST(QueueRing, DepthLimitsReservations)
{
    QueueRing ring(2, 2);
    EXPECT_TRUE(ring.canReserve(0));
    ring.reserve(0);
    EXPECT_TRUE(ring.canReserve(0));
    ring.reserve(0);
    EXPECT_FALSE(ring.canReserve(0));
    // Deposits do not change occupancy until popped.
    ring.push(0, 1);
    EXPECT_FALSE(ring.canReserve(0));
    ring.pop(1);
    EXPECT_TRUE(ring.canReserve(0));
}

TEST(QueueRing, ClearEmptiesEverything)
{
    QueueRing ring(2, 4);
    ring.reserve(0);
    ring.push(0, 5);
    ring.reserve(1);
    ring.clear();
    EXPECT_FALSE(ring.canPop(1, 1));
    EXPECT_TRUE(ring.canReserve(0));
    EXPECT_TRUE(ring.canReserve(1));
}

TEST(QueueRing, SingleSlotSelfLoop)
{
    // A one-slot ring feeds itself (used by the eager loop on a
    // single-slot machine).
    QueueRing ring(1, 2);
    ring.reserve(0);
    ring.push(0, 9);
    EXPECT_TRUE(ring.canPop(0, 1));
    EXPECT_EQ(ring.pop(0), 9u);
}

TEST(QueueRing, PopEmptyPanics)
{
    QueueRing ring(2, 2);
    EXPECT_THROW(ring.pop(0), PanicError);
}

TEST(QueueRing, PushWithoutReservationPanics)
{
    QueueRing ring(2, 2);
    EXPECT_THROW(ring.push(0, 1), PanicError);
}
