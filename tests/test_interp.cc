#include <gtest/gtest.h>

#include "base/logging.hh"
#include "test_common.hh"

using namespace smtsim;
using namespace smtsim::test;

namespace
{

/** Every case runs twice: reference stepping and the chunk loop
 *  must both get each architectural rule right. */
class Interp : public ::testing::TestWithParam<bool>
{
  protected:
    static InterpResult
    run(std::string_view source, int threads = 1,
        MainMemory *mem = nullptr)
    {
        return runInterpAsm(source, threads, mem, GetParam());
    }
};

} // namespace

TEST_P(Interp, ArithmeticAndMemory)
{
    MainMemory mem;
    const auto r = run(R"(
main:   addi r1, r0, 21
        add  r2, r1, r1
        la   r3, out
        sw   r2, 0(r3)
        halt
        .data
out:    .word 0
)",
                       1, &mem);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.steps, 6u);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 42u);
}

TEST_P(Interp, LoopAndBranches)
{
    MainMemory mem;
    const auto r = run(R"(
main:   li   r1, 10
        li   r2, 0
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bgtz r1, loop
        la   r3, out
        sw   r2, 0(r3)
        halt
        .data
out:    .word 0
)",
                       1, &mem);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 55u);
}

TEST_P(Interp, JalAndJr)
{
    MainMemory mem;
    run(R"(
main:   jal  sub
        la   r3, out
        sw   r2, 0(r3)
        halt
sub:    addi r2, r0, 99
        jr   r31
        .data
out:    .word 0
)",
        1, &mem);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 99u);
}

TEST_P(Interp, FpPipeline)
{
    MainMemory mem;
    run(R"(
main:   la   r1, in
        lf   f1, 0(r1)
        lf   f2, 8(r1)
        fmul f3, f1, f2
        fsqrt f4, f3
        fdiv f5, f4, f2
        sf   f5, 16(r1)
        halt
        .data
in:     .float 8.0, 2.0
out:    .float 0.0
)",
        1, &mem);
    EXPECT_DOUBLE_EQ(mem.readDouble(kDefaultDataBase + 16), 2.0);
}

TEST_P(Interp, FastForkActivatesAllThreads)
{
    MainMemory mem;
    const auto r = run(R"(
main:   la   r1, outs
        fastfork
        tid  r2
        sll  r3, r2, 2
        add  r3, r1, r3
        addi r4, r2, 100
        sw   r4, 0(r3)
        halt
        .data
outs:   .word 0, 0, 0, 0
)",
                       4, &mem);
    EXPECT_TRUE(r.completed);
    for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(mem.read32(kDefaultDataBase +
                             static_cast<Addr>(4 * t)),
                  100u + t);
    }
    // Forked threads start after the fork point: 4 thread bodies.
    EXPECT_EQ(r.per_thread_steps.size(), 4u);
    EXPECT_GT(r.per_thread_steps[1], 0u);
}

TEST_P(Interp, ForkCopiesParentRegisters)
{
    MainMemory mem;
    run(R"(
main:   li   r5, 77
        la   r1, outs
        fastfork
        tid  r2
        sll  r3, r2, 2
        add  r3, r1, r3
        sw   r5, 0(r3)
        halt
        .data
outs:   .word 0, 0
)",
        2, &mem);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 77u);
    EXPECT_EQ(mem.read32(kDefaultDataBase + 4), 77u);
}

TEST_P(Interp, QueueRegistersRelayValues)
{
    // Thread 0 sends 5 to thread 1; thread 1 doubles and stores.
    MainMemory mem;
    const auto r = run(R"(
main:   qen  r20, r21
        fastfork
        tid  r2
        bne  r2, r0, recv
        addi r21, r0, 5     # enqueue 5 to successor
        halt
recv:   add  r3, r20, r0    # dequeue
        add  r3, r3, r3
        la   r4, out
        sw   r3, 0(r4)
        halt
        .data
out:    .word 0
)",
                       2, &mem);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 10u);
}

TEST_P(Interp, QueueBlockingIsNotDeadlockWhenProducerComes)
{
    // Consumer starts first but producer eventually pushes.
    MainMemory mem;
    const auto r = run(R"(
main:   qen  r20, r21
        fastfork
        tid  r2
        beq  r2, r0, prod
        add  r3, r20, r0
        la   r4, out
        sw   r3, 0(r4)
        halt
prod:   nop
        nop
        nop
        addi r21, r0, 123
        halt
        .data
out:    .word 0
)",
                       2, &mem);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 123u);
}

TEST_P(Interp, DeadlockDetected)
{
    // Single thread popping an empty queue can never progress.
    EXPECT_THROW(run(R"(
main:   qen  r20, r21
        add  r1, r20, r0
        halt
)",
                     1),
                 FatalError);
}

TEST_P(Interp, ChgpriRotatesAndBlocksNonTop)
{
    // Threads store their tid in priority order: each thread waits
    // for the top priority before storing via pstw, then rotates.
    MainMemory mem;
    const auto r = run(R"(
main:   la   r1, out
        fastfork
        tid  r2
        pstw r2, 0(r1)      # performed in priority (= tid) order
        chgpri
        halt
        .data
out:    .word 0
)",
                       4, &mem);
    EXPECT_TRUE(r.completed);
    // The last store wins: thread 3 stores last.
    EXPECT_EQ(mem.read32(kDefaultDataBase), 3u);
}

TEST_P(Interp, KilltStopsOtherThreads)
{
    MainMemory mem;
    const auto r = run(R"(
main:   la   r1, out
        fastfork
        tid  r2
        bne  r2, r0, spin
        killt
        addi r3, r0, 7
        sw   r3, 0(r1)
        halt
spin:   j    spin           # would never halt without the kill
        .data
out:    .word 0
)",
                       4, &mem);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 7u);
}

TEST_P(Interp, HaltedThreadLeavesPriorityRing)
{
    // Thread 0 halts immediately; thread 1 must still get the top
    // priority for its pstw.
    MainMemory mem;
    const auto r = run(R"(
main:   la   r1, out
        fastfork
        tid  r2
        beq  r2, r0, quit
        pstw r2, 0(r1)
        halt
quit:   halt
        .data
out:    .word 0
)",
                       2, &mem);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 1u);
}

TEST_P(Interp, R0AlwaysZero)
{
    MainMemory mem;
    run(R"(
main:   addi r0, r0, 55
        la   r1, out
        sw   r0, 0(r1)
        halt
        .data
out:    .word 0xffffffff
)",
        1, &mem);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 0u);
}

TEST_P(Interp, TidAndNslot)
{
    MainMemory mem;
    run(R"(
main:   nslot r1
        tid  r2
        la   r3, out
        sw   r1, 0(r3)
        sw   r2, 4(r3)
        halt
        .data
out:    .word 0, 9
)",
        3, &mem);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 3u);
    EXPECT_EQ(mem.read32(kDefaultDataBase + 4), 0u);
}

TEST_P(Interp, QenValidation)
{
    EXPECT_THROW(run("main: qen r0, r1\nhalt\n", 1),
                 FatalError);
    EXPECT_THROW(run("main: qen r5, r5\nhalt\n", 1),
                 FatalError);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, Interp, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool> &info) {
        return info.param ? "Chunked" : "Reference";
    });
