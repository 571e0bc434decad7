#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "obs/sinks.hh"
#include "test_common.hh"

using namespace smtsim;
using namespace smtsim::test;

// ----------------------------------------------------------------
// Instruction-window hazards with width > 1
// ----------------------------------------------------------------

TEST(CoreWindow, WarHazardInWindowRespected)
{
    // add r2 <- r1 (reads r1); addi r1 <- ... (writes r1).
    // With width 4 both sit in the window; the writer must not
    // clobber r1 before the reader captures it.
    MainMemory mem;
    CoreConfig cfg;
    cfg.num_slots = 1;
    cfg.width = 4;
    runCoreAsm(R"(
main:   li   r1, 10
        nop
        nop
        nop
        add  r2, r1, r0
        addi r1, r0, 99
        la   r3, out
        sw   r2, 0(r3)
        sw   r1, 4(r3)
        halt
        .data
out:    .word 0, 0
)",
               cfg, &mem);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 10u);
    EXPECT_EQ(mem.read32(kDefaultDataBase + 4), 99u);
}

TEST(CoreWindow, WawHazardInWindowRespected)
{
    // Long-latency mul writes r1, then addi overwrites it; the
    // final value must be the addi's even though the mul completes
    // later.
    MainMemory mem;
    CoreConfig cfg;
    cfg.num_slots = 1;
    cfg.width = 4;
    runCoreAsm(R"(
main:   li   r4, 7
        li   r5, 6
        mul  r1, r4, r5
        addi r1, r0, 5
        la   r3, out
        sw   r1, 0(r3)
        halt
        .data
out:    .word 0
)",
               cfg, &mem);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 5u);
}

TEST(CoreWindow, MemOrderWithinWindow)
{
    // Store then load of the same address inside one window: the
    // load must observe the store.
    MainMemory mem;
    CoreConfig cfg;
    cfg.num_slots = 1;
    cfg.width = 4;
    cfg.fus.load_store = 2;
    runCoreAsm(R"(
main:   la   r1, buf
        li   r2, 123
        sw   r2, 0(r1)
        lw   r3, 0(r1)
        addi r3, r3, 1
        sw   r3, 4(r1)
        halt
        .data
buf:    .word 0, 0
)",
               cfg, &mem);
    EXPECT_EQ(mem.read32(kDefaultDataBase + 4), 124u);
}

// ----------------------------------------------------------------
// Mode and priority plumbing
// ----------------------------------------------------------------

TEST(CoreModes, SetrmodeSwitchesAtRuntime)
{
    // A program that switches to explicit mode and back; priority
    // special ops still work afterwards.
    MainMemory mem;
    CoreConfig cfg;
    cfg.num_slots = 2;
    const RunStats s = runCoreAsm(R"(
main:   setrmode explicit, 0
        fastfork
        tid  r1
        la   r2, out
        pstw r1, 0(r2)
        chgpri
        setrmode implicit, 4
        halt
        .data
out:    .word 0
)",
                                  cfg, &mem);
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 1u);    // last = tid 1
}

TEST(CoreModes, RotationIntervalFromInstruction)
{
    // setrmode implicit, N reprograms the interval; the run must
    // still complete and stay deterministic.
    CoreConfig cfg;
    cfg.num_slots = 4;
    const std::string prog = R"(
main:   setrmode implicit, 2
        li   r1, 32
        fastfork
loop:   addi r1, r1, -1
        add  r2, r2, r1
        bgtz r1, loop
        halt
)";
    const RunStats a = runCoreAsm(prog, cfg);
    const RunStats b = runCoreAsm(prog, cfg);
    EXPECT_TRUE(a.finished);
    EXPECT_EQ(a.cycles, b.cycles);
}

// ----------------------------------------------------------------
// Statistics plumbing
// ----------------------------------------------------------------

TEST(CoreStats, WritebackConflictsDetected)
{
    // A multiply (result 6) issued right before a chain of ALU ops
    // lines up same-cycle write-backs to the same bank eventually.
    CoreConfig cfg;
    cfg.num_slots = 1;
    const RunStats s = runCoreAsm(R"(
main:   li   r4, 3
        li   r5, 9
        mul  r1, r4, r5
        sll  r2, r4, 1
        add  r3, r4, r5
        add  r6, r5, r5
        add  r7, r4, r4
        add  r8, r5, r4
        halt
)",
                                  cfg);
    EXPECT_TRUE(s.finished);
    // The statistic is advisory; just ensure it is wired (>= 0 and
    // bounded by instruction count).
    EXPECT_LE(s.writeback_conflicts, s.instructions);
}

TEST(CoreStats, PerContextInstructionCountsSumUp)
{
    Machine m(R"(
main:   fastfork
        tid  r1
        addi r2, r1, 1
        halt
)");
    CoreConfig cfg;
    cfg.num_slots = 4;
    MultithreadedProcessor cpu(m.prog, m.mem, cfg);
    const RunStats s = cpu.run();
    EXPECT_TRUE(s.finished);
    // fastfork + 3 insns on slot 0; tid/addi/halt on the others.
    EXPECT_EQ(s.instructions, 4u + 3u * 3u);
}

// ----------------------------------------------------------------
// Fetch engine corner cases
// ----------------------------------------------------------------

TEST(CoreFetch, RewindDeliversEveryInstruction)
{
    // A long straight-line block taxes the fetch rewind path (the
    // queue cannot absorb a full block while draining); every
    // instruction must still execute exactly once.
    std::string body;
    for (int i = 0; i < 64; ++i) {
        body += "        addi r" + std::to_string(1 + i % 20) +
                ", r0, " + std::to_string(i) + "\n";
    }
    Machine m("main:\n" + body + "        halt\n");
    CoreConfig cfg;
    cfg.num_slots = 1;
    MultithreadedProcessor cpu(m.prog, m.mem, cfg);
    const RunStats s = cpu.run();
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(s.instructions, 65u);
}

TEST(CoreFetch, ManySlotsShareFetchWithoutLoss)
{
    // Eight threads of straight-line code: instruction counts must
    // be exact despite heavy fetch-unit multiplexing.
    std::string body;
    for (int i = 0; i < 24; ++i)
        body += "        addi r" + std::to_string(1 + i % 20) +
                ", r0, 1\n";
    Machine m("main:   fastfork\n" + body + "        halt\n");
    CoreConfig cfg;
    cfg.num_slots = 8;
    MultithreadedProcessor cpu(m.prog, m.mem, cfg);
    const RunStats s = cpu.run();
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(s.instructions, 1u + 8u * 25u);
}

TEST(CoreFetch, TightLoopAtEndOfText)
{
    // The last instructions of the text segment loop back; fetch
    // must stop cleanly at the segment end (no phantom words).
    MainMemory mem;
    CoreConfig cfg;
    cfg.num_slots = 1;
    const RunStats s = runCoreAsm(R"(
main:   li   r1, 6
loop:   addi r1, r1, -1
        bgtz r1, loop
        halt
)",
                                  cfg, &mem);
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(s.instructions, 2u + 2u * 6u + 1u);
}

TEST(CoreDebug, PipeTraceStreamsEvents)
{
    Machine m(R"(
main:   li   r1, 2
loop:   addi r1, r1, -1
        bgtz r1, loop
        halt
)");
    CoreConfig cfg;
    cfg.num_slots = 1;
    MultithreadedProcessor cpu(m.prog, m.mem, cfg);
    std::ostringstream trace;
    obs::TextSink sink(trace);
    cpu.setEventSink(&sink);
    ASSERT_TRUE(cpu.run().finished);
    const std::string t = trace.str();
    EXPECT_NE(t.find("issue"), std::string::npos);
    EXPECT_NE(t.find("grant"), std::string::npos);
    EXPECT_NE(t.find("branch"), std::string::npos);
    // The entry thread binds in the constructor, before the trace
    // stream can be attached; forked threads do show bind events.
    // Disabled by default: a second run emits nothing new.
    Machine m2("main: halt\n");
    MultithreadedProcessor quiet(m2.prog, m2.mem, cfg);
    ASSERT_TRUE(quiet.run().finished);
}

TEST(CoreQueues, IntAndFpMappingsCoexist)
{
    // qen and qenf map both register files onto the same ring
    // link; values interleave in FIFO order.
    MainMemory mem;
    CoreConfig cfg;
    cfg.num_slots = 2;
    cfg.rotation_mode = RotationMode::Explicit;
    const RunStats s = runCoreAsm(R"(
main:   setrmode explicit, 0
        qen  r20, r21
        qenf f20, f21
        la   r9, vals
        lf   f5, 0(r9)
        fastfork
        tid  r1
        bne  r1, r0, recv
        addi r21, r0, 7         # int -> queue
        fmov f21, f5            # fp  -> queue (after the int)
        halt
recv:   add  r2, r20, r0        # pop int
        fmov f2, f20            # pop fp
        la   r3, out
        sw   r2, 0(r3)
        sf   f2, 8(r3)
        halt
        .data
        .align 8
vals:   .float 2.5
out:    .word 0, 0
        .float 0.0
)",
                                  cfg, &mem);
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(mem.read32(kDefaultDataBase + 8), 7u);
    EXPECT_DOUBLE_EQ(mem.readDouble(kDefaultDataBase + 16), 2.5);
}

// ----------------------------------------------------------------
// Decode-phase visits: fast-forward on and off agree where a slot
// changes state in the middle of a decode phase
// ----------------------------------------------------------------

namespace
{

/** Run @p source with fast-forward on and off; RunStats, detail()
 *  and every frame's registers must agree. */
void
expectFastForwardTwins(const std::string &source, CoreConfig cfg,
                       const std::string &what)
{
    cfg.max_cycles = 20'000;
    Machine on(source), off(source);
    cfg.fast_forward = true;
    MultithreadedProcessor ff(on.prog, on.mem, cfg);
    const RunStats sf = ff.run();
    cfg.fast_forward = false;
    MultithreadedProcessor nv(off.prog, off.mem, cfg);
    const RunStats sn = nv.run();
    EXPECT_TRUE(sf.finished) << what;
    EXPECT_EQ(sf, sn) << what;
    EXPECT_EQ(ff.detail().all(), nv.detail().all()) << what;
    for (int f = 0; f < cfg.frames(); ++f) {
        for (RegIndex r = 0; r < kNumRegs; ++r) {
            ASSERT_EQ(ff.intReg(f, r), nv.intReg(f, r))
                << what << ", frame " << f << ", r" << int{r};
            ASSERT_EQ(ff.fpReg(f, r), nv.fpReg(f, r))
                << what << ", frame " << f << ", f" << int{r};
        }
    }
}

} // namespace

TEST(CoreDecodeVisits, KilltWhileALowerSlotsWakeIsDue)
{
    // The workers sleep on a multiply result in every iteration;
    // slot 0 kills them once it holds the top priority. Over the
    // paddings and rotation intervals its KILLT issues in a dozen
    // cycles where a worker's wake_at has come, so a slot woken at
    // the start of the decode phase is killed before its turn.
    for (int pad = 0; pad < 40; ++pad) {
        std::string nops;
        for (int i = 0; i < pad; ++i)
            nops += "        nop\n";
        const std::string source = R"(
main:   fastfork
        tid  r1
        bne  r1, r0, work
)" + nops + R"(
        killt
        addi r5, r0, 7
        halt
work:   addi r2, r1, 3
loop:   mul  r3, r2, r2
        add  r4, r3, r1
        addi r2, r2, 1
        j    loop
)";
        for (int interval : {5, 7, 8}) {
            CoreConfig cfg;
            cfg.num_slots = 4;
            cfg.rotation_interval = interval;
            expectFastForwardTwins(source, cfg,
                                   "pad " + std::to_string(pad) +
                                       ", rotation interval " +
                                       std::to_string(interval));
        }
    }
}

TEST(CoreDecodeVisits, FastforkBindsSlotsLaterInRingOrder)
{
    // The fork comes at different ring offsets, so it binds slots
    // both after and before the forking slot in the decode phase's
    // ring order; the ones after it are not visited in that phase.
    for (int slots : {3, 4, 8}) {
        for (int pad = 0; pad < 20; ++pad) {
            std::string nops;
            for (int i = 0; i < pad; ++i)
                nops += "        nop\n";
            const std::string source = "main:\n" + nops + R"(
        fastfork
        tid  r1
        addi r2, r1, 1
        mul  r3, r2, r2
        add  r4, r3, r1
        halt
)";
            CoreConfig cfg;
            cfg.num_slots = slots;
            expectFastForwardTwins(source, cfg,
                                   std::to_string(slots) + " slots, pad " +
                                       std::to_string(pad));
        }
    }
}

TEST(CoreConfigValidation, BadShapesRejected)
{
    Machine m("main: halt\n");
    {
        CoreConfig cfg;
        cfg.num_slots = 0;
        EXPECT_THROW(MultithreadedProcessor cpu(m.prog, m.mem, cfg),
                     PanicError);
    }
    {
        CoreConfig cfg;
        cfg.num_slots = 4;
        cfg.num_frames = 2;     // fewer frames than slots
        EXPECT_THROW(MultithreadedProcessor cpu(m.prog, m.mem, cfg),
                     PanicError);
    }
    {
        CoreConfig cfg;
        cfg.width = 0;
        EXPECT_THROW(MultithreadedProcessor cpu(m.prog, m.mem, cfg),
                     PanicError);
    }
}

TEST(CoreConfigValidation, SlotLimitIsANamedError)
{
    Machine m("main: halt\n");
    CoreConfig cfg;
    cfg.num_slots = MultithreadedProcessor::kMaxSlots;
    EXPECT_NO_THROW(MultithreadedProcessor cpu(m.prog, m.mem, cfg));
    cfg.num_slots = MultithreadedProcessor::kMaxSlots + 1;
    try {
        MultithreadedProcessor cpu(m.prog, m.mem, cfg);
        FAIL() << "65 slots accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "core: 65 thread slots exceed the limit of 64");
    }
}
