/**
 * @file
 * Chunk loop vs reference stepping: FastEngine::run must be
 * indistinguishable from FastEngine::runReference — step counts,
 * per-thread counts, registers, memory, completion and error
 * behaviour — across every workload class, with and without trace
 * recording. (The fuzzer's `fast` differential cells extend this to
 * randomized programs.)
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "fastpath/engine.hh"
#include "harness/runner.hh"
#include "test_common.hh"
#include "trace/synth.hh"
#include "workloads/workloads.hh"

using namespace smtsim;
using namespace smtsim::test;

namespace
{

/** Run @p w with and without the chunk loop and require
 *  bit-identical architectural outcomes. */
void
expectBitIdentical(const Workload &w, int num_threads,
                   bool check_outputs = true)
{
    InterpConfig cfg;
    cfg.num_threads = num_threads;

    MainMemory im;
    w.program.loadInto(im);
    if (w.init)
        w.init(im);
    fastpath::FastEngine interp(w.program, im, cfg);
    const InterpResult ir = interp.runReference();

    MainMemory fm;
    w.program.loadInto(fm);
    if (w.init)
        w.init(fm);
    const fastpath::TracedRun traced =
        fastpath::recordTrace(w.program, fm, cfg);
    const InterpResult &fr = traced.result;

    EXPECT_EQ(fr.completed, ir.completed) << w.name;
    EXPECT_EQ(fr.steps, ir.steps) << w.name;
    EXPECT_EQ(fr.per_thread_steps, ir.per_thread_steps) << w.name;
    // The whole memory image, not just the checked outputs.
    EXPECT_TRUE(fm.pages() == im.pages()) << w.name << " memory";
    if (check_outputs && w.check) {
        std::string why;
        EXPECT_TRUE(w.check(fm, &why)) << w.name << ": " << why;
    }

    // Untraced run: recording must not change architectural
    // behaviour (it takes a different dispatch specialization).
    MainMemory um;
    w.program.loadInto(um);
    if (w.init)
        w.init(um);
    fastpath::FastEngine plain(w.program, um, cfg);
    const InterpResult ur = plain.run();
    EXPECT_EQ(ur.steps, ir.steps) << w.name << " untraced";
    EXPECT_TRUE(um.pages() == im.pages())
        << w.name << " untraced memory";
    for (int t = 0; t < num_threads; ++t) {
        for (int r = 0; r < kNumRegs; ++r) {
            EXPECT_EQ(plain.intReg(t, static_cast<RegIndex>(r)),
                      interp.intReg(t, static_cast<RegIndex>(r)))
                << w.name << " t" << t << " r" << r;
        }
    }
}

} // namespace

TEST(Fastpath, SingleThreadWorkloadsBitIdentical)
{
    MatmulParams mp;
    mp.n = 5;
    BsearchParams bp;
    bp.table_size = 32;
    bp.queries_per_thread = 8;
    RadiosityParams dp;
    dp.num_patches = 6;
    ListWalkParams wp;
    wp.num_nodes = 12;
    RayTraceParams rp;
    rp.width = 4;
    rp.height = 4;
    rp.num_spheres = 3;

    for (const Workload &w :
         {makeMatmul(mp), makeBsearch(bp), makeRadiosity(dp),
          makeListWalk(wp), makeRayTrace(rp)}) {
        expectBitIdentical(w, 1);
    }
}

TEST(Fastpath, MultiThreadWorkloadsBitIdentical)
{
    // FASTFORK + doall: the chunk loop covers the prologue, the
    // generic round loop the parallel phase.
    MatmulParams mp;
    mp.n = 5;
    StencilParams sp;
    sp.width = 8;
    sp.height = 6;
    sp.sweeps = 2;
    RayTraceParams rp;
    rp.width = 4;
    rp.height = 4;
    rp.num_spheres = 3;
    for (const Workload &w :
         {makeMatmul(mp), makeStencil(sp), makeRayTrace(rp)}) {
        for (int threads : {2, 4}) {
            expectBitIdentical(w, threads);
        }
    }
}

TEST(Fastpath, QueueRegisterWorkloadsBitIdentical)
{
    // Queue-register communication: blocking reads, depth-limited
    // writes, QEN/QENF/QDIS — all on the generic path.
    RecurrenceParams qp;
    qp.n = 24;
    qp.variant = RecurrenceVariant::DoacrossQueue;
    expectBitIdentical(makeRecurrence(qp), 4);

    RecurrenceParams mp;
    mp.n = 24;
    mp.variant = RecurrenceVariant::DoacrossMemory;
    expectBitIdentical(makeRecurrence(mp), 4);

    // Eager list walk: queues + KILLT + priority gating.
    ListWalkParams wp;
    wp.num_nodes = 12;
    wp.break_at = 7;
    wp.eager = true;
    expectBitIdentical(makeListWalk(wp), 4);
}

TEST(Fastpath, SyntheticKernelsBitIdentical)
{
    for (std::uint64_t seed : {3u, 19u, 101u}) {
        SynthParams sp;
        sp.seed = seed;
        sp.iterations = 24;
        sp.parallel = false;
        const Program prog = makeSyntheticKernel(sp);
        Workload w;
        w.name = "synth-" + std::to_string(seed);
        w.program = prog;
        expectBitIdentical(w, 1, false);
        SynthParams pp = sp;
        pp.parallel = true;
        Workload wpar;
        wpar.name = w.name + "-par";
        wpar.program = makeSyntheticKernel(pp);
        expectBitIdentical(wpar, 4, false);
    }
}

TEST(Fastpath, StrayFetchTrapsLikeInterpreter)
{
    Machine m("main:   addi r8, r0, 1\n"
              "        jr r8\n");   // jumps to a misaligned address
    fastpath::FastEngine engine(m.prog, m.mem);
    EXPECT_THROW(engine.run(), FatalError);
}

TEST(Fastpath, UndecodableWordTrapsLikeInterpreter)
{
    Program prog = assemble("main:   addi r8, r0, 1\n"
                            "        nop\n"
                            "        halt\n");
    prog.text[1] = 0xfc000000;      // unknown primary opcode
    MainMemory mem;
    prog.loadInto(mem);
    EXPECT_THROW(
        {
            fastpath::FastEngine engine(prog, mem);
            engine.run();
        },
        FatalError);
}

TEST(Fastpath, DeadlockReportedLikeInterpreter)
{
    // A single thread reading an empty queue register with no
    // producer deadlocks in both modes, with the same message.
    const std::string_view src = "main:   qen r4, r5\n"
                                 "        add r6, r4, r4\n"
                                 "        halt\n";
    std::string interp_what, fast_what;
    {
        Machine m(src);
        fastpath::FastEngine interp(m.prog, m.mem);
        try {
            interp.runReference();
            FAIL() << "reference did not deadlock";
        } catch (const FatalError &e) {
            interp_what = e.what();
        }
    }
    {
        Machine m(src);
        fastpath::FastEngine engine(m.prog, m.mem);
        try {
            engine.run();
            FAIL() << "fast engine did not deadlock";
        } catch (const FatalError &e) {
            fast_what = e.what();
        }
    }
    EXPECT_EQ(fast_what, interp_what);
}

TEST(Fastpath, BudgetExhaustionReported)
{
    Machine m("main: j main\n");
    InterpConfig cfg;
    cfg.max_steps = 1000;
    fastpath::FastEngine engine(m.prog, m.mem, cfg);
    const InterpResult r = engine.run();
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.steps, 1000u);
}

TEST(Fastpath, HarnessRunnerVerifiesOutputs)
{
    MatmulParams mp;
    mp.n = 4;
    const Outcome fast = runFunctional(makeMatmul(mp), 2);
    EXPECT_TRUE(fast.ok) << fast.error;
    EXPECT_TRUE(fast.stats.finished);
    EXPECT_GT(fast.stats.instructions, 0u);
}
