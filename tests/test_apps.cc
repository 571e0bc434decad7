#include <gtest/gtest.h>

#include "harness/runner.hh"

using namespace smtsim;

namespace
{

CoreConfig
slots(int n)
{
    CoreConfig cfg;
    cfg.num_slots = n;
    return cfg;
}

} // namespace

// ----------------------------------------------------------------
// Matrix multiply
// ----------------------------------------------------------------

TEST(Matmul, CorrectOnAllEngines)
{
    MatmulParams p;
    p.n = 8;
    const Workload w = makeMatmul(p);
    EXPECT_TRUE(runFunctional(w, 1).ok);
    EXPECT_TRUE(runFunctional(w, 4).ok);
    EXPECT_TRUE(runBaseline(w).ok);
    for (int s : {1, 2, 4, 8})
        EXPECT_TRUE(runCore(w, slots(s)).ok) << "slots " << s;
}

TEST(Matmul, OddSizesAndMoreSlotsThanRows)
{
    for (int n : {1, 3, 5}) {
        MatmulParams p;
        p.n = n;
        const Workload w = makeMatmul(p);
        EXPECT_TRUE(runCore(w, slots(8)).ok) << "n " << n;
    }
}

TEST(Matmul, ScalesWithThreads)
{
    MatmulParams p;
    p.n = 12;
    const Workload w = makeMatmul(p);
    const Outcome o1 = runCore(w, slots(1));
    const Outcome o4 = runCore(w, slots(4));
    ASSERT_TRUE(o1.ok && o4.ok);
    EXPECT_LT(o4.stats.cycles * 2, o1.stats.cycles);
}

TEST(Matmul, ChecksumRejectsCorruption)
{
    MatmulParams p;
    p.n = 4;
    const Workload w = makeMatmul(p);
    MainMemory mem;
    w.program.loadInto(mem);
    w.init(mem);
    EXPECT_FALSE(w.check(mem, nullptr));    // never ran
}

// ----------------------------------------------------------------
// Binary search
// ----------------------------------------------------------------

TEST(Bsearch, CorrectOnAllEngines)
{
    BsearchParams p;
    p.table_size = 64;
    p.queries_per_thread = 16;
    const Workload w = makeBsearch(p);
    EXPECT_TRUE(runFunctional(w, 1).ok);
    EXPECT_TRUE(runFunctional(w, 3).ok);
    EXPECT_TRUE(runBaseline(w).ok);
    for (int s : {1, 2, 4, 8})
        EXPECT_TRUE(runCore(w, slots(s)).ok) << "slots " << s;
}

TEST(Bsearch, TinyTable)
{
    BsearchParams p;
    p.table_size = 1;
    p.queries_per_thread = 8;
    const Workload w = makeBsearch(p);
    EXPECT_TRUE(runCore(w, slots(4)).ok);
}

TEST(Bsearch, FixedWorkAcrossSlotCounts)
{
    // Total work is slot-count independent; the output must be
    // identical for any S, and multithreading must help this
    // branch-bound code substantially (the paper's motivating
    // scenario: unpredictable branches).
    BsearchParams p;
    const Workload w = makeBsearch(p);
    const Outcome base = runBaseline(w);
    const Outcome o4 = runCore(w, slots(4));
    ASSERT_TRUE(base.ok && o4.ok);
    EXPECT_GT(speedup(base.stats, o4.stats), 2.0);
}

// ----------------------------------------------------------------
// Radiosity
// ----------------------------------------------------------------

TEST(Radiosity, CorrectOnAllEngines)
{
    RadiosityParams p;
    p.num_patches = 12;
    const Workload w = makeRadiosity(p);
    EXPECT_TRUE(runFunctional(w, 1).ok);
    EXPECT_TRUE(runFunctional(w, 4).ok);
    EXPECT_TRUE(runBaseline(w).ok);
    for (int s : {1, 2, 4, 8})
        EXPECT_TRUE(runCore(w, slots(s)).ok) << "slots " << s;
}

TEST(Radiosity, SceneSeedSweep)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        RadiosityParams p;
        p.num_patches = 8;
        p.seed = seed;
        const Workload w = makeRadiosity(p);
        EXPECT_TRUE(runCore(w, slots(4)).ok) << "seed " << seed;
    }
}

TEST(Radiosity, MinimumPatchCount)
{
    RadiosityParams p;
    p.num_patches = 2;
    const Workload w = makeRadiosity(p);
    EXPECT_TRUE(runCore(w, slots(4)).ok);
}

TEST(Radiosity, ScalesWithThreads)
{
    RadiosityParams p;
    p.num_patches = 24;
    const Workload w = makeRadiosity(p);
    const Outcome o1 = runCore(w, slots(1));
    const Outcome o4 = runCore(w, slots(4));
    ASSERT_TRUE(o1.ok && o4.ok);
    EXPECT_LT(o4.stats.cycles * 2, o1.stats.cycles);
}

// ----------------------------------------------------------------
// Cross-application property: determinism
// ----------------------------------------------------------------

TEST(Applications, AllDeterministic)
{
    MatmulParams mp;
    mp.n = 6;
    BsearchParams bp;
    bp.table_size = 32;
    bp.queries_per_thread = 8;
    RadiosityParams rp;
    rp.num_patches = 8;

    const Workload ws[] = {makeMatmul(mp), makeBsearch(bp),
                           makeRadiosity(rp)};
    for (const Workload &w : ws) {
        const Outcome a = runCore(w, slots(4));
        const Outcome b = runCore(w, slots(4));
        ASSERT_TRUE(a.ok && b.ok) << w.name;
        EXPECT_EQ(a.stats.cycles, b.stats.cycles) << w.name;
        EXPECT_EQ(a.stats.instructions, b.stats.instructions)
            << w.name;
    }
}

// ----------------------------------------------------------------
// Stencil (ring-barrier synchronization between sweeps)
// ----------------------------------------------------------------

TEST(Stencil, CorrectOnAllEngines)
{
    StencilParams p;
    p.width = 8;
    p.height = 7;
    p.sweeps = 2;
    const Workload w = makeStencil(p);
    EXPECT_TRUE(runFunctional(w, 1).ok);
    EXPECT_TRUE(runFunctional(w, 4).ok);
    EXPECT_TRUE(runBaseline(w).ok);
    for (int s : {1, 2, 3, 4, 8})
        EXPECT_TRUE(runCore(w, slots(s)).ok) << "slots " << s;
}

TEST(Stencil, ManySweepsManyBarriers)
{
    // Each sweep crosses the queue-register ring barrier twice per
    // thread; seven sweeps stress token bookkeeping hard.
    StencilParams p;
    p.width = 6;
    p.height = 6;
    p.sweeps = 7;
    const Workload w = makeStencil(p);
    for (int s : {2, 5, 8})
        EXPECT_TRUE(runCore(w, slots(s)).ok) << "slots " << s;
}

TEST(Stencil, MoreSlotsThanRows)
{
    StencilParams p;
    p.width = 8;
    p.height = 4;       // 2 interior rows only
    p.sweeps = 3;
    const Workload w = makeStencil(p);
    EXPECT_TRUE(runCore(w, slots(8)).ok);
}

TEST(Stencil, OddEvenSweepCountsBothVerify)
{
    for (int sweeps : {1, 2, 3, 4}) {
        StencilParams p;
        p.width = 7;
        p.height = 6;
        p.sweeps = sweeps;
        const Workload w = makeStencil(p);
        EXPECT_TRUE(runCore(w, slots(4)).ok)
            << "sweeps " << sweeps;
    }
}

TEST(Stencil, BarrierPreservesDeterminism)
{
    StencilParams p;
    p.sweeps = 3;
    const Workload w = makeStencil(p);
    const Outcome a = runCore(w, slots(4));
    const Outcome b = runCore(w, slots(4));
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
}
