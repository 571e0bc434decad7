/**
 * @file
 * Cross-engine equivalence properties that do not fit the
 * core-centric sweep in test_core_func.cc: baseline-vs-interpreter
 * seeds, whole-workload three-way agreement, and input robustness.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "fastpath/engine.hh"
#include "harness/runner.hh"
#include "test_common.hh"
#include "trace/synth.hh"

using namespace smtsim;
using namespace smtsim::test;

namespace
{

class BaselineSeeds : public ::testing::TestWithParam<int>
{
};

} // namespace

TEST_P(BaselineSeeds, BaselineMatchesInterpreter)
{
    SynthParams sp;
    sp.seed = static_cast<std::uint64_t>(GetParam()) * 31 + 7;
    sp.iterations = 20;
    sp.parallel = false;
    const Program prog = makeSyntheticKernel(sp);
    const Addr scratch = prog.symbol("scratch");

    MainMemory im;
    prog.loadInto(im);
    fastpath::FastEngine interp(prog, im);
    const InterpResult ir = interp.runReference();
    ASSERT_TRUE(ir.completed);

    MainMemory bm;
    prog.loadInto(bm);
    BaselineProcessor cpu(prog, bm);
    const RunStats bs = cpu.run();
    ASSERT_TRUE(bs.finished);
    EXPECT_EQ(bs.instructions, ir.steps);

    for (Addr a = scratch; a < scratch + 8 * 64; a += 4)
        ASSERT_EQ(bm.read32(a), im.read32(a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineSeeds,
                         ::testing::Range(1, 11));

TEST(Equivalence, ThreeWayAgreementOnEveryWorkload)
{
    RayTraceParams rp;
    rp.width = 5;
    rp.height = 5;
    rp.num_spheres = 3;
    Lk1Params lp;
    lp.n = 16;
    ListWalkParams wp;
    wp.num_nodes = 10;
    MatmulParams mp;
    mp.n = 4;
    BsearchParams bp;
    bp.table_size = 16;
    bp.queries_per_thread = 4;
    RadiosityParams dp;
    dp.num_patches = 5;
    RecurrenceParams cp;
    cp.n = 12;

    const Workload workloads[] = {
        makeRayTrace(rp),     makeLivermore1(lp),
        makeListWalk(wp),     makeMatmul(mp),
        makeBsearch(bp),      makeRadiosity(dp),
        makeRecurrence(cp),
    };
    for (const Workload &w : workloads) {
        const Outcome interp1 = runFunctional(w, 1);
        const Outcome base = runBaseline(w);
        CoreConfig cfg;
        cfg.num_slots = 2;
        const Outcome interp2 = runFunctional(w, cfg.num_slots);
        const Outcome core = runCore(w, cfg);
        EXPECT_TRUE(interp1.ok) << w.name << " interp";
        EXPECT_TRUE(base.ok) << w.name << " baseline";
        EXPECT_TRUE(core.ok) << w.name << " core";

        // Agreement extends to the dynamic instruction count: the
        // baseline retires exactly the single-thread projection and
        // the core exactly the S-thread one.
        EXPECT_EQ(base.stats.instructions, interp1.stats.instructions)
            << w.name << " baseline retired count";
        EXPECT_EQ(core.stats.instructions, interp2.stats.instructions)
            << w.name << " core retired count";
    }
}

TEST(Equivalence, TrapParityOnUndecodableWord)
{
    // A reachable undecodable word must trap on every engine, not
    // execute as garbage on some of them.
    Program prog = assemble("main:   addi r8, r0, 1\n"
                            "        nop\n"
                            "        halt\n");
    prog.text[1] = 0xfc000000;      // unknown primary opcode 63

    {
        MainMemory mem;
        prog.loadInto(mem);
        EXPECT_THROW(
            {
                fastpath::FastEngine interp(prog, mem);
                interp.runReference();
            },
            FatalError);
    }
    {
        MainMemory mem;
        prog.loadInto(mem);
        EXPECT_THROW(
            {
                BaselineProcessor cpu(prog, mem);
                cpu.run();
            },
            FatalError);
    }
    {
        MainMemory mem;
        prog.loadInto(mem);
        EXPECT_THROW(
            {
                MultithreadedProcessor cpu(prog, mem);
                cpu.run();
            },
            FatalError);
    }
}

TEST(Equivalence, WidthSweepKeepsBaselineResults)
{
    SynthParams sp;
    sp.seed = 77;
    sp.iterations = 16;
    sp.parallel = false;
    const Program prog = makeSyntheticKernel(sp);
    const Addr scratch = prog.symbol("scratch");

    MainMemory ref;
    prog.loadInto(ref);
    BaselineProcessor one(prog, ref);
    ASSERT_TRUE(one.run().finished);

    for (int width : {2, 4, 8}) {
        MainMemory mem;
        prog.loadInto(mem);
        BaselineConfig cfg;
        cfg.width = width;
        cfg.fus.int_alu = 2;
        cfg.fus.load_store = 2;
        BaselineProcessor cpu(prog, mem, cfg);
        ASSERT_TRUE(cpu.run().finished) << "width " << width;
        for (Addr a = scratch; a < scratch + 8 * 64; a += 4) {
            ASSERT_EQ(mem.read32(a), ref.read32(a))
                << "width " << width;
        }
    }
}

TEST(Equivalence, CrlfSourceAssemblesIdentically)
{
    const std::string unix_src =
        "main:   addi r1, r0, 3\n        add r2, r1, r1\n"
        "        halt\n";
    std::string dos_src;
    for (char c : unix_src) {
        if (c == '\n')
            dos_src += '\r';
        dos_src += c;
    }
    const Program a = assemble(unix_src);
    const Program b = assemble(dos_src);
    EXPECT_EQ(a.text, b.text);
}

TEST(Equivalence, InterpreterBudgetExhaustionReported)
{
    Machine m("main: j main\n");
    InterpConfig cfg;
    cfg.max_steps = 1000;
    fastpath::FastEngine interp(m.prog, m.mem, cfg);
    const InterpResult r = interp.runReference();
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.steps, 1000u);
}
