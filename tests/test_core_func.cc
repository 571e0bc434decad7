#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "test_common.hh"
#include "trace/synth.hh"

using namespace smtsim;
using namespace smtsim::test;

namespace
{

/**
 * Run a synthetic kernel on the interpreter and the core with a
 * given config and require identical final memory contents over the
 * scratch area.
 */
void
expectCoreMatchesInterp(const SynthParams &params,
                        const CoreConfig &cfg)
{
    const Program prog = makeSyntheticKernel(params);
    const Addr scratch = prog.symbol("scratch");
    const Addr bytes = 8 * 64 * 9;

    MainMemory im;
    prog.loadInto(im);
    InterpConfig icfg;
    icfg.num_threads = cfg.num_slots;
    fastpath::FastEngine interp(prog, im, icfg);
    ASSERT_TRUE(interp.runReference().completed);

    MainMemory cm;
    prog.loadInto(cm);
    MultithreadedProcessor cpu(prog, cm, cfg);
    const RunStats stats = cpu.run();
    ASSERT_TRUE(stats.finished);

    for (Addr a = scratch; a < scratch + bytes; a += 4) {
        ASSERT_EQ(cm.read32(a), im.read32(a))
            << "mismatch at offset " << (a - scratch);
    }
}

struct CfgParam
{
    int slots;
    int lsu;
    bool standby;
    int width;
    bool private_icache;
};

class CoreFuncEquivalence
    : public ::testing::TestWithParam<CfgParam>
{
};

} // namespace

TEST_P(CoreFuncEquivalence, SyntheticKernelMatchesInterpreter)
{
    const CfgParam p = GetParam();
    SynthParams sp;
    sp.seed = 17;
    sp.iterations = 24;
    sp.parallel = p.slots > 1;

    CoreConfig cfg;
    cfg.num_slots = p.slots;
    cfg.fus.load_store = p.lsu;
    cfg.standby_enabled = p.standby;
    cfg.width = p.width;
    cfg.private_icache = p.private_icache;
    expectCoreMatchesInterp(sp, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, CoreFuncEquivalence,
    ::testing::Values(CfgParam{1, 1, true, 1, false},
                      CfgParam{2, 1, true, 1, false},
                      CfgParam{4, 1, true, 1, false},
                      CfgParam{8, 1, true, 1, false},
                      CfgParam{4, 2, true, 1, false},
                      CfgParam{4, 1, false, 1, false},
                      CfgParam{8, 2, false, 1, false},
                      CfgParam{2, 1, true, 2, false},
                      CfgParam{2, 2, true, 4, false},
                      CfgParam{4, 1, true, 2, true},
                      CfgParam{8, 2, true, 1, true}),
    [](const ::testing::TestParamInfo<CfgParam> &info) {
        const CfgParam &p = info.param;
        return "s" + std::to_string(p.slots) + "_l" +
               std::to_string(p.lsu) +
               (p.standby ? "_sb" : "_nosb") + "_w" +
               std::to_string(p.width) +
               (p.private_icache ? "_priv" : "_shared");
    });

TEST(CoreFunc, SeedSweepMatchesInterpreter)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 99ull}) {
        SynthParams sp;
        sp.seed = seed;
        sp.iterations = 16;
        sp.parallel = true;
        CoreConfig cfg;
        cfg.num_slots = 4;
        expectCoreMatchesInterp(sp, cfg);
    }
}

TEST(CoreFunc, DependenceLocalityExtremes)
{
    for (double locality : {0.0, 1.0}) {
        SynthParams sp;
        sp.seed = 5;
        sp.dependence_locality = locality;
        sp.iterations = 16;
        sp.parallel = true;
        CoreConfig cfg;
        cfg.num_slots = 4;
        expectCoreMatchesInterp(sp, cfg);
    }
}

TEST(CoreFunc, BaselineMatchesInterpreterOnSyntheticKernel)
{
    SynthParams sp;
    sp.seed = 23;
    sp.iterations = 24;
    sp.parallel = false;
    const Program prog = makeSyntheticKernel(sp);
    const Addr scratch = prog.symbol("scratch");

    MainMemory im;
    prog.loadInto(im);
    fastpath::FastEngine interp(prog, im);
    ASSERT_TRUE(interp.runReference().completed);

    MainMemory bm;
    prog.loadInto(bm);
    BaselineProcessor cpu(prog, bm);
    ASSERT_TRUE(cpu.run().finished);

    for (Addr a = scratch; a < scratch + 8 * 64; a += 4)
        ASSERT_EQ(bm.read32(a), im.read32(a));
}

TEST(CoreFunc, InstructionCountsMatchInterpreter)
{
    SynthParams sp;
    sp.seed = 31;
    sp.iterations = 10;
    sp.parallel = true;
    const Program prog = makeSyntheticKernel(sp);

    MainMemory im;
    prog.loadInto(im);
    InterpConfig icfg;
    icfg.num_threads = 4;
    fastpath::FastEngine interp(prog, im, icfg);
    const InterpResult ir = interp.runReference();

    MainMemory cm;
    prog.loadInto(cm);
    CoreConfig cfg;
    cfg.num_slots = 4;
    MultithreadedProcessor cpu(prog, cm, cfg);
    const RunStats cs = cpu.run();
    EXPECT_EQ(cs.instructions, ir.steps);
}

TEST(CoreFunc, DeterministicAcrossRuns)
{
    SynthParams sp;
    sp.seed = 77;
    sp.parallel = true;
    const Program prog = makeSyntheticKernel(sp);
    CoreConfig cfg;
    cfg.num_slots = 4;
    cfg.fus.load_store = 2;

    Cycle first = 0;
    for (int run = 0; run < 3; ++run) {
        MainMemory mem;
        prog.loadInto(mem);
        MultithreadedProcessor cpu(prog, mem, cfg);
        const RunStats s = cpu.run();
        ASSERT_TRUE(s.finished);
        if (run == 0)
            first = s.cycles;
        else
            EXPECT_EQ(s.cycles, first);
    }
}

TEST(CoreFunc, R0StaysZeroOnCore)
{
    MainMemory mem;
    runCoreAsm(R"(
main:   addi r0, r0, 99
        la   r1, out
        sw   r0, 0(r1)
        halt
        .data
out:    .word 1
)",
               {}, &mem);
    EXPECT_EQ(mem.read32(kDefaultDataBase), 0u);
}

TEST(CoreFunc, ContextFramesDefaultToSlotCount)
{
    CoreConfig cfg;
    cfg.num_slots = 3;
    EXPECT_EQ(cfg.frames(), 3);
    cfg.num_frames = 6;
    EXPECT_EQ(cfg.frames(), 6);
}
