#include <array>

#include <gtest/gtest.h>

#include "baseline/baseline.hh"
#include "core/processor.hh"
#include "trace/synth.hh"

using namespace smtsim;

TEST(SynthTest, DeterministicInSeed)
{
    SynthParams p;
    p.seed = 42;
    const Program a = makeSyntheticKernel(p);
    const Program b = makeSyntheticKernel(p);
    EXPECT_EQ(a.text, b.text);

    p.seed = 43;
    const Program c = makeSyntheticKernel(p);
    EXPECT_NE(a.text, c.text);
}

TEST(SynthTest, MixWeightsSteerGeneration)
{
    SynthParams fp_heavy;
    fp_heavy.seed = 5;
    fp_heavy.parallel = false;
    fp_heavy.w_int_alu = 0.05;
    fp_heavy.w_load = 0.05;
    fp_heavy.w_store = 0.05;
    fp_heavy.w_fp_add = 0.5;
    fp_heavy.w_fp_mul = 0.35;
    const Program prog = makeSyntheticKernel(fp_heavy);

    // The generated loop body dominates the text, so its static mix
    // follows the weights.
    std::array<int, kNumFuClasses> by_class{};
    for (std::uint32_t word : prog.text)
        ++by_class[static_cast<int>(decode(word).fu())];
    const auto count = [&](FuClass c) {
        return by_class[static_cast<int>(c)];
    };
    EXPECT_GT(count(FuClass::FpAdd) + count(FuClass::FpMul),
              count(FuClass::IntAlu));
}

TEST(SynthTest, RunsOnAllEngines)
{
    SynthParams p;
    p.seed = 6;
    p.iterations = 8;
    p.parallel = true;
    const Program prog = makeSyntheticKernel(p);

    MainMemory bm;
    prog.loadInto(bm);
    BaselineProcessor base(prog, bm);
    EXPECT_TRUE(base.run().finished);

    MainMemory cm;
    prog.loadInto(cm);
    CoreConfig cfg;
    cfg.num_slots = 4;
    MultithreadedProcessor core(prog, cm, cfg);
    EXPECT_TRUE(core.run().finished);
}
