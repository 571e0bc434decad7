/**
 * @file
 * PredecodedText must be a pure cache of Program::insnAt: the same
 * decoded instruction at every text address, the same fatal on
 * addresses outside (or misaligned within) the text segment.
 */

#include <gtest/gtest.h>

#include "asmr/assembler.hh"
#include "base/logging.hh"
#include "harness/runner.hh"
#include "trace/synth.hh"

using namespace smtsim;

namespace
{

std::vector<Program>
samplePrograms()
{
    std::vector<Program> progs;

    RayTraceParams rp;
    rp.width = 4;
    rp.height = 4;
    progs.push_back(makeRayTrace(rp).program);
    progs.push_back(makeLivermore1(Lk1Params{}).program);
    progs.push_back(makeListWalk(ListWalkParams{}).program);
    progs.push_back(makeMatmul(MatmulParams{}).program);
    progs.push_back(makeBsearch(BsearchParams{}).program);
    progs.push_back(makeRadiosity(RadiosityParams{}).program);
    progs.push_back(makeRecurrence(RecurrenceParams{}).program);

    SynthParams sp;
    sp.seed = 13;
    progs.push_back(makeSyntheticKernel(sp));

    progs.push_back(assemble("main: nop\n      halt\n"));
    return progs;
}

} // namespace

TEST(Predecode, MatchesInsnAtOnEveryTextAddress)
{
    for (const Program &prog : samplePrograms()) {
        const PredecodedText text(prog);
        ASSERT_EQ(text.size(), prog.text.size());
        for (Addr a = prog.text_base; a < prog.textEnd();
             a += kInsnBytes) {
            ASSERT_EQ(text.at(a), prog.insnAt(a))
                << "address " << a;
        }
    }
}

TEST(Predecode, RejectsAddressesOutsideText)
{
    const Program prog = assemble("main: nop\n      halt\n");
    const PredecodedText text(prog);
    EXPECT_THROW(text.at(prog.text_base - kInsnBytes), FatalError);
    EXPECT_THROW(text.at(prog.textEnd()), FatalError);
    EXPECT_THROW(text.at(prog.text_base + 1), FatalError);
    EXPECT_THROW(text.at(0), FatalError);
    EXPECT_THROW(text.at(~Addr{0}), FatalError);
}

TEST(Predecode, EnginesStillAgreeWithTheFunctionalOracle)
{
    // Smoke: the engines now fetch through PredecodedText; the
    // three-way harness checks must still pass.
    MatmulParams mp;
    mp.n = 4;
    const Workload w = makeMatmul(mp);
    const Outcome interp = runFunctional(w, 1);
    const Outcome baseline = runBaseline(w);
    CoreConfig cfg;
    cfg.num_slots = 2;
    const Outcome core = runCore(w, cfg);
    EXPECT_TRUE(interp.ok) << interp.error;
    EXPECT_TRUE(baseline.ok) << baseline.error;
    EXPECT_TRUE(core.ok) << core.error;
    EXPECT_EQ(baseline.stats.instructions,
              interp.stats.instructions);
}
