/**
 * @file
 * smtsim::fuzz self-tests: generator determinism and invariants, a
 * small differential sweep, the unit-tree shrinker, repro file
 * round-trips, the Program -> assembly serializer, and replay of the
 * checked-in regression corpus (FUZZ_CORPUS_DIR).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asmr/assembler.hh"
#include "asmr/disasm.hh"
#include "analysis/lint.hh"
#include "fuzz/generate.hh"
#include "fuzz/lintoracle.hh"
#include "fuzz/oracle.hh"
#include "fuzz/repro.hh"
#include "fuzz/shrink.hh"

using namespace smtsim;
using namespace smtsim::fuzz;

namespace
{

/** Small budgets: generated programs finish in well under this. */
OracleBudget
testBudget()
{
    OracleBudget b;
    b.interp_max_steps = 2'000'000;
    b.max_cycles = 2'000'000;
    return b;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

} // namespace

TEST(FuzzGenerate, SameSeedSameBytes)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        GenOptions opts;
        opts.seed = seed;
        const GenProgram a = generate(opts);
        const GenProgram b = generate(opts);
        EXPECT_EQ(a.render(), b.render());
        EXPECT_EQ(a.countInsns(), b.countInsns());
    }
}

TEST(FuzzGenerate, DistinctSeedsDistinctPrograms)
{
    GenOptions a, b;
    a.seed = 7;
    b.seed = 8;
    EXPECT_NE(generate(a).render(), generate(b).render());
}

TEST(FuzzGenerate, SeedsAssembleAndTerminate)
{
    // Every generated program must assemble and run to completion
    // on the reference interpreter at 1 and kMaxFuzzSlots threads.
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        GenOptions opts;
        opts.seed = seed * 0x2545f4914f6cdd1dull + 11;
        const GenProgram prog = generate(opts);
        const Program image = assemble(prog.render());
        for (int slots : {1, kMaxFuzzSlots}) {
            RunConfig rc;
            rc.engine = Engine::Interp;
            rc.slots = slots;
            const EngineState st =
                runEngine(image, rc, testBudget());
            EXPECT_FALSE(st.trapped)
                << "seed " << opts.seed << " slots " << slots
                << ": " << st.trap;
            EXPECT_TRUE(st.finished)
                << "seed " << opts.seed << " slots " << slots;
        }
    }
}

TEST(FuzzOracle, SmallDifferentialSweepIsClean)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        GenOptions opts;
        opts.seed = seed * 0x9e3779b97f4a7c15ull + 3;
        const GenProgram prog = generate(opts);
        const Program image = assemble(prog.render());
        const auto div =
            checkProgram(image, prog.features, testBudget());
        EXPECT_FALSE(div.has_value())
            << "seed " << opts.seed << ": " << div->cfg.name()
            << " vs " << div->ref.name() << ": " << div->detail;
    }
}

TEST(FuzzOracle, CoreTimingMismatchIsADivergence)
{
    GenOptions opts;
    opts.seed = 11;
    const GenProgram prog = generate(opts);
    const Program image = assemble(prog.render());
    RunConfig fast;
    fast.engine = Engine::Core;
    fast.slots = 2;
    RunConfig naive = fast;
    naive.fast_forward = false;
    const EngineState a = runEngine(image, fast, testBudget());
    EngineState b = runEngine(image, naive, testBudget());
    ASSERT_TRUE(a.timing.has_value());
    ASSERT_FALSE(a.detail.empty());
    // Fast-forward twins agree on statistics and every counter.
    EXPECT_EQ(diffStates(a, b, prog.features.usesQueues()), "");

    // One stall counter off is enough to diverge, and is classified
    // as timing so shrinking keeps to it.
    ++b.detail.begin()->second;
    const std::string diff = diffStates(a, b, prog.features.usesQueues());
    EXPECT_EQ(diff.rfind("timing mismatch", 0), 0u) << diff;
    EXPECT_EQ(classifyDivergence(diff), DivClass::Timing);
    --b.detail.begin()->second;
    ++b.timing->cycles;
    EXPECT_EQ(classifyDivergence(
                  diffStates(a, b, prog.features.usesQueues())),
              DivClass::Timing);

    // Engines without timing (the interpreter) compare architecture
    // only.
    RunConfig interp;
    interp.engine = Engine::Interp;
    interp.slots = 2;
    const EngineState ref = runEngine(image, interp, testBudget());
    EXPECT_FALSE(ref.timing.has_value());
    EXPECT_EQ(diffStates(ref, b, prog.features.usesQueues()), "");
}

TEST(FuzzOracle, GridRespectsFeatureExclusions)
{
    GenFeatures queues;
    queues.int_queues = true;
    for (const auto &[ref, cfg] : buildGrid(queues)) {
        EXPECT_NE(cfg.engine, Engine::Baseline)
            << "baseline must be skipped for queue programs";
        EXPECT_FALSE(cfg.remote)
            << "remote rebinding breaks the slot-indexed ring";
    }

    GenFeatures plain;
    bool saw_baseline = false, saw_remote = false;
    for (const auto &[ref, cfg] : buildGrid(plain)) {
        saw_baseline |= cfg.engine == Engine::Baseline;
        saw_remote |= cfg.remote;
    }
    EXPECT_TRUE(saw_baseline);
    EXPECT_TRUE(saw_remote);
}

TEST(LintOracle, SmallCellHasNoMismatches)
{
    LintOracleOptions opts;
    opts.runs = 12;
    opts.seed = 7;
    opts.quiet = true;
    const LintOracleStats stats = runLintOracle(opts);
    EXPECT_EQ(stats.clean_runs, 12);
    EXPECT_EQ(stats.injected_runs, 12);
    EXPECT_TRUE(stats.ok())
        << stats.false_positives << " fp, " << stats.clean_hangs
        << " hang, " << stats.missed_bugs << " miss, "
        << stats.phantom_bugs << " phantom";
}

TEST(LintOracle, EveryBugClassIsFlaggedAndHangs)
{
    for (const BugClass c :
         {BugClass::WaitCycle, BugClass::RateStarve,
          BugClass::RateOverrun, BugClass::SpinNoStore}) {
        for (std::uint64_t seed : {1ull, 9ull, 23ull}) {
            const Program p =
                assemble(renderBugProgram(c, seed));
            const analysis::LintReport lr = analysis::lint(p);
            bool flagged = false;
            for (const analysis::Diagnostic &d : lr.diags) {
                flagged = flagged ||
                          std::string(d.id) == bugClassDiagnostic(c);
            }
            EXPECT_TRUE(flagged)
                << bugClassName(c) << " seed " << seed
                << " not flagged as " << bugClassDiagnostic(c)
                << ":\n"
                << analysis::formatText(lr, "<bug>");

            RunConfig rc;
            rc.engine = Engine::Interp;
            rc.slots = 4;
            OracleBudget budget;
            budget.interp_max_steps = 200'000;
            budget.max_cycles = 200'000;
            const EngineState st = runEngine(p, rc, budget);
            EXPECT_FALSE(st.finished)
                << bugClassName(c) << " seed " << seed
                << " finished: the injected bug is not a bug";
        }
    }
}

TEST(LintOracle, RenderingIsDeterministic)
{
    for (const BugClass c :
         {BugClass::WaitCycle, BugClass::RateStarve,
          BugClass::RateOverrun, BugClass::SpinNoStore}) {
        EXPECT_EQ(renderBugProgram(c, 42),
                  renderBugProgram(c, 42));
    }
}

TEST(FuzzShrink, MinimizesWhilePreservingPredicate)
{
    GenOptions opts;
    opts.seed = 12345;
    opts.allow_queues = false;
    const GenProgram prog = generate(opts);
    ASSERT_NE(prog.render().find("sll r7, r5, 8"),
              std::string::npos);

    // Semantic predicate exercising the tree edits: "program still
    // contains the tid-scaling shift". Assembles every candidate so
    // malformed output would surface as a throw (= not failing).
    const FailFn fails = [](const GenProgram &cand) {
        const std::string text = cand.render();
        assemble(text);
        return text.find("sll r7, r5, 8") != std::string::npos;
    };

    ShrinkStats stats;
    const GenProgram small = shrink(prog, fails, &stats);
    EXPECT_TRUE(fails(small));
    EXPECT_LE(small.countInsns(), prog.countInsns());
    EXPECT_GT(stats.attempts, 0);
    // Everything but the init units should shrink away.
    EXPECT_LE(small.countInsns(), 16)
        << "shrinker left:\n"
        << small.render();
}

TEST(FuzzRepro, RunConfigRoundTrip)
{
    RunConfig rc;
    rc.engine = Engine::Core;
    rc.slots = 8;
    rc.fast_forward = false;
    rc.cache = true;
    rc.standby = false;
    rc.width = 2;
    rc.explicit_rot = true;
    rc.interval = 16;
    rc.remote = true;
    const RunConfig back = parseRunConfig(formatRunConfig(rc));
    EXPECT_EQ(formatRunConfig(back), formatRunConfig(rc));
    EXPECT_EQ(back.name(), rc.name());
}

TEST(FuzzRepro, FormatParseReplayRoundTrip)
{
    GenOptions opts;
    opts.seed = 99;
    const GenProgram prog = generate(opts);

    Divergence div;
    div.ref.engine = Engine::Interp;
    div.ref.slots = 4;
    div.cfg.engine = Engine::Core;
    div.cfg.slots = 4;
    div.cfg.cache = true;
    div.detail = "synthetic";

    const std::string text = formatRepro(prog, div);
    const Repro repro = parseRepro(text);
    EXPECT_EQ(repro.ref.name(), div.ref.name());
    EXPECT_EQ(repro.cfg.name(), div.cfg.name());
    EXPECT_EQ(repro.mask_queue_regs, prog.features.usesQueues());

    // The engines agree on this program, so the replay is clean.
    EXPECT_EQ(replayRepro(repro, testBudget()), "");
}

TEST(FuzzCorpus, CheckedInReprosStayFixed)
{
    const std::filesystem::path dir = FUZZ_CORPUS_DIR;
    ASSERT_TRUE(std::filesystem::is_directory(dir));
    int count = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".s")
            continue;
        ++count;
        const Repro repro = parseRepro(slurp(entry.path()));
        EXPECT_EQ(replayRepro(repro, testBudget()), "")
            << entry.path() << " diverges again (regression)";
    }
    EXPECT_GE(count, 3) << "regression corpus went missing";
}

TEST(Disasm, GeneratedProgramsRoundTrip)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        GenOptions opts;
        opts.seed = seed * 1099511628211ull + 5;
        const Program a = assemble(generate(opts).render());
        const Program b = assemble(programToAsm(a));
        EXPECT_EQ(a.text, b.text) << "seed " << opts.seed;
        EXPECT_EQ(a.data, b.data) << "seed " << opts.seed;
        EXPECT_EQ(a.entry, b.entry) << "seed " << opts.seed;
        EXPECT_EQ(a.text_base, b.text_base);
        EXPECT_EQ(a.data_base, b.data_base);
    }
}

TEST(Disasm, SynthesizesLabelsForBranchTargets)
{
    const Program prog = assemble(R"(
        .text
main:   addi r8, r0, 3
loop:   addi r8, r8, -1
        bgtz r8, loop
        beq r0, r0, done
        addi r9, r0, 1
done:   halt
        .data
v:      .word 1, 2, 3
)");
    const std::string text = programToAsm(prog);
    const Program back = assemble(text);
    EXPECT_EQ(prog.text, back.text);
    EXPECT_EQ(prog.data, back.data);
    EXPECT_EQ(prog.entry, back.entry);
}
