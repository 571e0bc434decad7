/**
 * @file
 * Soundness oracle for the static concurrency verifier
 * (analysis/concurrency.hh): cross-tabulate lint verdicts against
 * actual bounded-run outcomes so the verifier's claims are tested,
 * not asserted.
 *
 * Two arms per run:
 *
 *  - clean arm: a freshly generated fuzz program (deadlock-free by
 *    construction) must lint clean AND finish a bounded
 *    reference run. Any diagnostic is a lint false positive; any
 *    hang is a generator bug. Both fail the cell.
 *  - injected arm: a program built from a known concurrency-bug
 *    class (queue wait-for cycle, rate-skewed ring, unsatisfiable
 *    spin wait) must be flagged with the class's diagnostic ID AND
 *    hang the same bounded run. A missed flag is a verifier
 *    soundness gap; a finished run means the injector is wrong.
 *
 * Every mismatch can be dumped as a repro .s file whose header
 * records the class, the expected and actual verdicts, and the
 * run outcome.
 */

#ifndef SMTSIM_FUZZ_LINTORACLE_HH
#define SMTSIM_FUZZ_LINTORACLE_HH

#include <cstdint>
#include <string>

namespace smtsim::fuzz
{

/** Injected concurrency-bug classes. */
enum class BugClass
{
    WaitCycle,      ///< nobody seeds the ring -> Q009
    RateStarve,     ///< consumers pop more than producers push -> Q011
    RateOverrun,    ///< producers push more than consumers pop -> Q012
    SpinNoStore     ///< spin wait nothing ever satisfies -> S001
};

const char *bugClassName(BugClass c);

/** Diagnostic ID the verifier must report for @p c. */
const char *bugClassDiagnostic(BugClass c);

/**
 * Render a program of class @p c, parameter-varied by @p seed
 * (trip counts, increments, seed values). Every rendered program
 * deadlocks or livelocks at any slot count >= 2.
 */
std::string renderBugProgram(BugClass c, std::uint64_t seed);

struct LintOracleOptions
{
    long long runs = 200;
    std::uint64_t seed = 1;
    /** Thread slots for both the lint projection and the bounded
     *  run. */
    int slots = 4;
    /** Write mismatch repro .s files here ("" = don't). */
    std::string repro_dir;
    bool quiet = false;
};

struct LintOracleStats
{
    long long clean_runs = 0;
    long long injected_runs = 0;
    /** Lint flagged a generated clean program: the CI failure the
     *  tentpole cares most about. */
    long long false_positives = 0;
    /** A generated clean program hung or trapped the bounded run. */
    long long clean_hangs = 0;
    /** An injected bug was not flagged with its diagnostic. */
    long long missed_bugs = 0;
    /** An injected program finished: the injector is not actually
     *  producing a bug. */
    long long phantom_bugs = 0;

    long long
    mismatches() const
    {
        return false_positives + clean_hangs + missed_bugs +
               phantom_bugs;
    }

    bool ok() const { return mismatches() == 0; }
};

/** Run the cell; deterministic for fixed options. */
LintOracleStats runLintOracle(const LintOracleOptions &opts);

} // namespace smtsim::fuzz

#endif // SMTSIM_FUZZ_LINTORACLE_HH
