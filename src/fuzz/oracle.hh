/**
 * @file
 * Differential oracle: run one program through the functional
 * engine, the baseline pipeline and the multithreaded core across a
 * grid of configurations and diff the architectural outcomes.
 *
 * The reference for every comparison is the functional engine's
 * reference stepping (FastEngine::runReference) at the same
 * logical-processor count, because a fuzz program's final state is
 * only interleaving-independent *per thread count* (each thread owns
 * a private memory slice indexed by TID, and queue traffic wraps a
 * ring whose shape depends on S). The baseline engine executes the
 * thread-control instructions as no-ops, so it is compared against
 * the single-threaded reference and skipped entirely for
 * queue-register programs.
 */

#ifndef SMTSIM_FUZZ_ORACLE_HH
#define SMTSIM_FUZZ_ORACLE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asmr/program.hh"
#include "fuzz/generate.hh"
#include "machine/run_stats.hh"

namespace smtsim::fuzz
{

enum class Engine
{
    Interp,     ///< fastpath::FastEngine::runReference
    Baseline,
    Core,
    Fast        ///< fastpath::FastEngine::run (chunk loop on)
};

/** One cell of the oracle grid. */
struct RunConfig
{
    Engine engine = Engine::Core;
    /** Thread slots (core) / logical processors (interp). */
    int slots = 4;
    bool fast_forward = true;
    /** Finite i+d cache models on (timing-only; results identical). */
    bool cache = false;
    bool standby = true;
    int width = 1;
    bool explicit_rot = false;
    int interval = 8;
    /** Map the shared word table as remote memory (data-absence
     *  traps + concurrent-MT context switches). */
    bool remote = false;

    /** Human-readable cell name for reports and repro files. */
    std::string name() const;

    bool operator==(const RunConfig &other) const = default;
};

/** Architectural outcome of one engine run. */
struct EngineState
{
    /** Engine threw FatalError/PanicError. */
    bool trapped = false;
    std::string trap;
    /** Ran to completion within budget. */
    bool finished = false;
    /** Retired instructions. */
    std::uint64_t instructions = 0;
    /** Per-thread integer registers. */
    std::vector<std::array<std::uint32_t, kNumRegs>> iregs;
    /** Per-thread FP registers as bit patterns. */
    std::vector<std::array<std::uint64_t, kNumRegs>> fregs;
    /** Data-segment words. */
    std::vector<std::uint32_t> mem;
    /** Core cells only: the full statistics and every detail()
     *  counter, compared across a cell's fast-forward twins. */
    std::optional<RunStats> timing;
    std::map<std::string, std::uint64_t, std::less<>> detail;
};

/** Simulation budgets (generated programs stay far below these; the
 *  ceiling only matters when a real bug livelocks an engine). */
struct OracleBudget
{
    std::uint64_t interp_max_steps = 50'000'000;
    std::uint64_t max_cycles = 50'000'000;
};

/** Execute @p prog under one grid cell. Never throws: engine traps
 *  are captured in the returned state. */
EngineState runEngine(const Program &prog, const RunConfig &rc,
                      const OracleBudget &budget = {});

/**
 * Compare two outcomes; returns an empty string when they agree or
 * a one-line description of the first mismatch. When
 * @p mask_queue_regs is set the architectural values of the queue
 * pair registers (r20/r21, f8/f9) are ignored: while mapped, those
 * names address the FIFO, and the leftover architectural values are
 * not specified by the paper. When both outcomes carry core timing
 * (statistics and detail counters), those must match too.
 */
std::string diffStates(const EngineState &ref,
                       const EngineState &got,
                       bool mask_queue_regs);

/** (reference, candidate) grid for a program's feature set. */
std::vector<std::pair<RunConfig, RunConfig>>
buildGrid(const GenFeatures &features);

/** One detected disagreement. */
struct Divergence
{
    RunConfig ref;
    RunConfig cfg;
    std::string detail;
};

/**
 * Coarse divergence signature, used by the shrinker to keep a
 * candidate's failure on the *same* bug: delta debugging may
 * otherwise slip from, say, a register mismatch to an unrelated
 * budget-timeout divergence.
 */
enum class DivClass
{
    Trap,
    Finished,
    Instructions,
    State,      ///< registers or memory
    Timing      ///< core statistics or detail counters
};

DivClass classifyDivergence(const std::string &detail);

/** Run one (ref, cfg) pair; nullopt when the outcomes agree. */
std::optional<Divergence> checkPair(const Program &prog,
                                    const GenFeatures &features,
                                    const RunConfig &ref,
                                    const RunConfig &cfg,
                                    const OracleBudget &budget = {});

/**
 * Functional-first timing check: record the program's execution
 * trace with the fast engine, then run the detailed core once in
 * execute mode and once in verified replay mode and diff the full
 * statistics dumps — cycles, per-unit busy counters, everything.
 * A replay that diverges from the recording falls back to execute
 * mode (still compared, trivially equal); a *stats* mismatch means
 * replay changed timing and is reported as a divergence.
 */
std::optional<Divergence> checkReplayTiming(
    const Program &prog, const GenFeatures &features,
    const OracleBudget &budget = {});

/**
 * Many-core determinism check: run the program on a 2-core machine
 * (each core a full multithreaded processor, coupled through the
 * shared word table as interconnect-resolved remote memory) once on
 * the sequential reference schedule and once with two host threads,
 * and diff the complete machine statistics plus every core's
 * architectural state. Any difference means the parallel host
 * schedule leaked into simulated behavior — the invariant
 * docs/MANYCORE.md argues can't happen. Skipped for queue/priority
 * programs for the same slot-rebinding reason as the remote cell.
 */
std::optional<Divergence> checkManyCoreDeterminism(
    const Program &prog, const GenFeatures &features,
    const OracleBudget &budget = {});

/** Run the whole grid (plus the replay timing check); first
 *  divergence wins. Every fast_forward=false core cell is also
 *  compared with its fast_forward=true twin: same architectural
 *  outcome, statistics and detail counters, since fast-forward (and
 *  the sleeping slots it enables) must be cycle-exact. */
std::optional<Divergence> checkProgram(const Program &prog,
                                       const GenFeatures &features,
                                       const OracleBudget &budget = {});

} // namespace smtsim::fuzz

#endif // SMTSIM_FUZZ_ORACLE_HH
