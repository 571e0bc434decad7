/**
 * @file
 * Convenience harness used by the tests, the examples and the
 * benchmark binaries: load a Workload, run it on one of the
 * engines, verify its outputs.
 */

#ifndef SMTSIM_HARNESS_RUNNER_HH
#define SMTSIM_HARNESS_RUNNER_HH

#include <string>

#include "baseline/baseline.hh"
#include "core/config.hh"
#include "machine/manycore.hh"
#include "machine/run_stats.hh"
#include "workloads/workloads.hh"

namespace smtsim
{

/** Result of one run: timing stats + output verification. */
struct Outcome
{
    RunStats stats;
    bool ok = false;        ///< finished and outputs verified
    std::string error;      ///< first failure description
};

/** Run on the multithreaded core. */
Outcome runCore(const Workload &workload, const CoreConfig &cfg);

/** Result of one many-core machine run. */
struct MachineOutcome
{
    MachineStats stats;
    bool ok = false;        ///< finished and every core verified
    std::string error;      ///< first failure description
};

/**
 * Run on the N-core machine (SPMD: every core executes the
 * workload against its own private memory, coupled through the
 * shared L2 model). host_threads = 0 is the sequential reference
 * schedule; any value produces bit-identical results.
 */
MachineOutcome runMachine(const Workload &workload,
                          const MachineConfig &cfg,
                          int host_threads = 0);

/** Run on the baseline RISC processor. */
Outcome runBaseline(const Workload &workload,
                    const BaselineConfig &cfg = {});

/**
 * Run on the functional engine (fastpath::FastEngine) with
 * @p num_threads logical processors (stats.instructions = executed
 * instructions; cycle fields are zero).
 */
Outcome runFunctional(const Workload &workload, int num_threads = 1);

/**
 * The paper's speed-up ratio: sequential-baseline cycles over
 * multithreaded cycles.
 */
double speedup(const RunStats &baseline, const RunStats &core);

} // namespace smtsim

#endif // SMTSIM_HARNESS_RUNNER_HH
