/**
 * @file
 * Parallel experiment executor.
 *
 * Jobs are independent, single-threaded, deterministic simulations
 * (tests/test_lab.cc enforces the determinism), so a sweep is
 * embarrassingly parallel: N worker threads pull job indices from
 * one atomic counter (work stealing degenerates to self-scheduling
 * because jobs never spawn jobs) and write results into
 * pre-allocated slots — the ResultSet is always in job order, no
 * matter the interleaving.
 *
 * Failure isolation: a job that throws, exceeds its cycle budget,
 * fails verification or overruns the wall-clock timeout produces a
 * failed JobResult for that point; the sweep itself always
 * completes.
 */

#ifndef SMTSIM_LAB_EXECUTOR_HH
#define SMTSIM_LAB_EXECUTOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lab/result.hh"
#include "lab/spec.hh"

namespace smtsim::lab
{

/** Snapshot passed to the progress callback after every job. */
struct Progress
{
    std::size_t done = 0;
    std::size_t total = 0;
    std::size_t cache_hits = 0;
    std::size_t failures = 0;
    /** Wall seconds since the sweep started. */
    double elapsed_seconds = 0.0;
    /**
     * Remaining-time estimate from the mean pace so far
     * (cache hits count as work done); < 0 while unknown.
     */
    double eta_seconds = -1.0;
    /** The job that just finished. */
    const JobResult *last = nullptr;
};

/**
 * Called after each job completes, serialized under a mutex (it may
 * write to a terminal or aggregate freely) — keep it cheap, every
 * worker queues behind it.
 */
using ProgressFn = std::function<void(const Progress &)>;

/** Execution policy for one sweep. */
struct LabOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int num_threads = 0;
    /** Cache directory; empty string disables caching. */
    std::string cache_dir;
    /**
     * Cache size budget in bytes (0 = unbounded). When set, the
     * cache evicts least-recently-used records (cache.hh).
     */
    std::uint64_t cache_max_bytes = 0;
    /**
     * Per-job wall-clock budget in host seconds (0 = none). The
     * simulators cannot be preempted, so enforcement is at the
     * cycle-budget granularity: an overrunning job is *marked*
     * failed ("timeout") when it returns. Pair with max_cycles to
     * bound how long "when it returns" can be.
     */
    double timeout_seconds = 0.0;
    /**
     * Cycle-budget override applied to every job (0 = keep each
     * job's own). Applied before cache keying, so a clamped sweep
     * caches under different addresses than an unclamped one.
     */
    std::uint64_t max_cycles = 0;
    /**
     * Host threads per machine-engine job (0 = the sequential
     * reference schedule). Pure execution policy: the parallel
     * schedule is bit-identical to the sequential one (enforced by
     * test_manycore and the manycore-determinism CI job), so this
     * deliberately does not enter job identity or cache keys.
     */
    int machine_host_threads = 0;
    ProgressFn progress;
};

/**
 * Simulate one job in the calling thread, no cache involvement:
 * instantiate the workload, run the selected engine, verify
 * outputs. Exceptions become a failed JobResult; when
 * @p timeout_seconds > 0 an overrunning job is marked failed
 * ("timeout") on return. Shared by the sweep executor and the
 * service's worker processes (serve/worker.hh).
 * @p machine_host_threads applies to machine-engine jobs only
 * (LabOptions::machine_host_threads semantics).
 */
JobResult simulateJob(const Job &job, double timeout_seconds = 0.0,
                      int machine_host_threads = 0);

/** Apply a sweep-wide cycle budget (LabOptions::max_cycles; 0 =
 *  keep each job's own) to @p jobs, as runJobs() does before cache
 *  keying. */
void clampCycles(std::vector<Job> &jobs, std::uint64_t max_cycles);

/** Run a pre-expanded job list (ExperimentSpec::expand()). */
ResultSet runJobs(const std::vector<Job> &jobs,
                  const LabOptions &opts = {});

/**
 * Progress printer for interactive use: one \r-rewritten status
 * line on stderr ("[12/33] 4 cached, 0 failed, 3.1s, eta 5.2s").
 */
ProgressFn stderrProgress();

} // namespace smtsim::lab

#endif // SMTSIM_LAB_EXECUTOR_HH
