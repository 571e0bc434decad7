/**
 * @file
 * Statistics produced by one simulation run, shared by both pipeline
 * models and consumed by the benchmark harness.
 */

#ifndef SMTSIM_MACHINE_RUN_STATS_HH
#define SMTSIM_MACHINE_RUN_STATS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "isa/op.hh"

namespace smtsim
{

/** Aggregate results of one run. */
struct RunStats
{
    /** Total execution cycles (T in the paper's utilization). */
    Cycle cycles = 0;
    /** Dynamically executed (committed) instructions. */
    std::uint64_t instructions = 0;
    /** True if the program ran to completion within the budget. */
    bool finished = false;

    /** Per-class invocation count (N). */
    std::array<std::uint64_t, kNumFuClasses> fu_grants{};
    /** Per-class sum of issue latencies (N*L aggregated). */
    std::array<std::uint64_t, kNumFuClasses> fu_busy{};
    /** Per-class, per-unit busy cycles, for "busiest unit". */
    std::array<std::vector<std::uint64_t>, kNumFuClasses>
        unit_busy{};

    std::uint64_t branches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    /** Issue stalls caused by full standby stations (core only). */
    std::uint64_t standby_stalls = 0;
    /** Context switches taken (concurrent multithreading). */
    std::uint64_t context_switches = 0;
    /** Same-cycle register-bank write-port conflicts (stat only). */
    std::uint64_t writeback_conflicts = 0;

    /** Finite-cache counters (zero with perfect caches). */
    std::uint64_t dcache_hits = 0;
    std::uint64_t dcache_misses = 0;
    std::uint64_t icache_hits = 0;
    std::uint64_t icache_misses = 0;

    /** Utilization (percent) of the busiest single unit. */
    double busiestUnitUtilization() const;
    /** Utilization (percent) of the busiest unit of @p cls. */
    double unitUtilization(FuClass cls, int unit) const;

    bool operator==(const RunStats &) const = default;

    /** Field list (base/fields.hh): the RunStats JSON of
     *  `smtsim-run --json` and the lab cache, and the statistics
     *  block of SMTCKPT1 checkpoints. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &s)
    {
        ar("cycles", s.cycles);
        ar("instructions", s.instructions);
        ar("finished", s.finished);
        ar("fu_grants", s.fu_grants);
        ar("fu_busy", s.fu_busy);
        ar("unit_busy", s.unit_busy);
        ar("branches", s.branches);
        ar("loads", s.loads);
        ar("stores", s.stores);
        ar("standby_stalls", s.standby_stalls);
        ar("context_switches", s.context_switches);
        ar("writeback_conflicts", s.writeback_conflicts);
        ar("dcache_hits", s.dcache_hits);
        ar("dcache_misses", s.dcache_misses);
        ar("icache_hits", s.icache_hits);
        ar("icache_misses", s.icache_misses);
    }
};

} // namespace smtsim

#endif // SMTSIM_MACHINE_RUN_STATS_HH
