/**
 * @file
 * Declarative experiment descriptions for `smtsim::lab`.
 *
 * The paper's whole evaluation is grid sweeps — thread slots x
 * context frames x load/store units x standby on/off x rotation
 * intervals, per workload. An ExperimentSpec describes such a grid;
 * expand() turns it into a flat vector of Jobs, the unit the
 * executor (executor.hh) runs in parallel and the result cache
 * (cache.hh) keys.
 *
 * Every Job has a *canonical serialization*: a stable text rendering
 * of engine + full configuration + workload identity. The cache key
 * is the FNV-1a hash of that text plus kCacheSchemaVersion, so any
 * config field change — and any deliberate format bump — moves the
 * job to a different cache address.
 */

#ifndef SMTSIM_LAB_SPEC_HH
#define SMTSIM_LAB_SPEC_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "baseline/baseline.hh"
#include "core/config.hh"
#include "interconnect/interconnect.hh"
#include "workloads/workloads.hh"

namespace smtsim::lab
{

/**
 * Version of the cache record format *and* of anything that changes
 * simulated results without changing the config (pipeline model
 * fixes, workload generator changes). Bump it to invalidate every
 * cached result.
 */
constexpr int kCacheSchemaVersion = 1;

/**
 * Workload identity as data: a factory kind plus its parameters.
 * Unlike the Workload struct (which holds closures), a WorkloadSpec
 * is comparable, hashable and serializable — it *is* the workload's
 * cache identity.
 */
struct WorkloadSpec
{
    /** Factory name: raytrace, livermore1, matmul, bsearch,
     *  stencil, radiosity, recurrence, listwalk, tokenring. */
    std::string kind;
    /** Factory parameters; keys sorted by std::map => canonical. */
    std::map<std::string, std::int64_t> params;

    // Builders mirroring the factories in workloads.hh (defaults
    // identical to the corresponding params structs).
    static WorkloadSpec rayTrace(int width = 16, int height = 16,
                                 int spheres = 5,
                                 std::uint64_t seed = 42,
                                 bool shadows = true);
    static WorkloadSpec livermore1(int n = 200,
                                   bool parallel = false);
    static WorkloadSpec matmul(int n = 12);
    static WorkloadSpec bsearch(int table_size = 256,
                                int queries_per_thread = 48,
                                std::uint64_t seed = 5);
    static WorkloadSpec stencil(int width = 16, int height = 12,
                                int sweeps = 2);
    static WorkloadSpec radiosity(int num_patches = 24,
                                  std::uint64_t seed = 9);
    static WorkloadSpec recurrence(int n = 128,
                                   RecurrenceVariant variant =
                                       RecurrenceVariant::Sequential);
    static WorkloadSpec listWalk(int num_nodes = 64,
                                 int break_at = -1,
                                 bool eager = false,
                                 std::uint64_t seed = 7);
    static WorkloadSpec tokenRing(int rounds = 32, int bug = 0);

    /**
     * Parse "kind" or "kind:key=value,key=value" (e.g.
     * "raytrace:width=24,height=24"). Unknown kinds or keys throw
     * std::invalid_argument; values use strict integer parsing.
     */
    static WorkloadSpec fromString(const std::string &text);

    /** Stable text identity, e.g. "raytrace{height=24,width=24}". */
    std::string canonical() const;

    bool operator==(const WorkloadSpec &o) const = default;
};

/**
 * Instantiate the runnable Workload a spec describes.
 * @throws std::invalid_argument on an unknown kind or parameter.
 */
Workload instantiate(const WorkloadSpec &spec);

/** Which engine executes a job. */
enum class EngineKind { Core, Baseline, Machine };

const char *engineName(EngineKind kind);

/**
 * Machine-engine tuning riding on a Job (engine == Machine): core
 * count, interconnect and quantum for the many-core machine; the
 * Job's CoreConfig describes each of its (identical) cores.
 */
struct MachineTuning
{
    /** Simulated cores. */
    int cores = 2;
    /**
     * Overlay the core RemoteRegion onto the workload program's
     * data segment at execution time (base/size come from the
     * instantiated program, so the overlay is part of the job's
     * identity via the workload spec + this flag).
     */
    bool remote_data = true;
    InterconnectConfig noc;
    /** Barrier quantum; 0 = auto (ManyCoreMachine resolves it). */
    Cycle quantum = 0;

    /** Field list (base/fields.hh) of the lab's config JSON; the
     *  interconnect members sit flat beside the machine's own. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &s)
    {
        ar("cores", s.cores);
        ar("remote_data", s.remote_data);
        ar("l2_banks", s.noc.l2_banks);
        ar("bank_interleave", s.noc.bank_interleave);
        ar("mshrs_per_bank", s.noc.mshrs_per_bank);
        ar("l2_access_cycles", s.noc.l2_access_cycles);
        ar("bank_conflict_penalty", s.noc.bank_conflict_penalty);
        ar("hop_latency", s.noc.hop_latency);
        ar("quantum", s.quantum);
    }
};

/** One simulation point: engine + configuration + workload. */
struct Job
{
    /** Display/lookup label; unique within one sweep. */
    std::string id;
    EngineKind engine = EngineKind::Core;
    WorkloadSpec workload;
    CoreConfig core;            ///< used when engine is Core/Machine
    BaselineConfig baseline;    ///< used when engine == Baseline
    MachineTuning machine;      ///< used when engine == Machine

    /**
     * Canonical serialization of everything that determines the
     * result (engine + active config + workload identity + schema
     * version). The id is deliberately excluded: renaming a point
     * must not invalidate its cached result.
     */
    std::string canonical() const;

    /** Content address: 16 hex digits of FNV-1a(canonical()). */
    std::string cacheKey() const;
};

/** Convenience constructors. */
Job coreJob(std::string id, WorkloadSpec workload,
            const CoreConfig &cfg);
Job baselineJob(std::string id, WorkloadSpec workload,
                const BaselineConfig &cfg = {});
Job machineJob(std::string id, WorkloadSpec workload,
               const CoreConfig &core,
               const MachineTuning &tuning = {});

/** Canonical config renderings (exposed for tests/debugging). */
std::string canonicalConfig(const CoreConfig &cfg);
std::string canonicalConfig(const BaselineConfig &cfg);
std::string canonicalConfig(const MachineTuning &tuning);

/**
 * A declarative grid sweep: the cross product of the axis vectors,
 * per workload, on the core engine — optionally with one sequential
 * baseline point per workload as the speed-up denominator.
 */
struct ExperimentSpec
{
    std::string name = "sweep";
    std::vector<WorkloadSpec> workloads;

    // Grid axes (cross product). Non-swept CoreConfig fields come
    // from core_template.
    std::vector<int> slots{4};
    std::vector<int> frames{-1};
    std::vector<int> lsu{1};
    std::vector<int> widths{1};
    std::vector<bool> standby{true};
    std::vector<int> rotation_intervals{8};
    /**
     * Machine-size axis. The default {1} keeps the sweep on the
     * single-core engine with its historical ids and cache keys;
     * any other value set turns every grid cell into a many-core
     * machine job ("/cN" id suffix) built from machine_template,
     * including N = 1 (a 1-core machine times remote traffic
     * through the interconnect, unlike the bare core).
     */
    std::vector<int> cores{1};

    CoreConfig core_template;
    /** Interconnect/quantum template for machine jobs (its `cores`
     *  field is overridden by the axis). */
    MachineTuning machine_template;
    /** Add runBaseline point(s) ("<workload>/baseline"). */
    bool include_baseline = false;
    BaselineConfig baseline_template;

    /** Most jobs one spec may expand to (a spec is outside input,
     *  e.g. from a smtsim-serve client). */
    static constexpr std::size_t kMaxJobs = std::size_t{1} << 16;

    /**
     * Flatten the grid into jobs, ids like
     * "raytrace/s4/f4/ls2/w1/sb/r8" (axes with one value are still
     * spelled out — ids stay stable when an axis grows). Machine
     * sweeps (cores axis != {1}) append "/cN".
     * @throws std::invalid_argument on an empty axis, duplicate
     * points, or a grid of more than kMaxJobs jobs — checked from
     * the axis sizes before any job is built.
     */
    std::vector<Job> expand() const;
};

/** Parse the value of command-line flag @p flag, an integer list
 *  ("1,2,4") of ints >= @p min_value; std::invalid_argument naming
 *  the flag otherwise. */
std::vector<int> parseIntList(const std::string &flag,
                              const std::string &text, int min_value);

/**
 * The grid flags of smtsim-sweep and smtsim-client: set the
 * ExperimentSpec member @p flag names from @p value (--workload
 * appends; --slots, --frames, --lsu, --width, --interval take
 * lists; --standby on|off|both). Returns false when @p flag is not
 * one; throws std::invalid_argument naming it on a bad value.
 */
bool setGridFlag(ExperimentSpec &spec, const std::string &flag,
                 const std::string &value);

} // namespace smtsim::lab

#endif // SMTSIM_LAB_SPEC_HH
