#include "spec.hh"

#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "base/hash.hh"
#include "base/strutil.hh"

namespace smtsim::lab
{

// ----------------------------------------------------------------
// WorkloadSpec
// ----------------------------------------------------------------

namespace
{

WorkloadSpec
makeSpec(std::string kind,
         std::initializer_list<
             std::pair<const char *, std::int64_t>> params)
{
    WorkloadSpec spec;
    spec.kind = std::move(kind);
    for (const auto &kv : params)
        spec.params[kv.first] = kv.second;
    return spec;
}

std::int64_t
param(const WorkloadSpec &spec, const std::string &key,
      std::int64_t fallback)
{
    const auto it = spec.params.find(key);
    return it == spec.params.end() ? fallback : it->second;
}

/** Reject parameter keys the factory would silently ignore. */
void
checkKeys(const WorkloadSpec &spec,
          std::initializer_list<const char *> known)
{
    for (const auto &kv : spec.params) {
        bool ok = false;
        for (const char *k : known)
            ok = ok || kv.first == k;
        if (!ok)
            throw std::invalid_argument(
                "workload " + spec.kind +
                ": unknown parameter \"" + kv.first + "\"");
    }
}

} // namespace

WorkloadSpec
WorkloadSpec::rayTrace(int width, int height, int spheres,
                       std::uint64_t seed, bool shadows)
{
    return makeSpec("raytrace",
                    {{"width", width},
                     {"height", height},
                     {"spheres", spheres},
                     {"seed", static_cast<std::int64_t>(seed)},
                     {"shadows", shadows ? 1 : 0}});
}

WorkloadSpec
WorkloadSpec::livermore1(int n, bool parallel)
{
    return makeSpec("livermore1",
                    {{"n", n}, {"parallel", parallel ? 1 : 0}});
}

WorkloadSpec
WorkloadSpec::matmul(int n)
{
    return makeSpec("matmul", {{"n", n}});
}

WorkloadSpec
WorkloadSpec::bsearch(int table_size, int queries_per_thread,
                      std::uint64_t seed)
{
    return makeSpec("bsearch",
                    {{"table_size", table_size},
                     {"queries_per_thread", queries_per_thread},
                     {"seed", static_cast<std::int64_t>(seed)}});
}

WorkloadSpec
WorkloadSpec::stencil(int width, int height, int sweeps)
{
    return makeSpec("stencil", {{"width", width},
                                {"height", height},
                                {"sweeps", sweeps}});
}

WorkloadSpec
WorkloadSpec::radiosity(int num_patches, std::uint64_t seed)
{
    return makeSpec("radiosity",
                    {{"patches", num_patches},
                     {"seed", static_cast<std::int64_t>(seed)}});
}

WorkloadSpec
WorkloadSpec::recurrence(int n, RecurrenceVariant variant)
{
    return makeSpec("recurrence",
                    {{"n", n},
                     {"variant", static_cast<std::int64_t>(variant)}});
}

WorkloadSpec
WorkloadSpec::listWalk(int num_nodes, int break_at, bool eager,
                       std::uint64_t seed)
{
    return makeSpec("listwalk",
                    {{"nodes", num_nodes},
                     {"break_at", break_at},
                     {"eager", eager ? 1 : 0},
                     {"seed", static_cast<std::int64_t>(seed)}});
}

WorkloadSpec
WorkloadSpec::tokenRing(int rounds, int bug)
{
    return makeSpec("tokenring", {{"rounds", rounds}, {"bug", bug}});
}

WorkloadSpec
WorkloadSpec::fromString(const std::string &text)
{
    const auto colon = text.find(':');
    const std::string kind = trim(text.substr(0, colon));

    // Start from the kind's defaults so partial overrides work.
    WorkloadSpec spec;
    if (kind == "raytrace")
        spec = rayTrace();
    else if (kind == "livermore1")
        spec = livermore1();
    else if (kind == "matmul")
        spec = matmul();
    else if (kind == "bsearch")
        spec = bsearch();
    else if (kind == "stencil")
        spec = stencil();
    else if (kind == "radiosity")
        spec = radiosity();
    else if (kind == "recurrence")
        spec = recurrence();
    else if (kind == "listwalk")
        spec = listWalk();
    else if (kind == "tokenring")
        spec = tokenRing();
    else
        throw std::invalid_argument("unknown workload kind \"" +
                                    kind + "\"");

    if (colon == std::string::npos)
        return spec;
    for (const std::string &item :
         split(text.substr(colon + 1), ',')) {
        if (trim(item).empty())
            continue;
        const auto eq = item.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument(
                "workload parameter \"" + item +
                "\" is not key=value");
        const std::string key = trim(item.substr(0, eq));
        long long value = 0;
        if (!parseInt(item.substr(eq + 1), &value))
            throw std::invalid_argument(
                "workload parameter \"" + key +
                "\" has non-integer value \"" +
                trim(item.substr(eq + 1)) + "\"");
        if (!spec.params.count(key))
            throw std::invalid_argument(
                "workload " + kind + ": unknown parameter \"" +
                key + "\"");
        spec.params[key] = value;
    }
    return spec;
}

std::string
WorkloadSpec::canonical() const
{
    std::ostringstream oss;
    oss << kind << '{';
    bool first = true;
    for (const auto &kv : params) {
        if (!first)
            oss << ',';
        first = false;
        oss << kv.first << '=' << kv.second;
    }
    oss << '}';
    return oss.str();
}

Workload
instantiate(const WorkloadSpec &spec)
{
    if (spec.kind == "raytrace") {
        checkKeys(spec,
                  {"width", "height", "spheres", "seed", "shadows"});
        RayTraceParams p;
        p.width = static_cast<int>(param(spec, "width", p.width));
        p.height = static_cast<int>(param(spec, "height", p.height));
        p.num_spheres =
            static_cast<int>(param(spec, "spheres", p.num_spheres));
        p.seed = static_cast<std::uint64_t>(
            param(spec, "seed", static_cast<std::int64_t>(p.seed)));
        p.shadows = param(spec, "shadows", 1) != 0;
        return makeRayTrace(p);
    }
    if (spec.kind == "livermore1") {
        checkKeys(spec, {"n", "parallel"});
        Lk1Params p;
        p.n = static_cast<int>(param(spec, "n", p.n));
        p.parallel = param(spec, "parallel", 0) != 0;
        return makeLivermore1(p);
    }
    if (spec.kind == "matmul") {
        checkKeys(spec, {"n"});
        MatmulParams p;
        p.n = static_cast<int>(param(spec, "n", p.n));
        return makeMatmul(p);
    }
    if (spec.kind == "bsearch") {
        checkKeys(spec, {"table_size", "queries_per_thread", "seed"});
        BsearchParams p;
        p.table_size =
            static_cast<int>(param(spec, "table_size", p.table_size));
        p.queries_per_thread = static_cast<int>(
            param(spec, "queries_per_thread", p.queries_per_thread));
        p.seed = static_cast<std::uint64_t>(
            param(spec, "seed", static_cast<std::int64_t>(p.seed)));
        return makeBsearch(p);
    }
    if (spec.kind == "stencil") {
        checkKeys(spec, {"width", "height", "sweeps"});
        StencilParams p;
        p.width = static_cast<int>(param(spec, "width", p.width));
        p.height = static_cast<int>(param(spec, "height", p.height));
        p.sweeps = static_cast<int>(param(spec, "sweeps", p.sweeps));
        return makeStencil(p);
    }
    if (spec.kind == "radiosity") {
        checkKeys(spec, {"patches", "seed"});
        RadiosityParams p;
        p.num_patches =
            static_cast<int>(param(spec, "patches", p.num_patches));
        p.seed = static_cast<std::uint64_t>(
            param(spec, "seed", static_cast<std::int64_t>(p.seed)));
        return makeRadiosity(p);
    }
    if (spec.kind == "recurrence") {
        checkKeys(spec, {"n", "variant"});
        RecurrenceParams p;
        p.n = static_cast<int>(param(spec, "n", p.n));
        p.variant = static_cast<RecurrenceVariant>(
            param(spec, "variant",
                  static_cast<std::int64_t>(p.variant)));
        return makeRecurrence(p);
    }
    if (spec.kind == "listwalk") {
        checkKeys(spec, {"nodes", "break_at", "eager", "seed"});
        ListWalkParams p;
        p.num_nodes =
            static_cast<int>(param(spec, "nodes", p.num_nodes));
        p.break_at =
            static_cast<int>(param(spec, "break_at", p.break_at));
        p.eager = param(spec, "eager", 0) != 0;
        p.seed = static_cast<std::uint64_t>(
            param(spec, "seed", static_cast<std::int64_t>(p.seed)));
        return makeListWalk(p);
    }
    if (spec.kind == "tokenring") {
        checkKeys(spec, {"rounds", "bug"});
        TokenRingParams p;
        p.rounds = static_cast<int>(param(spec, "rounds", p.rounds));
        p.bug = static_cast<int>(param(spec, "bug", p.bug));
        return makeTokenRing(p);
    }
    throw std::invalid_argument("unknown workload kind \"" +
                                spec.kind + "\"");
}

// ----------------------------------------------------------------
// Canonical configuration rendering
// ----------------------------------------------------------------

namespace
{

void
appendFus(std::ostringstream &oss, const FuPoolConfig &fus)
{
    oss << "fus=[" << fus.int_alu << ',' << fus.shifter << ','
        << fus.int_mul << ',' << fus.fp_add << ',' << fus.fp_mul
        << ',' << fus.fp_div << ',' << fus.load_store << ']';
}

void
appendCache(std::ostringstream &oss, const char *name,
            const CacheConfig &c)
{
    oss << name << "=[" << c.size_bytes << ',' << c.line_bytes
        << ',' << c.ways << ',' << c.miss_penalty << ']';
}

} // namespace

std::string
canonicalConfig(const CoreConfig &cfg)
{
    std::ostringstream oss;
    oss << "core{slots=" << cfg.num_slots
        << ";frames=" << cfg.num_frames << ";width=" << cfg.width
        << ';';
    appendFus(oss, cfg.fus);
    oss << ";standby=" << (cfg.standby_enabled ? 1 : 0)
        << ";rotation="
        << (cfg.rotation_mode == RotationMode::Implicit
                ? "implicit"
                : "explicit")
        << ";interval=" << cfg.rotation_interval
        << ";private_icache=" << (cfg.private_icache ? 1 : 0)
        << ";icache_cycles=" << cfg.icache_cycles
        << ";iqueue_words=" << cfg.iqueue_words
        << ";queue_reg_depth=" << cfg.queue_reg_depth
        << ";branch_gap=" << cfg.branch_gap
        << ";context_switch_cycles=" << cfg.context_switch_cycles
        << ";remote=[" << cfg.remote.base << ',' << cfg.remote.size
        << ',' << cfg.remote.latency << "];";
    appendCache(oss, "dcache", cfg.dcache);
    oss << ';';
    appendCache(oss, "icache", cfg.icache);
    oss << ";max_cycles=" << cfg.max_cycles << '}';
    return oss.str();
}

std::string
canonicalConfig(const BaselineConfig &cfg)
{
    std::ostringstream oss;
    oss << "baseline{width=" << cfg.width << ';';
    appendFus(oss, cfg.fus);
    oss << ";branch_gap=" << cfg.branch_gap
        << ";max_cycles=" << cfg.max_cycles << '}';
    return oss.str();
}

std::string
canonicalConfig(const MachineTuning &tuning)
{
    std::ostringstream oss;
    oss << "machine{cores=" << tuning.cores
        << ";remote_data=" << (tuning.remote_data ? 1 : 0)
        << ";banks=" << tuning.noc.l2_banks
        << ";interleave=" << tuning.noc.bank_interleave
        << ";mshrs=" << tuning.noc.mshrs_per_bank
        << ";l2_cycles=" << tuning.noc.l2_access_cycles
        << ";conflict=" << tuning.noc.bank_conflict_penalty
        << ";hop=" << tuning.noc.hop_latency
        << ";quantum=" << tuning.quantum << '}';
    return oss.str();
}

// ----------------------------------------------------------------
// Job
// ----------------------------------------------------------------

const char *
engineName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Core: return "core";
      case EngineKind::Baseline: return "baseline";
      case EngineKind::Machine: return "machine";
    }
    return "?";
}

std::string
Job::canonical() const
{
    std::ostringstream oss;
    oss << "smtsim-lab/v" << kCacheSchemaVersion << '/'
        << engineName(engine) << '/';
    switch (engine) {
      case EngineKind::Core:
        oss << canonicalConfig(core);
        break;
      case EngineKind::Baseline:
        oss << canonicalConfig(baseline);
        break;
      case EngineKind::Machine:
        oss << canonicalConfig(machine) << '/'
            << canonicalConfig(core);
        break;
    }
    oss << '/' << workload.canonical();
    return oss.str();
}

std::string
Job::cacheKey() const
{
    return hashToHex(fnv1a(canonical()));
}

Job
coreJob(std::string id, WorkloadSpec workload, const CoreConfig &cfg)
{
    Job job;
    job.id = std::move(id);
    job.engine = EngineKind::Core;
    job.workload = std::move(workload);
    job.core = cfg;
    return job;
}

Job
baselineJob(std::string id, WorkloadSpec workload,
            const BaselineConfig &cfg)
{
    Job job;
    job.id = std::move(id);
    job.engine = EngineKind::Baseline;
    job.workload = std::move(workload);
    job.baseline = cfg;
    return job;
}

Job
machineJob(std::string id, WorkloadSpec workload,
           const CoreConfig &core, const MachineTuning &tuning)
{
    Job job;
    job.id = std::move(id);
    job.engine = EngineKind::Machine;
    job.workload = std::move(workload);
    job.core = core;
    job.machine = tuning;
    return job;
}

// ----------------------------------------------------------------
// ExperimentSpec
// ----------------------------------------------------------------

std::vector<Job>
ExperimentSpec::expand() const
{
    if (workloads.empty())
        throw std::invalid_argument(name + ": no workloads");
    for (const auto *axis : {&slots, &frames, &lsu, &widths,
                             &rotation_intervals, &cores}) {
        if (axis->empty())
            throw std::invalid_argument(name + ": empty grid axis");
    }
    if (standby.empty())
        throw std::invalid_argument(name + ": empty grid axis");

    // The historical single-core grid keeps its exact ids and cache
    // keys; only a non-default cores axis switches the sweep onto
    // the machine engine.
    const bool many_core = !(cores.size() == 1 && cores[0] == 1);

    // Bound the grid from the axis sizes alone, before any job is
    // built. Every factor is at least 1 and each step checks before
    // it multiplies, so the product cannot overflow.
    const std::string too_big = name + ": grid expands to more than " +
                                std::to_string(kMaxJobs) + " jobs";
    std::size_t cells = 1;
    for (std::size_t n :
         {slots.size(), frames.size(), lsu.size(), widths.size(),
          standby.size(), rotation_intervals.size(),
          many_core ? cores.size() : std::size_t{1},
          workloads.size()}) {
        if (cells > kMaxJobs / n)
            throw std::invalid_argument(too_big);
        cells *= n;
    }
    if (include_baseline)
        cells += workloads.size();
    if (cells > kMaxJobs)
        throw std::invalid_argument(too_big);

    std::vector<Job> jobs;
    std::set<std::string> ids;
    auto addJob = [&](Job job) {
        if (!ids.insert(job.id).second)
            throw std::invalid_argument(
                name + ": duplicate grid point \"" + job.id + "\"");
        jobs.push_back(std::move(job));
    };

    for (const WorkloadSpec &wl : workloads) {
        if (include_baseline)
            addJob(baselineJob(wl.kind + "/baseline", wl,
                               baseline_template));
        for (int s : slots) {
            for (int f : frames) {
                for (int l : lsu) {
                    for (int w : widths) {
                        for (bool sb : standby) {
                            for (int r : rotation_intervals) {
                                CoreConfig cfg = core_template;
                                cfg.num_slots = s;
                                cfg.num_frames = f;
                                cfg.fus.load_store = l;
                                cfg.width = w;
                                cfg.standby_enabled = sb;
                                cfg.rotation_interval = r;
                                std::ostringstream id;
                                id << wl.kind << "/s" << s << "/f"
                                   << f << "/ls" << l << "/w" << w
                                   << '/' << (sb ? "sb" : "nosb")
                                   << "/r" << r;
                                if (!many_core) {
                                    addJob(coreJob(id.str(), wl,
                                                   cfg));
                                    continue;
                                }
                                for (int c : cores) {
                                    MachineTuning tuning =
                                        machine_template;
                                    tuning.cores = c;
                                    std::ostringstream mid;
                                    mid << id.str() << "/c" << c;
                                    addJob(machineJob(mid.str(),
                                                      wl, cfg,
                                                      tuning));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return jobs;
}

std::vector<int>
parseIntList(const std::string &flag, const std::string &text,
             int min_value)
{
    std::vector<int> out;
    for (const std::string &item : split(text, ',')) {
        long long v = 0;
        if (!parseInt(item, &v))
            throw std::invalid_argument(flag + ": \"" + trim(item) +
                                        "\" is not an integer");
        if (v < min_value || v > std::numeric_limits<int>::max())
            throw std::invalid_argument(
                flag + ": value " + std::to_string(v) +
                " is out of range (minimum " +
                std::to_string(min_value) + ")");
        out.push_back(static_cast<int>(v));
    }
    if (out.empty())
        throw std::invalid_argument(flag + ": empty list");
    return out;
}

bool
setGridFlag(ExperimentSpec &spec, const std::string &flag,
            const std::string &value)
{
    struct ListFlag
    {
        const char *name;
        std::vector<int> ExperimentSpec::*axis;
        int min_value;
    };
    static constexpr ListFlag kLists[] = {
        {"--slots", &ExperimentSpec::slots, 1},
        {"--frames", &ExperimentSpec::frames, -1},
        {"--lsu", &ExperimentSpec::lsu, 1},
        {"--width", &ExperimentSpec::widths, 1},
        {"--interval", &ExperimentSpec::rotation_intervals, 1},
    };
    for (const ListFlag &f : kLists) {
        if (flag == f.name) {
            spec.*f.axis = parseIntList(flag, value, f.min_value);
            return true;
        }
    }
    if (flag == "--workload") {
        try {
            spec.workloads.push_back(WorkloadSpec::fromString(value));
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(flag + ": " + e.what());
        }
    } else if (flag == "--standby") {
        if (value != "on" && value != "off" && value != "both")
            throw std::invalid_argument(flag +
                                        " must be on, off or both");
        spec.standby = value == "both" ? std::vector<bool>{false, true}
                                       : std::vector<bool>{value == "on"};
    } else {
        return false;
    }
    return true;
}

} // namespace smtsim::lab
