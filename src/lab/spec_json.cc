#include "spec_json.hh"

#include <initializer_list>
#include <set>
#include <string>

namespace smtsim::lab
{

namespace
{

/** Reject members outside @p known — config typos must not land. */
void
checkMembers(const Json &j, const char *what,
             std::initializer_list<const char *> known)
{
    if (j.type() != Json::Type::Object)
        throw JsonParseError(std::string(what) +
                             ": expected a JSON object");
    for (const auto &kv : j.members()) {
        bool ok = false;
        for (const char *k : known)
            ok = ok || kv.first == k;
        if (!ok)
            throw JsonParseError(std::string(what) +
                                 ": unknown member \"" + kv.first +
                                 "\"");
    }
}

int
asIntField(const Json &j, const char *key)
{
    return static_cast<int>(j.at(key).asInt());
}

Json
intList(const std::vector<int> &values)
{
    Json arr = Json::array();
    for (int v : values)
        arr.push(Json(v));
    return arr;
}

std::vector<int>
intListFromJson(const Json &j, const char *what)
{
    if (j.type() != Json::Type::Array)
        throw JsonParseError(std::string(what) +
                             ": expected an array");
    std::vector<int> out;
    for (std::size_t i = 0; i < j.size(); ++i)
        out.push_back(static_cast<int>(j.at(i).asInt()));
    return out;
}

/**
 * Validate a grid axis at parse time: expand() would throw
 * std::invalid_argument for an empty axis or duplicate grid points,
 * but admission (the serve daemon) wants a JsonParseError with a
 * diagnostic naming the offending axis and value.
 */
void
checkAxis(const std::vector<int> &axis, const char *what)
{
    if (axis.empty())
        throw JsonParseError(std::string(what) +
                             ": grid axis must not be empty");
    std::set<int> seen;
    for (int v : axis)
        if (!seen.insert(v).second)
            throw JsonParseError(std::string(what) +
                                 ": duplicate grid value " +
                                 std::to_string(v));
}

} // namespace

// ----------------------------------------------------------------
// WorkloadSpec
// ----------------------------------------------------------------

Json
workloadSpecToJson(const WorkloadSpec &spec)
{
    Json params = Json::object();
    for (const auto &kv : spec.params)
        params.set(kv.first, Json(kv.second));
    Json j = Json::object();
    j.set("kind", Json(spec.kind));
    j.set("params", std::move(params));
    return j;
}

WorkloadSpec
workloadSpecFromJson(const Json &j)
{
    checkMembers(j, "workload", {"kind", "params"});
    WorkloadSpec spec;
    spec.kind = j.at("kind").asString();
    if (const Json *params = j.find("params")) {
        if (params->type() != Json::Type::Object)
            throw JsonParseError(
                "workload params: expected an object");
        for (const auto &kv : params->members())
            spec.params[kv.first] = kv.second.asInt();
    }
    return spec;
}

// ----------------------------------------------------------------
// Engine configurations
// ----------------------------------------------------------------

namespace
{

Json
fuPoolToJson(const FuPoolConfig &fus)
{
    Json j = Json::object();
    j.set("int_alu", Json(fus.int_alu));
    j.set("shifter", Json(fus.shifter));
    j.set("int_mul", Json(fus.int_mul));
    j.set("fp_add", Json(fus.fp_add));
    j.set("fp_mul", Json(fus.fp_mul));
    j.set("fp_div", Json(fus.fp_div));
    j.set("load_store", Json(fus.load_store));
    return j;
}

FuPoolConfig
fuPoolFromJson(const Json &j)
{
    checkMembers(j, "fus",
                 {"int_alu", "shifter", "int_mul", "fp_add",
                  "fp_mul", "fp_div", "load_store"});
    FuPoolConfig fus;
    fus.int_alu = asIntField(j, "int_alu");
    fus.shifter = asIntField(j, "shifter");
    fus.int_mul = asIntField(j, "int_mul");
    fus.fp_add = asIntField(j, "fp_add");
    fus.fp_mul = asIntField(j, "fp_mul");
    fus.fp_div = asIntField(j, "fp_div");
    fus.load_store = asIntField(j, "load_store");
    return fus;
}

Json
cacheConfigToJson(const CacheConfig &c)
{
    Json j = Json::object();
    j.set("size_bytes", Json(c.size_bytes));
    j.set("line_bytes", Json(c.line_bytes));
    j.set("ways", Json(c.ways));
    j.set("miss_penalty", Json(c.miss_penalty));
    return j;
}

CacheConfig
cacheConfigFromJson(const Json &j)
{
    checkMembers(j, "cache",
                 {"size_bytes", "line_bytes", "ways",
                  "miss_penalty"});
    CacheConfig c;
    c.size_bytes = j.at("size_bytes").asU64();
    c.line_bytes = j.at("line_bytes").asU64();
    c.ways = asIntField(j, "ways");
    c.miss_penalty = j.at("miss_penalty").asU64();
    return c;
}

} // namespace

Json
coreConfigToJson(const CoreConfig &cfg)
{
    Json j = Json::object();
    j.set("num_slots", Json(cfg.num_slots));
    j.set("num_frames", Json(cfg.num_frames));
    j.set("width", Json(cfg.width));
    j.set("fus", fuPoolToJson(cfg.fus));
    j.set("standby_enabled", Json(cfg.standby_enabled));
    j.set("rotation_mode",
          Json(cfg.rotation_mode == RotationMode::Implicit
                   ? "implicit"
                   : "explicit"));
    j.set("rotation_interval", Json(cfg.rotation_interval));
    j.set("private_icache", Json(cfg.private_icache));
    j.set("icache_cycles", Json(cfg.icache_cycles));
    j.set("iqueue_words", Json(cfg.iqueue_words));
    j.set("queue_reg_depth", Json(cfg.queue_reg_depth));
    j.set("branch_gap", Json(cfg.branch_gap));
    j.set("context_switch_cycles", Json(cfg.context_switch_cycles));
    Json remote = Json::object();
    remote.set("base", Json(cfg.remote.base));
    remote.set("size", Json(cfg.remote.size));
    remote.set("latency", Json(cfg.remote.latency));
    j.set("remote", std::move(remote));
    j.set("dcache", cacheConfigToJson(cfg.dcache));
    j.set("icache", cacheConfigToJson(cfg.icache));
    j.set("fast_forward", Json(cfg.fast_forward));
    j.set("max_cycles", Json(cfg.max_cycles));
    return j;
}

CoreConfig
coreConfigFromJson(const Json &j)
{
    checkMembers(j, "core config",
                 {"num_slots", "num_frames", "width", "fus",
                  "standby_enabled", "rotation_mode",
                  "rotation_interval", "private_icache",
                  "icache_cycles", "iqueue_words",
                  "queue_reg_depth", "branch_gap",
                  "context_switch_cycles", "remote", "dcache",
                  "icache", "fast_forward", "max_cycles"});
    CoreConfig cfg;
    cfg.num_slots = asIntField(j, "num_slots");
    cfg.num_frames = asIntField(j, "num_frames");
    cfg.width = asIntField(j, "width");
    cfg.fus = fuPoolFromJson(j.at("fus"));
    cfg.standby_enabled = j.at("standby_enabled").asBool();
    const std::string &mode = j.at("rotation_mode").asString();
    if (mode == "implicit")
        cfg.rotation_mode = RotationMode::Implicit;
    else if (mode == "explicit")
        cfg.rotation_mode = RotationMode::Explicit;
    else
        throw JsonParseError("core config: rotation_mode must be "
                             "\"implicit\" or \"explicit\"");
    cfg.rotation_interval = asIntField(j, "rotation_interval");
    cfg.private_icache = j.at("private_icache").asBool();
    cfg.icache_cycles = asIntField(j, "icache_cycles");
    cfg.iqueue_words = asIntField(j, "iqueue_words");
    cfg.queue_reg_depth = asIntField(j, "queue_reg_depth");
    cfg.branch_gap = asIntField(j, "branch_gap");
    cfg.context_switch_cycles =
        asIntField(j, "context_switch_cycles");
    const Json &remote = j.at("remote");
    checkMembers(remote, "remote", {"base", "size", "latency"});
    cfg.remote.base = remote.at("base").asU64();
    cfg.remote.size = remote.at("size").asU64();
    cfg.remote.latency = remote.at("latency").asU64();
    cfg.dcache = cacheConfigFromJson(j.at("dcache"));
    cfg.icache = cacheConfigFromJson(j.at("icache"));
    cfg.fast_forward = j.at("fast_forward").asBool();
    cfg.max_cycles = j.at("max_cycles").asU64();
    return cfg;
}

Json
baselineConfigToJson(const BaselineConfig &cfg)
{
    Json j = Json::object();
    j.set("width", Json(cfg.width));
    j.set("fus", fuPoolToJson(cfg.fus));
    j.set("branch_gap", Json(cfg.branch_gap));
    j.set("fast_forward", Json(cfg.fast_forward));
    j.set("max_cycles", Json(cfg.max_cycles));
    return j;
}

BaselineConfig
baselineConfigFromJson(const Json &j)
{
    checkMembers(j, "baseline config",
                 {"width", "fus", "branch_gap", "fast_forward",
                  "max_cycles"});
    BaselineConfig cfg;
    cfg.width = asIntField(j, "width");
    cfg.fus = fuPoolFromJson(j.at("fus"));
    cfg.branch_gap = asIntField(j, "branch_gap");
    cfg.fast_forward = j.at("fast_forward").asBool();
    cfg.max_cycles = j.at("max_cycles").asU64();
    return cfg;
}

namespace
{

Json
machineTuningToJson(const MachineTuning &t)
{
    Json j = Json::object();
    j.set("cores", Json(t.cores));
    j.set("remote_data", Json(t.remote_data));
    j.set("l2_banks", Json(t.noc.l2_banks));
    j.set("bank_interleave", Json(t.noc.bank_interleave));
    j.set("mshrs_per_bank", Json(t.noc.mshrs_per_bank));
    j.set("l2_access_cycles", Json(t.noc.l2_access_cycles));
    j.set("bank_conflict_penalty",
          Json(t.noc.bank_conflict_penalty));
    j.set("hop_latency", Json(t.noc.hop_latency));
    j.set("quantum", Json(t.quantum));
    return j;
}

MachineTuning
machineTuningFromJson(const Json &j)
{
    checkMembers(j, "machine",
                 {"cores", "remote_data", "l2_banks",
                  "bank_interleave", "mshrs_per_bank",
                  "l2_access_cycles", "bank_conflict_penalty",
                  "hop_latency", "quantum"});
    MachineTuning t;
    t.cores = asIntField(j, "cores");
    t.remote_data = j.at("remote_data").asBool();
    t.noc.l2_banks = asIntField(j, "l2_banks");
    t.noc.bank_interleave = static_cast<Addr>(
        j.at("bank_interleave").asU64());
    t.noc.mshrs_per_bank = asIntField(j, "mshrs_per_bank");
    t.noc.l2_access_cycles = j.at("l2_access_cycles").asU64();
    t.noc.bank_conflict_penalty =
        j.at("bank_conflict_penalty").asU64();
    t.noc.hop_latency = j.at("hop_latency").asU64();
    t.quantum = j.at("quantum").asU64();
    return t;
}

} // namespace

// ----------------------------------------------------------------
// Job
// ----------------------------------------------------------------

Json
jobToJson(const Job &job)
{
    Json j = Json::object();
    j.set("id", Json(job.id));
    j.set("engine", Json(engineName(job.engine)));
    j.set("workload", workloadSpecToJson(job.workload));
    switch (job.engine) {
      case EngineKind::Core:
        j.set("core", coreConfigToJson(job.core));
        break;
      case EngineKind::Baseline:
        j.set("baseline", baselineConfigToJson(job.baseline));
        break;
      case EngineKind::Interp:
        j.set("interp_threads", Json(job.interp_threads));
        break;
      case EngineKind::Machine:
        j.set("core", coreConfigToJson(job.core));
        j.set("machine", machineTuningToJson(job.machine));
        break;
    }
    return j;
}

Job
jobFromJson(const Json &j)
{
    checkMembers(j, "job",
                 {"id", "engine", "workload", "core", "baseline",
                  "interp_threads", "machine"});
    Job job;
    job.id = j.at("id").asString();
    job.workload = workloadSpecFromJson(j.at("workload"));
    const std::string &engine = j.at("engine").asString();
    if (engine == "core") {
        job.engine = EngineKind::Core;
        job.core = coreConfigFromJson(j.at("core"));
    } else if (engine == "baseline") {
        job.engine = EngineKind::Baseline;
        job.baseline = baselineConfigFromJson(j.at("baseline"));
    } else if (engine == "interp") {
        job.engine = EngineKind::Interp;
        job.interp_threads = asIntField(j, "interp_threads");
    } else if (engine == "machine") {
        job.engine = EngineKind::Machine;
        job.core = coreConfigFromJson(j.at("core"));
        job.machine = machineTuningFromJson(j.at("machine"));
    } else {
        throw JsonParseError("job: unknown engine \"" + engine +
                             "\"");
    }
    return job;
}

// ----------------------------------------------------------------
// ExperimentSpec
// ----------------------------------------------------------------

Json
experimentSpecToJson(const ExperimentSpec &spec)
{
    Json workloads = Json::array();
    for (const WorkloadSpec &wl : spec.workloads)
        workloads.push(workloadSpecToJson(wl));
    Json standby = Json::array();
    for (bool sb : spec.standby)
        standby.push(Json(sb));

    Json j = Json::object();
    j.set("name", Json(spec.name));
    j.set("workloads", std::move(workloads));
    j.set("slots", intList(spec.slots));
    j.set("frames", intList(spec.frames));
    j.set("lsu", intList(spec.lsu));
    j.set("widths", intList(spec.widths));
    j.set("standby", std::move(standby));
    j.set("rotation_intervals",
          intList(spec.rotation_intervals));
    j.set("cores", intList(spec.cores));
    j.set("core_template", coreConfigToJson(spec.core_template));
    j.set("machine_template",
          machineTuningToJson(spec.machine_template));
    j.set("include_baseline", Json(spec.include_baseline));
    j.set("baseline_template",
          baselineConfigToJson(spec.baseline_template));
    return j;
}

ExperimentSpec
experimentSpecFromJson(const Json &j)
{
    checkMembers(j, "experiment spec",
                 {"name", "workloads", "slots", "frames", "lsu",
                  "widths", "standby", "rotation_intervals",
                  "cores", "core_template", "machine_template",
                  "include_baseline", "baseline_template"});
    ExperimentSpec spec;
    spec.name = j.at("name").asString();
    const Json &workloads = j.at("workloads");
    if (workloads.type() != Json::Type::Array)
        throw JsonParseError("workloads: expected an array");
    spec.workloads.clear();
    for (std::size_t i = 0; i < workloads.size(); ++i)
        spec.workloads.push_back(
            workloadSpecFromJson(workloads.at(i)));
    if (spec.workloads.empty())
        throw JsonParseError("workloads: must not be empty");

    // Axes are optional: absent ones keep the ExperimentSpec
    // defaults, matching the CLI's behavior for omitted options.
    if (const Json *v = j.find("slots"))
        spec.slots = intListFromJson(*v, "slots");
    if (const Json *v = j.find("frames"))
        spec.frames = intListFromJson(*v, "frames");
    if (const Json *v = j.find("lsu"))
        spec.lsu = intListFromJson(*v, "lsu");
    if (const Json *v = j.find("widths"))
        spec.widths = intListFromJson(*v, "widths");
    if (const Json *v = j.find("rotation_intervals"))
        spec.rotation_intervals =
            intListFromJson(*v, "rotation_intervals");
    if (const Json *v = j.find("cores"))
        spec.cores = intListFromJson(*v, "cores");
    if (const Json *v = j.find("standby")) {
        if (v->type() != Json::Type::Array)
            throw JsonParseError("standby: expected an array");
        spec.standby.clear();
        for (std::size_t i = 0; i < v->size(); ++i)
            spec.standby.push_back(v->at(i).asBool());
        if (spec.standby.empty())
            throw JsonParseError(
                "standby: grid axis must not be empty");
        if (spec.standby.size() > 2 ||
            (spec.standby.size() == 2 &&
             spec.standby[0] == spec.standby[1]))
            throw JsonParseError(
                "standby: duplicate grid value");
    }
    checkAxis(spec.slots, "slots");
    checkAxis(spec.frames, "frames");
    checkAxis(spec.lsu, "lsu");
    checkAxis(spec.widths, "widths");
    checkAxis(spec.rotation_intervals, "rotation_intervals");
    checkAxis(spec.cores, "cores");
    if (const Json *v = j.find("core_template"))
        spec.core_template = coreConfigFromJson(*v);
    if (const Json *v = j.find("machine_template"))
        spec.machine_template = machineTuningFromJson(*v);
    if (const Json *v = j.find("include_baseline"))
        spec.include_baseline = v->asBool();
    if (const Json *v = j.find("baseline_template"))
        spec.baseline_template = baselineConfigFromJson(*v);
    return spec;
}

} // namespace smtsim::lab
