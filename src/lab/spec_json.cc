#include "spec_json.hh"

#include <deque>
#include <set>
#include <string>

#include "base/json_fields.hh"

namespace smtsim::lab
{

namespace
{

/**
 * Read a grid axis and validate it at parse time: expand() would
 * throw std::invalid_argument for an empty axis or duplicate grid
 * points, but admission (the serve daemon) wants a JsonParseError
 * with a diagnostic naming the offending axis and value.
 */
template <class T>
void
readAxis(const Json &j, std::vector<T> &axis, const char *what)
{
    std::deque<T> values;     // not std::vector: bool axes too
    fromJson(j, values, what);
    if (values.empty())
        throw JsonParseError(std::string(what) +
                             ": grid axis must not be empty");
    std::set<T> seen;
    for (T v : values)
        if (!seen.insert(v).second)
            throw JsonParseError(std::string(what) +
                                 ": duplicate grid value " +
                                 std::to_string(v));
    axis.assign(values.begin(), values.end());
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
    JsonIn in(j, "workload");
    WorkloadSpec spec;
    in("kind", spec.kind);
    if (const Json *params = in.find("params")) {
        if (params->type() != Json::Type::Object)
            throw JsonParseError(
                "workload params: expected an object");
        for (const auto &kv : params->members())
            fromJson(kv.second, spec.params[kv.first],
                     kv.first.c_str());
    }
    in.rejectUnknown();
    return spec;
}

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
        j.set("core", toJson(job.core));
        break;
      case EngineKind::Baseline:
        j.set("baseline", toJson(job.baseline));
        break;
      case EngineKind::Machine:
        j.set("core", toJson(job.core));
        j.set("machine", toJson(job.machine));
        break;
    }
    return j;
}

Job
jobFromJson(const Json &j)
{
    JsonIn in(j, "job");
    Job job;
    in("id", job.id);
    job.workload = workloadSpecFromJson(in.member("workload"));
    std::string engine;
    in("engine", engine);
    if (engine == "core") {
        job.engine = EngineKind::Core;
        in("core", job.core);
    } else if (engine == "baseline") {
        job.engine = EngineKind::Baseline;
        in("baseline", job.baseline);
    } else if (engine == "machine") {
        job.engine = EngineKind::Machine;
        in("core", job.core);
        in("machine", job.machine);
    } else {
        throw JsonParseError("job: unknown engine \"" + engine +
                             "\"");
    }
    in.rejectUnknown();
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
    Json j = Json::object();
    j.set("name", Json(spec.name));
    j.set("workloads", std::move(workloads));
    j.set("slots", toJson(spec.slots));
    j.set("frames", toJson(spec.frames));
    j.set("lsu", toJson(spec.lsu));
    j.set("widths", toJson(spec.widths));
    j.set("standby", toJson(spec.standby));
    j.set("rotation_intervals", toJson(spec.rotation_intervals));
    j.set("cores", toJson(spec.cores));
    j.set("core_template", toJson(spec.core_template));
    j.set("machine_template", toJson(spec.machine_template));
    j.set("include_baseline", Json(spec.include_baseline));
    j.set("baseline_template", toJson(spec.baseline_template));
    return j;
}

ExperimentSpec
experimentSpecFromJson(const Json &j)
{
    JsonIn in(j, "experiment spec");
    ExperimentSpec spec;
    in("name", spec.name);
    const Json &workloads = in.member("workloads");
    if (workloads.type() != Json::Type::Array)
        throw JsonParseError("workloads: expected an array");
    spec.workloads.clear();
    for (std::size_t i = 0; i < workloads.size(); ++i)
        spec.workloads.push_back(
            workloadSpecFromJson(workloads.at(i)));
    if (spec.workloads.empty())
        throw JsonParseError("workloads: must not be empty");

    // Axes and templates are optional: absent ones keep the
    // ExperimentSpec defaults, matching the CLI's behavior for
    // omitted options.
    if (const Json *v = in.find("slots"))
        readAxis(*v, spec.slots, "slots");
    if (const Json *v = in.find("frames"))
        readAxis(*v, spec.frames, "frames");
    if (const Json *v = in.find("lsu"))
        readAxis(*v, spec.lsu, "lsu");
    if (const Json *v = in.find("widths"))
        readAxis(*v, spec.widths, "widths");
    if (const Json *v = in.find("standby"))
        readAxis(*v, spec.standby, "standby");
    if (const Json *v = in.find("rotation_intervals"))
        readAxis(*v, spec.rotation_intervals, "rotation_intervals");
    if (const Json *v = in.find("cores"))
        readAxis(*v, spec.cores, "cores");
    in.optional("core_template", spec.core_template);
    in.optional("machine_template", spec.machine_template);
    in.optional("include_baseline", spec.include_baseline);
    in.optional("baseline_template", spec.baseline_template);
    in.rejectUnknown();
    return spec;
}

} // namespace smtsim::lab
