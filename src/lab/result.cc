#include "result.hh"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "base/json_fields.hh"
#include "base/strutil.hh"
#include "machine/fu_pool.hh"

namespace smtsim::lab
{

const JobResult *
ResultSet::find(const std::string &id) const
{
    for (const JobResult &r : results) {
        if (r.id == id)
            return &r;
    }
    return nullptr;
}

const RunStats &
ResultSet::statsOf(const std::string &id) const
{
    const JobResult *r = find(id);
    if (!r)
        throw std::runtime_error("lab: no result for job \"" + id +
                                 "\"");
    if (!r->ok)
        throw std::runtime_error("lab: job \"" + id +
                                 "\" failed: " + r->error);
    return r->stats;
}

std::size_t
ResultSet::cacheHits() const
{
    std::size_t n = 0;
    for (const JobResult &r : results)
        n += r.from_cache ? 1 : 0;
    return n;
}

std::size_t
ResultSet::failures() const
{
    std::size_t n = 0;
    for (const JobResult &r : results)
        n += r.ok ? 0 : 1;
    return n;
}

double
ResultSet::simSeconds() const
{
    double s = 0.0;
    for (const JobResult &r : results)
        s += r.wall_seconds;
    return s;
}

Json
resultToJson(const JobResult &r)
{
    Json j = Json::object();
    j.set("id", Json(r.id));
    j.set("key", Json(r.key));
    j.set("ok", Json(r.ok));
    j.set("from_cache", Json(r.from_cache));
    j.set("error", Json(r.error));
    j.set("wall_seconds", Json(r.wall_seconds));
    j.set("stats", toJson(r.stats));
    return j;
}

JobResult
resultFromJson(const Json &j)
{
    JobResult r;
    r.id = j.at("id").asString();
    r.key = j.at("key").asString();
    r.ok = j.at("ok").asBool();
    r.from_cache = j.at("from_cache").asBool();
    r.error = j.at("error").asString();
    r.wall_seconds = j.at("wall_seconds").asDouble();
    fromJson(j.at("stats"), r.stats, "stats");
    return r;
}

Json
ResultSet::toJson() const
{
    Json arr = Json::array();
    for (const JobResult &r : results)
        arr.push(resultToJson(r));
    Json j = Json::object();
    j.set("schema", Json(1));
    j.set("jobs", Json(results.size()));
    j.set("cache_hits", Json(cacheHits()));
    j.set("failures", Json(failures()));
    j.set("results", std::move(arr));
    return j;
}

std::string
ResultSet::toCsv() const
{
    std::ostringstream oss;
    oss << "id,ok,cached,cycles,instructions,ipc,branches,loads,"
           "stores";
    for (int cls = 0; cls < kNumFuClasses; ++cls) {
        const FuClass fc = static_cast<FuClass>(cls);
        if (fc == FuClass::None)
            continue;
        oss << ",grants_" << fuClassName(fc);
    }
    oss << '\n';
    for (const JobResult &r : results) {
        const double ipc =
            r.stats.cycles
                ? static_cast<double>(r.stats.instructions) /
                      static_cast<double>(r.stats.cycles)
                : 0.0;
        // Job ids contain no quotes/commas; keep cells bare.
        oss << r.id << ',' << (r.ok ? 1 : 0) << ','
            << (r.from_cache ? 1 : 0) << ',' << r.stats.cycles
            << ',' << r.stats.instructions << ','
            << formatDouble(ipc, 4) << ',' << r.stats.branches
            << ',' << r.stats.loads << ',' << r.stats.stores;
        for (int cls = 0; cls < kNumFuClasses; ++cls) {
            if (static_cast<FuClass>(cls) == FuClass::None)
                continue;
            oss << ',' << r.stats.fu_grants[cls];
        }
        oss << '\n';
    }
    return oss.str();
}

TextTable
ResultSet::toTable(const std::string &title) const
{
    TextTable table(title);
    table.addRow({"job", "cycles", "instrs", "ipc", "status",
                  "source"});
    for (const JobResult &r : results) {
        const double ipc =
            r.stats.cycles
                ? static_cast<double>(r.stats.instructions) /
                      static_cast<double>(r.stats.cycles)
                : 0.0;
        table.addRow({r.id, std::to_string(r.stats.cycles),
                      std::to_string(r.stats.instructions),
                      formatDouble(ipc, 3),
                      r.ok ? "ok" : ("FAIL: " + r.error),
                      r.from_cache ? "cache" : "sim"});
    }
    return table;
}

void
writeTextOutput(const std::string &path, const std::string &text,
                const char *what)
{
    if (path == "-") {
        std::cout << text;
        return;
    }
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open " + path +
                                 " for writing");
    out << text;
    std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
}

} // namespace smtsim::lab
