/**
 * @file
 * Results of an experiment sweep: one JobResult per grid point,
 * collected into a ResultSet that exports to JSON, CSV and the
 * repo's ASCII table renderer (base/table.hh).
 */

#ifndef SMTSIM_LAB_RESULT_HH
#define SMTSIM_LAB_RESULT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/table.hh"
#include "machine/run_stats.hh"

namespace smtsim::lab
{

/** Outcome of one grid point. */
struct JobResult
{
    std::string id;         ///< Job::id
    std::string key;        ///< Job::cacheKey()
    bool ok = false;        ///< finished + outputs verified
    bool from_cache = false;
    std::string error;      ///< first failure description
    RunStats stats;
    /** Host seconds spent simulating (0 for cache hits). */
    double wall_seconds = 0.0;
};

/** All results of one sweep, in job order. */
struct ResultSet
{
    std::vector<JobResult> results;

    /** Lookup by job id; nullptr when absent. */
    const JobResult *find(const std::string &id) const;

    /**
     * Stats of a point that must have succeeded.
     * @throws std::runtime_error when missing or failed.
     */
    const RunStats &statsOf(const std::string &id) const;

    std::size_t cacheHits() const;
    std::size_t failures() const;
    /** Host seconds spent simulating, summed over all points. */
    double simSeconds() const;

    /** Full export, one object per point (stats included). */
    Json toJson() const;

    /**
     * Flat CSV of the standard columns: id, ok, cached, cycles,
     * instructions, ipc, branches, loads, stores, per-class grants.
     */
    std::string toCsv() const;

    /** Summary table: id, cycles, instrs, ipc, finished, source. */
    TextTable toTable(const std::string &title = "") const;
};

/** Serialize one result record (used by the cache + toJson). */
Json resultToJson(const JobResult &r);

/**
 * Rebuild a result record; inverse of resultToJson.
 * @throws JsonParseError on malformed input.
 */
JobResult resultFromJson(const Json &j);

/** Write @p text to @p path ("-" = stdout), noting "<what> written
 *  to <path>" on stderr; std::runtime_error if it cannot be opened.
 *  The --json/--csv outputs of smtsim-sweep and smtsim-client. */
void writeTextOutput(const std::string &path, const std::string &text,
                     const char *what);

} // namespace smtsim::lab

#endif // SMTSIM_LAB_RESULT_HH
