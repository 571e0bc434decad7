/**
 * @file
 * smtsim-client: submit experiment sweeps to a running smtsim-serve
 * daemon and stream the results back.
 *
 *     smtsim-client --socket PATH [options]
 *
 * Operations (default: submit a sweep):
 *     --ping             health check; exit 0 on pong
 *     --stats            print the daemon's counters and per-job
 *                        histograms as tables (with --json -: the
 *                        raw stats JSON)
 *     --shutdown         ask the daemon to shut down cleanly
 *
 * Sweep description: smtsim-sweep's grid flags --workload,
 * --slots, --frames, --lsu, --width, --standby and --interval
 * (lab::setGridFlag), and
 *     --engine core|both "both" adds a baseline point per workload
 *
 * Submission:
 *     --id NAME          submission id echoed in events (default
 *                        "cli")
 *     --wait-ms N        per-event timeout; 0 = wait forever
 *                        (default 0)
 *
 * Output:
 *     --json PATH        write results as JSON ('-' = stdout)
 *     --csv PATH         write results as CSV ('-' = stdout)
 *     --table            print the summary table
 *
 * Exit status: 0 all results ok, 1 failures or overload, 2 usage /
 * connection errors.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "base/strutil.hh"
#include "base/table.hh"
#include "lab/lab.hh"
#include "serve/serve.hh"

using namespace smtsim;
using namespace smtsim::lab;
using namespace smtsim::serve;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --socket PATH [options]   (see file "
                 "header or docs/SERVE.md)\n",
                 argv0);
    std::exit(2);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "smtsim-client: %s\n", msg.c_str());
    std::exit(2);
}

std::string
formatCount(std::uint64_t v)
{
    return std::to_string(v);
}

/** Render the "stats" payload as two tables: scalar counters, then
 *  one row per histogram with its non-empty log2 buckets. */
void
printStatsTables(const Json &stats, std::ostream &os)
{
    TextTable counters("daemon counters");
    counters.addRow({"counter", "value"});
    for (const auto &[key, value] : stats.members()) {
        if (value.isNumber())
            counters.addRow({key, formatCount(value.asU64())});
    }
    counters.print(os);

    const Json *hists = stats.find("histograms");
    if (hists == nullptr)
        return;
    os << "\n";
    TextTable ht("per-job histograms");
    ht.addRow({"metric", "count", "min", "mean", "max",
               "log2 buckets (lo..hi:n)"});
    for (const auto &[name, h] : hists->members()) {
        const std::uint64_t count = h.at("count").asU64();
        const std::uint64_t sum = h.at("sum").asU64();
        std::string buckets;
        const Json &bs = h.at("buckets");
        for (std::size_t i = 0; i < bs.size(); ++i) {
            const Json &b = bs.at(i);
            if (!buckets.empty())
                buckets += "  ";
            buckets += formatCount(b.at("lo").asU64()) + ".." +
                       formatCount(b.at("hi").asU64()) + ":" +
                       formatCount(b.at("n").asU64());
        }
        char mean[32];
        std::snprintf(mean, sizeof mean, "%.1f",
                      count == 0 ? 0.0
                                 : static_cast<double>(sum) /
                                       static_cast<double>(count));
        ht.addRow({name, formatCount(count),
                   formatCount(h.at("min").asU64()), mean,
                   formatCount(h.at("max").asU64()), buckets});
    }
    ht.print(os);
}

int
run(int argc, char **argv)
{
    std::string socket_path;
    std::string op = "submit";
    std::string id = "cli";
    int wait_ms = -1;
    ExperimentSpec spec;
    spec.name = "smtsim-client";
    std::string engine = "core";
    std::string json_path, csv_path;
    bool want_table = false;

    auto need_value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket") {
            socket_path = need_value(i);
        } else if (arg == "--ping" || arg == "--stats" ||
                   arg == "--shutdown") {
            op = arg.substr(2);
        } else if (arg == "--id") {
            id = need_value(i);
        } else if (arg == "--wait-ms") {
            long long v = 0;
            if (!parseInt(need_value(i), &v) || v < 0)
                die("--wait-ms needs a non-negative integer");
            wait_ms = v == 0 ? -1 : static_cast<int>(v);
        } else if (arg == "--engine") {
            engine = need_value(i);
            if (engine != "core" && engine != "both")
                die("--engine must be core or both");
        } else if (arg == "--json") {
            json_path = need_value(i);
        } else if (arg == "--csv") {
            csv_path = need_value(i);
        } else if (arg == "--table") {
            want_table = true;
        } else if (i + 1 < argc && setGridFlag(spec, arg, argv[i + 1])) {
            ++i;
        } else {
            usage(argv[0]);
        }
    }
    if (socket_path.empty())
        die("--socket is required");

    Client client;
    std::string error;
    if (!client.connect(socket_path, &error))
        die("cannot connect: " + error);

    if (op == "ping") {
        if (!client.ping(&error))
            die("ping failed: " + error);
        std::printf("pong\n");
        return 0;
    }
    if (op == "stats") {
        Json stats;
        if (!client.stats(&stats, &error))
            die("stats failed: " + error);
        if (!json_path.empty())
            writeTextOutput(json_path, stats.dump(2) + "\n",
                            "JSON");
        else
            printStatsTables(stats, std::cout);
        return 0;
    }
    if (op == "shutdown") {
        if (!client.shutdownServer(&error))
            die("shutdown failed: " + error);
        std::fprintf(stderr, "smtsim-client: daemon says bye\n");
        return 0;
    }

    if (spec.workloads.empty())
        spec.workloads.push_back(WorkloadSpec::rayTrace(24, 24));
    spec.include_baseline = engine == "both";

    const SubmitOutcome out = client.submitAndWait(id, spec,
                                                   wait_ms);
    if (!out.done()) {
        std::fprintf(stderr, "smtsim-client: %s%s%s\n",
                     out.status.c_str(),
                     out.error.empty() ? "" : ": ",
                     out.error.c_str());
        return out.overloaded() ? 1 : 2;
    }

    ResultSet rs;
    rs.results = out.results;
    if (!json_path.empty())
        writeTextOutput(json_path, rs.toJson().dump(2) + "\n",
                        "JSON");
    if (!csv_path.empty())
        writeTextOutput(csv_path, rs.toCsv(), "CSV");
    if (want_table || (json_path.empty() && csv_path.empty()))
        rs.toTable("sweep results (" + id + ")").print(std::cout);

    std::fprintf(stderr,
                 "%zu job(s): %zu failed, %zu cache hit(s), %zu "
                 "coalesced\n",
                 out.jobs, out.failures, out.cache_hits,
                 out.coalesced);
    return out.failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Bad flag values and unwritable outputs end here, named.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        die(e.what());
    }
}
