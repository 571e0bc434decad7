/**
 * @file
 * serve-mix: an in-process serve::Server on a unix socket with a
 * fixed worker count, driven as a closed loop by a fixed number of
 * client connections. An op is one submission, from send to its
 * terminal event. Every block of ops starts with a herd (every
 * client submits one identical cold spec at once) followed by a
 * seed-shuffled mix of warm hits and distinct cold specs in the
 * proportions of the serve load test's recorded run, plus one
 * multi-cell sweep, one lint-rejected program and one malformed spec.
 *
 * Cold specs differ only in their cycle budget, which moves the
 * cache key but not the statistics of a run that finishes within it,
 * so every result is checked against one stored value per
 * (workload, slots) whatever the seed.
 */

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "base/random.hh"
#include "base/sockio.hh"
#include "bench.hh"
#include "lab/lab.hh"
#include "lab/spec_json.hh"
#include "serve/serve.hh"

namespace perfbench
{

using namespace smtsim;
using namespace smtsim::serve;
namespace fs = std::filesystem;

namespace
{

/**
 * One worker process. With two, the daemon can send a sweep's `done`
 * before a result another dispatcher published for it (both write
 * after releasing the scheduling lock), and the client then reports
 * the sweep short of a result; about one run in ten hit it.
 */
constexpr int kWorkers = 1;
/** Client connections; every herd has one submission from each. */
constexpr int kClients = 4;
/** Timing window: completions within one half second. */
constexpr double kWindowSeconds = 0.5;
/**
 * tail_ms percentile (bench.hh summarize()): a 30 s run completes
 * some 170000 submissions, 170 of them beyond p99.9.
 */
constexpr double kTailPct = 99.9;

/**
 * The block. BENCH_serve.json, the recorded run of bench_serve, sent
 * one herd of 1200 identical submissions from 32 clients (1 simulated,
 * 31 coalesced, 1168 served from the cache) and 96 distinct cold
 * jobs. Scaled by kClients/32, a block has one herd member, 146 cache
 * hits and 12 cold specs, rounded here to whole ops per client. The
 * record holds no multi-cell sweeps and no rejected submissions: each
 * appears once per block, on one client in turn, the least that
 * still exercises the sweep path, the lint gate and the protocol's
 * error path.
 */
constexpr int kWarmPerClient = 37;
constexpr int kColdPerClient = 3;
/**
 * Set-ups before, and again after, the timed phase. Fewer than the
 * other workloads take: each is followed by an untimed shutdown that
 * waits up to 250 ms for the daemon's accept loop.
 */
constexpr int kServeSetUps = 6;
/** Event-gap timeout for one submission. */
constexpr int kTimeoutMs = 60000;
/** Cold results per client a traced run re-reads from the cache. */
constexpr std::size_t kCacheProbes = 100;

/** Cycle budgets: warm specs share one; herds and cold specs get
 *  unique ones (disjoint ranges) so their cache keys are new. */
constexpr Cycle kWarmCycles = 10'000'000;
constexpr Cycle kHerdCycles = 20'000'000;
constexpr Cycle kColdCycles = 30'000'000;

/** Small workloads: the simulation is a minor share of an op. */
struct Base
{
    const char *name;
    lab::WorkloadSpec spec;
};

const std::vector<Base> &
bases()
{
    static const std::vector<Base> b = {
        {"matmul", lab::WorkloadSpec::matmul(4)},
        {"bsearch", lab::WorkloadSpec::bsearch(64, 8)},
        {"listwalk", lab::WorkloadSpec::listWalk(24)},
        {"livermore1", lab::WorkloadSpec::livermore1(48)},
        {"stencil", lab::WorkloadSpec::stencil(8, 8, 1)},
        {"tokenring", lab::WorkloadSpec::tokenRing(4)},
        {"raytrace", lab::WorkloadSpec::rayTrace(4, 4, 2)},
        {"radiosity", lab::WorkloadSpec::radiosity(6)},
        {"recurrence", lab::WorkloadSpec::recurrence(24)},
    };
    return b;
}

const int kSlots[] = {1, 2, 4, 8};

enum class Kind { Warm, Herd, Cold, Sweep, LintReject, Malformed };
constexpr int kKinds = 6;

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Warm: return "warm";
      case Kind::Herd: return "herd";
      case Kind::Cold: return "cold";
      case Kind::Sweep: return "sweep";
      case Kind::LintReject: return "reject";
      case Kind::Malformed: return "malformed";
    }
    return "?";
}

/** Client @p c's ops in block @p block after its herd submission. */
std::vector<Kind>
blockOps(int c, int block)
{
    std::vector<Kind> kinds(kWarmPerClient, Kind::Warm);
    kinds.insert(kinds.end(), kColdPerClient, Kind::Cold);
    const Kind once[] = {Kind::Sweep, Kind::LintReject, Kind::Malformed};
    for (int i = 0; i < 3; ++i) {
        if ((block + i) % kClients == c)
            kinds.push_back(once[i]);
    }
    return kinds;
}

lab::ExperimentSpec
specOf(const Base &b, std::vector<int> slots, Cycle max_cycles)
{
    lab::ExperimentSpec s;
    s.name = "perfbench";
    s.workloads = {b.spec};
    s.slots = std::move(slots);
    s.core_template.max_cycles = max_cycles;
    return s;
}

/** Slot count encoded in a job id ("kind/s4/f-1/..."). */
int
slotsOfId(const std::string &id)
{
    const std::size_t p = id.find("/s");
    return p == std::string::npos ? -1 : std::atoi(id.c_str() + p + 2);
}

/** Fold one event into a submission outcome; true when terminal. */
bool
foldEvent(Event &ev, const std::string &id, SubmitOutcome &out)
{
    if (ev.id != id && !ev.id.empty())
        return false;
    if (ev.type == "result") {
        out.results.push_back(std::move(ev.result));
        out.sources.push_back(ev.source);
    } else if (ev.type == "done") {
        out.status = "done";
        out.jobs = static_cast<std::size_t>(ev.payload.at("jobs").asInt());
        return true;
    } else if (ev.type == "rejected" || ev.type == "overloaded" ||
               ev.type == "error") {
        out.status = ev.type == "error" ? "rejected" : ev.type;
        out.error = ev.error;
        return true;
    }
    return false;
}

/**
 * One client connection. Untraced, it submits through
 * Client::submitAndWait; traced, it calls the parts that composes
 * (encode, write, wait, decode), each in a span.
 */
class Conn
{
  public:
    bool
    connect(const std::string &path, Tracer *tr, std::string *err)
    {
        tr_ = tr;
        if (!tr_)
            return client_.connect(path, err);
        fd_ = connectUnix(path, err);
        reader_ = std::make_unique<LineReader>(fd_);
        return fd_.valid();
    }

    SubmitOutcome
    submit(const std::string &id, const lab::ExperimentSpec &spec)
    {
        if (!tr_)
            return client_.submitAndWait(id, spec, kTimeoutMs);
        std::string line;
        {
            SpanScope s(tr_, "protocol.encode");
            line = submitLine(id, spec);
        }
        return tracedRoundTrip(id, line);
    }

    SubmitOutcome
    submitRaw(const std::string &id, const std::string &line)
    {
        if (tr_)
            return tracedRoundTrip(id, line);
        SubmitOutcome out;
        out.status = "disconnected";
        if (!client_.sendRaw(line))
            return out;
        Event ev;
        while (client_.readEvent(&ev, kTimeoutMs) == ReadStatus::Ok) {
            if (foldEvent(ev, id, out))
                return out;
        }
        out.status = "disconnected";
        return out;
    }

  private:
    SubmitOutcome
    tracedRoundTrip(const std::string &id, const std::string &line)
    {
        SubmitOutcome out;
        out.status = "disconnected";
        {
            SpanScope s(tr_, "sock.write");
            if (!writeAll(fd_, line))
                return out;
        }
        while (true) {
            std::string text;
            {
                SpanScope s(tr_, "serve.wait");
                if (reader_->readLine(&text, kTimeoutMs) !=
                    ReadStatus::Ok)
                    return out;
            }
            Event ev;
            {
                SpanScope s(tr_, "protocol.decode");
                ev = parseEvent(text);
            }
            if (foldEvent(ev, id, out))
                return out;
        }
    }

    Tracer *tr_ = nullptr;
    Client client_;
    Fd fd_;
    std::unique_ptr<LineReader> reader_;
};

/**
 * The submissions that completed within one window. Only a float per
 * op is kept, and nothing else per op outside the traced run: a faster
 * daemon completes more ops in a run, and the benchmark's own per-op
 * records are part of peak_rss_mb.
 */
struct WindowOps
{
    std::vector<float> latencies;
    std::uint64_t insns = 0;
};

/** What the clients of one phase measured. */
struct PhaseResult
{
    /** kWindowSeconds of completion time each. */
    std::vector<WindowOps> windows;
    std::uint64_t attempted = 0;
    std::uint64_t herds = 0;
    std::uint64_t submissions_executed = 0;  ///< expected sims
    std::vector<std::string> failures;
    /** Traced runs only: every latency, and latencies by kind. */
    std::vector<double> latencies;
    std::array<std::vector<double>, kKinds> by_kind;
    /** Traced runs only: host seconds workers reported for "sim". */
    std::vector<double> worker_s;
    /** Traced runs: jobs of some cold results, for the cache probe. */
    std::vector<lab::Job> cold_jobs;
};

struct Shared
{
    const ExpectedTable *expected = nullptr;
    std::uint64_t seed = 1;
    /** Record the traced run's per-op detail. */
    bool detail = false;
    std::size_t windows = 1;
    /** Offset of this phase's unique cycle budgets. */
    Cycle unique_base = 0;
    Clock::time_point start;
    Clock::time_point deadline;
    std::atomic<bool> stop{false};

    std::mutex mu;
    /** Herd block -> sources of its submissions. */
    std::map<int, std::vector<std::string>> herd_sources;
    PhaseResult result;
};

struct StopCheck
{
    Shared *shared;
    void
    operator()() noexcept
    {
        if (Clock::now() >= shared->deadline)
            shared->stop.store(true);
    }
};

/**
 * Check one outcome against what its kind must produce. @return ""
 * or the failure.
 */
std::string
checkOutcome(Kind kind, const SubmitOutcome &out, const Base *b,
             const ExpectedTable &expected, std::uint64_t *insns)
{
    if (kind == Kind::LintReject) {
        if (out.status != "rejected")
            return "lint-error program came back " + out.status;
        if (out.error.find("Q009") == std::string::npos)
            return "lint rejection lacks its Q009 diagnostic: " +
                   out.error;
        return {};
    }
    if (kind == Kind::Malformed) {
        if (out.status != "rejected")
            return "malformed spec came back " + out.status;
        if (out.error.find("frobnicate") == std::string::npos)
            return "malformed-spec rejection lacks its diagnostic: " +
                   out.error;
        return {};
    }
    if (out.status != "done")
        return std::string(kindName(kind)) + " ended " + out.status +
               ": " + out.error;
    const std::size_t want = kind == Kind::Sweep ? 4 : 1;
    if (out.results.size() != want)
        return std::string(kindName(kind)) + " returned " +
               std::to_string(out.results.size()) + " results";
    for (std::size_t i = 0; i < out.results.size(); ++i) {
        const lab::JobResult &r = out.results[i];
        const std::string &src = out.sources[i];
        if (!r.ok)
            return r.id + ": " + r.error;
        if (kind == Kind::Warm && src != "cache")
            return "warm submission served from " + src;
        if ((kind == Kind::Cold || kind == Kind::Sweep) && src != "sim")
            return "cold submission served from " + src;
        const std::string diff = expected.check(
            "serve",
            std::string(b->name) + "/s" + std::to_string(slotsOfId(r.id)),
            r.stats);
        if (!diff.empty())
            return diff;
        *insns += r.stats.instructions;
    }
    return {};
}

/** One client's closed loop. */
void
clientLoop(int c, const std::string &socket, Shared &sh,
           std::barrier<StopCheck> &bar, Tracer *tr)
{
    Conn conn;
    std::string err;
    const bool connected = conn.connect(socket, tr, &err);
    Rng rng(sh.seed * 7919 + static_cast<std::uint64_t>(c) + 1);
    const auto &bs = bases();
    PhaseResult mine;
    mine.windows.resize(sh.windows);
    std::map<int, std::string> herd_src;
    std::uint64_t unique =
        sh.unique_base + 1'000'000 + static_cast<std::uint64_t>(c);

    auto run = [&](Kind kind, const std::string &id, const Base *b,
                   const std::function<SubmitOutcome()> &submit) {
        if (tr)
            tr->setOp(static_cast<int>(mine.attempted));
        const auto t0 = Clock::now();
        SubmitOutcome out;
        try {
            SpanScope s(tr, "op");
            out = submit();
        } catch (const std::exception &e) {
            // A broken event line: the op fails, the client stays in
            // step with the others' barriers.
            out = SubmitOutcome{};
            out.status = "error";
            out.error = e.what();
        }
        const double lat = secondsSince(t0);
        ++mine.attempted;
        std::uint64_t insns = 0;
        const std::string why =
            checkOutcome(kind, out, b, *sh.expected, &insns);
        const auto w =
            static_cast<std::size_t>(secondsSince(sh.start) / kWindowSeconds);
        if (w < mine.windows.size()) {
            mine.windows[w].latencies.push_back(static_cast<float>(lat));
            mine.windows[w].insns += insns;
        }
        if (!why.empty())
            mine.failures.push_back(id + ": " + why);
        if (!sh.detail)
            return out;
        mine.latencies.push_back(lat);
        const int k = kind == Kind::Malformed
                          ? static_cast<int>(Kind::LintReject)
                          : static_cast<int>(kind);
        mine.by_kind[static_cast<std::size_t>(k)].push_back(lat);
        for (std::size_t i = 0; i < out.sources.size(); ++i) {
            if (out.sources[i] == "sim")
                mine.worker_s.push_back(out.results[i].wall_seconds);
        }
        return out;
    };

    for (int block = 0;; ++block) {
        if (!connected) {
            bar.arrive_and_drop();
            break;
        }
        bar.arrive_and_wait();
        if (sh.stop.load())
            break;

        // The herd: the same spec from every client, at once.
        Rng hr(sh.seed * 104729 + static_cast<std::uint64_t>(block));
        const Base &hb = bs[hr.next() % bs.size()];
        const lab::ExperimentSpec herd =
            specOf(hb, {kSlots[hr.next() % 4]},
                   kHerdCycles + sh.unique_base +
                       static_cast<Cycle>(block));
        const std::string hid =
            "h" + std::to_string(block) + "c" + std::to_string(c);
        const SubmitOutcome hout = run(Kind::Herd, hid, &hb, [&] {
            return conn.submit(hid, herd);
        });
        herd_src[block] = hout.sources.empty() ? hout.status
                                               : hout.sources[0];

        std::vector<Kind> kinds = blockOps(c, block);
        for (std::size_t i = kinds.size() - 1; i > 0; --i)
            std::swap(kinds[i], kinds[rng.next() % (i + 1)]);
        for (Kind kind : kinds) {
            const Base &b = bs[rng.next() % bs.size()];
            const int slots = kSlots[rng.next() % 4];
            const std::string id = std::string(kindName(kind)) +
                                   std::to_string(unique);
            switch (kind) {
              case Kind::Warm:
                run(kind, id, &b, [&] {
                    return conn.submit(id, specOf(b, {4}, kWarmCycles));
                });
                break;
              case Kind::Cold: {
                const lab::ExperimentSpec spec =
                    specOf(b, {slots}, kColdCycles + unique);
                const SubmitOutcome out = run(kind, id, &b, [&] {
                    return conn.submit(id, spec);
                });
                if (tr && out.done() && !out.results.empty() &&
                    mine.cold_jobs.size() < kCacheProbes)
                    mine.cold_jobs.push_back(spec.expand().front());
                ++mine.submissions_executed;
                break;
              }
              case Kind::Sweep:
                run(kind, id, &b, [&] {
                    return conn.submit(
                        id, specOf(b, {1, 2, 4, 8}, kColdCycles + unique));
                });
                mine.submissions_executed += 4;
                break;
              case Kind::LintReject: {
                lab::ExperimentSpec spec = specOf(b, {4}, kWarmCycles);
                spec.workloads = {lab::WorkloadSpec::tokenRing(
                    2 + static_cast<int>(rng.next() % 6), 1)};
                run(kind, id, nullptr,
                    [&] { return conn.submit(id, spec); });
                break;
              }
              case Kind::Malformed: {
                Json doc = lab::experimentSpecToJson(
                    specOf(b, {slots}, kWarmCycles));
                doc.set("frobnicate", Json(1));
                Json req = Json::object();
                req.set("v", Json(kProtocolVersion));
                req.set("op", Json("submit"));
                req.set("id", Json(id));
                req.set("spec", doc);
                const std::string line = req.dump() + "\n";
                run(kind, id, nullptr,
                    [&] { return conn.submitRaw(id, line); });
                break;
              }
              case Kind::Herd:
                break;
            }
            unique += kClients;
        }
    }

    std::lock_guard<std::mutex> lock(sh.mu);
    if (!connected)
        sh.result.failures.push_back("client " + std::to_string(c) +
                                     " could not connect: " + err);
    for (const auto &[block, src] : herd_src)
        sh.herd_sources[block].push_back(src);
    PhaseResult &r = sh.result;
    r.windows.resize(sh.windows);
    for (std::size_t w = 0; w < sh.windows; ++w) {
        std::vector<float> &to = r.windows[w].latencies;
        const std::vector<float> &from = mine.windows[w].latencies;
        to.insert(to.end(), from.begin(), from.end());
        r.windows[w].insns += mine.windows[w].insns;
    }
    r.latencies.insert(r.latencies.end(), mine.latencies.begin(),
                       mine.latencies.end());
    for (int k = 0; k < kKinds; ++k)
        r.by_kind[k].insert(r.by_kind[k].end(), mine.by_kind[k].begin(),
                            mine.by_kind[k].end());
    r.attempted += mine.attempted;
    r.submissions_executed += mine.submissions_executed;
    r.failures.insert(r.failures.end(), mine.failures.begin(),
                      mine.failures.end());
    r.worker_s.insert(r.worker_s.end(), mine.worker_s.begin(),
                      mine.worker_s.end());
    r.cold_jobs.insert(r.cold_jobs.end(), mine.cold_jobs.begin(),
                       mine.cold_jobs.end());
}

/**
 * Run the closed loop for @p seconds; traced when @p tracers. With
 * @p detail, also keep every op's latency by kind and the workers'
 * times.
 */
PhaseResult
drive(const std::string &socket, const ExpectedTable &expected,
      std::uint64_t seed, double seconds, Cycle unique_base,
      std::vector<Tracer> *tracers, bool detail)
{
    Shared sh;
    sh.expected = &expected;
    sh.seed = seed;
    sh.detail = detail;
    sh.windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds / kWindowSeconds));
    sh.unique_base = unique_base;
    sh.start = Clock::now();
    sh.deadline = sh.start + std::chrono::duration_cast<
                                     Clock::duration>(
                                     std::chrono::duration<double>(seconds));
    std::barrier<StopCheck> bar(kClients, StopCheck{&sh});
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        Tracer *tr = tracers ? &(*tracers)[static_cast<std::size_t>(c)]
                             : nullptr;
        threads.emplace_back(
            [&, c, tr] { clientLoop(c, socket, sh, bar, tr); });
    }
    for (std::thread &t : threads)
        t.join();

    // A herd executes exactly once: one "sim", every other member
    // coalesced ("dedup") or served the record the leader stored.
    for (const auto &[block, srcs] : sh.herd_sources) {
        ++sh.result.herds;
        ++sh.result.submissions_executed;
        const auto sims = std::count(srcs.begin(), srcs.end(), "sim");
        const auto shared = std::count_if(
            srcs.begin(), srcs.end(), [](const std::string &src) {
                return src == "dedup" || src == "cache";
            });
        if (sims != 1 || sims + shared != kClients) {
            std::string all;
            for (const std::string &src : srcs)
                all += " " + src;
            sh.result.failures.push_back("herd " + std::to_string(block) +
                                         " sources:" + all);
        }
    }
    return std::move(sh.result);
}

/** A started server with its clients' warm set filled. */
struct Instance
{
    std::string dir;
    std::string socket;
    std::unique_ptr<Server> server;
    std::uint64_t prefilled = 0;
};

std::unique_ptr<Instance>
setUp(const std::string &scratch, int rep, const ExpectedTable &expected,
      Report &report)
{
    auto inst = std::make_unique<Instance>();
    inst->dir = scratch + "/serve-" + std::to_string(::getpid()) + "-" +
                std::to_string(rep);
    fs::remove_all(inst->dir);
    fs::create_directories(inst->dir);
    inst->socket = inst->dir + "/sock";
    ServeOptions so;
    so.socket_path = inst->socket;
    so.num_workers = kWorkers;
    so.cache_dir = inst->dir + "/cache";
    inst->server = std::make_unique<Server>(std::move(so));
    std::string err;
    if (!inst->server->start(&err)) {
        report.fail("server start: " + err);
        return nullptr;
    }
    Client client;
    if (!client.connect(inst->socket, &err)) {
        report.fail("prefill connect: " + err);
        return nullptr;
    }
    for (const Base &b : bases()) {
        const SubmitOutcome out = client.submitAndWait(
            std::string("warm-") + b.name, specOf(b, {4}, kWarmCycles),
            kTimeoutMs);
        std::uint64_t insns = 0;
        const std::string why =
            checkOutcome(Kind::Cold, out, &b, expected, &insns);
        if (!why.empty()) {
            report.fail("prefill " + std::string(b.name) + ": " + why);
            return nullptr;
        }
        ++inst->prefilled;
    }
    return inst;
}

void
tearDown(std::unique_ptr<Instance> inst)
{
    if (!inst)
        return;
    inst->server->stop();
    std::error_code ec;
    fs::remove_all(inst->dir, ec);
}

void
checkPhase(const PhaseResult &p, Report &report)
{
    report.attempted += p.attempted;
    for (const std::string &f : p.failures)
        report.failOp(f);
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** Times ResultCache::load / store on the run's cold results. */
void
probeCache(const Instance &inst, const PhaseResult &p, Report &report)
{
    Tracer tr;
    lab::ResultCache cache(inst.dir + "/cache");
    lab::ResultCache copy(inst.dir + "/cache-probe");
    for (std::size_t i = 0; i < p.cold_jobs.size(); ++i) {
        lab::JobResult r;
        bool hit = false;
        {
            SpanScope s(&tr, "lab.cache_load");
            hit = cache.load(p.cold_jobs[i], &r);
        }
        if (!hit) {
            report.fail("cold result missing from the cache: " +
                        p.cold_jobs[i].id);
            return;
        }
        SpanScope s(&tr, "lab.cache_store");
        copy.store(p.cold_jobs[i], r);
    }
    const auto t = tr.totals();
    auto per_call = [&](const char *name) {
        const auto it = t.find(name);
        return it == t.end() ? 0.0
                             : it->second.total_ns / 1e6 /
                                   static_cast<double>(it->second.calls);
    };
    setMetric(report, "lab.cache_load_ms", per_call("lab.cache_load"));
    setMetric(report, "lab.cache_store_ms", per_call("lab.cache_store"));
}

void
runTraced(const Options &opts, const ExpectedTable &expected,
          Instance &inst, Report &report)
{
    addPerLayerDefaults(report);
    const PhaseResult plain = drive(inst.socket, expected, opts.seed,
                                    opts.seconds / 2, 0, nullptr, true);
    std::vector<Tracer> tracers(kClients);
    const PhaseResult traced =
        drive(inst.socket, expected, opts.seed, opts.seconds / 2,
              5'000'000, &tracers, true);
    checkPhase(plain, report);
    checkPhase(traced, report);
    const ServerStats s = inst.server->stats();
    const ServerHistograms h = inst.server->histograms();

    Tracer all;
    for (const Tracer &t : tracers)
        all.append(t);
    const auto t = all.totals();
    auto per_call_us = [&](const char *name) {
        const auto it = t.find(name);
        return it == t.end() ? 0.0
                             : it->second.total_ns / 1e3 /
                                   static_cast<double>(it->second.calls);
    };
    const char *names[] = {"serve.rtt_ms.warm", "serve.rtt_ms.herd",
                           "serve.rtt_ms.cold", "serve.rtt_ms.sweep",
                           "serve.rtt_ms.reject"};
    for (int k = 0; k < 5; ++k)
        setMetric(report, names[k],
                  median(plain.by_kind[static_cast<std::size_t>(k)]) *
                      1e3);
    const double worker_ms = mean(plain.worker_s) * 1e3;
    setMetric(report, "serve.worker_ms", worker_ms);
    setMetric(report, "serve.overhead_ms",
              median(plain.by_kind[static_cast<int>(Kind::Cold)]) * 1e3 -
                  worker_ms);
    setMetric(report, "serve.queue_depth_max",
              static_cast<double>(h.queue_depth.max()));
    setMetric(report, "protocol.encode_us", per_call_us("protocol.encode"));
    setMetric(report, "protocol.decode_us", per_call_us("protocol.decode"));
    const double kops =
        static_cast<double>(s.submissions) / 1000.0;
    setMetric(report, "serve.executed", s.executed / kops);
    setMetric(report, "serve.coalesced", s.coalesced / kops);
    setMetric(report, "serve.cache_hits", s.cache_hits / kops);
    setMetric(report, "serve.lint_rejected", s.lint_rejected / kops);
    setMetric(report, "serve.lint_cache_hits", s.lint_cache_hits / kops);
    setMetric(report, "serve.retries", static_cast<double>(s.retries));
    setMetric(report, "serve.worker_restarts",
              static_cast<double>(s.worker_restarts));
    setMetric(report, "serve.dedup_ratio",
              static_cast<double>(s.coalesced + s.cache_hits) /
                  static_cast<double>(s.jobs_submitted));
    setMetric(report, "lab.cache_hit_ratio",
              static_cast<double>(s.cache_hits) /
                  static_cast<double>(s.cache_hits + s.cache_misses));
    probeCache(inst, traced, report);
    setMetric(report, "trace.overhead_pct",
              100.0 * (median(traced.latencies) / median(plain.latencies) -
                       1.0));
    setMetric(report, "trace.unattributed_pct",
              100.0 * t.at("op").self_ns / t.at("op").total_ns);
    std::printf("traced: %llu + %llu submissions, %llu herds\n",
                static_cast<unsigned long long>(plain.attempted),
                static_cast<unsigned long long>(traced.attempted),
                static_cast<unsigned long long>(plain.herds + traced.herds));
    all.write(opts.scratch + "/spans-serve-mix.tsv");
}

} // namespace

void
runServeMix(const Options &opts, const ExpectedTable &expected,
            Report &report)
{
    raiseFdLimit();
    // Set-up starts a worker process, which is sensitive to the host's
    // state; sampling it before and after the timed phase spans more
    // of the run than back-to-back repeats do.
    std::vector<double> setup;
    std::unique_ptr<Instance> inst;
    int rep = 0;
    auto timedSetUp = [&](int times) {
        for (int i = 0; i < times; ++i) {
            tearDown(std::move(inst));
            const auto t0 = Clock::now();
            inst = setUp(opts.scratch, rep++, expected, report);
            setup.push_back(secondsSince(t0));
            if (!inst)
                return false;
        }
        return true;
    };
    if (!timedSetUp(kServeSetUps))
        return;
    if (opts.trace) {
        runTraced(opts, expected, *inst, report);
        tearDown(std::move(inst));
        return;
    }

    const auto t0 = Clock::now();
    const PhaseResult p = drive(inst->socket, expected, opts.seed,
                                opts.seconds, 0, nullptr, false);
    const double wall = secondsSince(t0);
    double rss = peakRssMb();
    for (int pid : inst->server->workerPids())
        rss += peakRssMbOf(pid);
    checkPhase(p, report);

    // Each window covers its half second of completion time whether
    // or not an op completed in it.
    std::vector<Window> windows;
    for (const WindowOps &ops : p.windows) {
        Window w;
        w.seconds = kWindowSeconds;
        w.insns = ops.insns;
        w.latencies.assign(ops.latencies.begin(), ops.latencies.end());
        windows.push_back(std::move(w));
    }
    const ServerStats s = inst->server->stats();
    if (s.executed != inst->prefilled + p.submissions_executed)
        report.fail("server executed " + std::to_string(s.executed) +
                    " jobs, expected " +
                    std::to_string(inst->prefilled +
                                   p.submissions_executed));
    std::printf("serve-mix: %llu submissions (%llu herds) in %.3f s; "
                "executed %llu, coalesced %llu, cache hits %llu, lint "
                "rejected %llu\n",
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.herds), wall,
                static_cast<unsigned long long>(s.executed),
                static_cast<unsigned long long>(s.coalesced),
                static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(s.lint_rejected));
    if (!timedSetUp(kServeSetUps))
        return;
    tearDown(std::move(inst));

    report.add("setup_s", "s", median(setup));
    reportWindows(report, windows, kTailPct);
    report.add("peak_rss_mb", "MB", rss);
    report.add("paper_err_pct", "%", paperErrorPass(expected, report));
}

std::vector<std::string>
recordServeMix()
{
    std::vector<std::string> lines;
    for (const Base &b : bases()) {
        for (int slots : kSlots) {
            // Two budgets: the stored value must not depend on it.
            RunStats first;
            for (Cycle budget : {kWarmCycles, kColdCycles + 12345}) {
                const lab::Job job =
                    specOf(b, {slots}, budget).expand().front();
                const lab::JobResult r = lab::simulateJob(job);
                if (!r.ok) {
                    std::fprintf(stderr, "record: serve %s/s%d: %s\n",
                                 b.name, slots, r.error.c_str());
                    return {};
                }
                if (budget == kWarmCycles) {
                    first = r.stats;
                } else if (statsHash(first) != statsHash(r.stats)) {
                    std::fprintf(stderr,
                                 "record: serve %s/s%d depends on the "
                                 "cycle budget\n",
                                 b.name, slots);
                    return {};
                }
            }
            lines.push_back(expectedLine(
                "serve", std::string(b.name) + "/s" + std::to_string(slots),
                first.cycles, first.instructions, statsHash(first)));
        }
    }
    return lines;
}

} // namespace perfbench
