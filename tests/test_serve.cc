/**
 * @file
 * Tests for smtsim::serve: the wire protocol (including the strict
 * Job JSON round-trip that the daemon's dedup/cache layers depend
 * on), the fair admission queue, single-flight coalescing, the
 * crash-isolated worker pool, and the full daemon over a real unix
 * socket — submit/stream, thundering herd, overload shedding,
 * worker crash recovery and clean shutdown.
 *
 * Worker-pool and server tests exec the real smtsim-serve binary
 * (SMTSIM_SERVE_BIN, injected by CMake) in --worker mode, or a
 * /bin/sh stand-in when a deterministic crash/hang is needed.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "lab/lab.hh"
#include "serve/serve.hh"

using namespace smtsim;
using namespace smtsim::lab;
using namespace smtsim::serve;

namespace fs = std::filesystem;

namespace
{

/** Fresh scratch dir per test, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
    {
        path = fs::temp_directory_path() /
               ("smtsim-serve-" + tag + "-" +
                std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string str(const char *leaf) const
    {
        return (path / leaf).string();
    }
};

std::vector<std::string>
realWorker()
{
    return {SMTSIM_SERVE_BIN, "--worker"};
}

/** Consumes the job line, then exits: a deterministic crasher. */
std::vector<std::string>
crashingWorker()
{
    return {"/bin/sh", "-c", "read line; exit 1"};
}

/**
 * Consumes the job line, then hangs: a deterministic staller. The
 * exec matters — the pool kills the worker by pid, and a sleep
 * forked by the shell would outlive that kill holding the daemon's
 * pipes (and the test harness's output pipe) open.
 */
std::vector<std::string>
hangingWorker()
{
    return {"/bin/sh", "-c", "read line; exec sleep 600"};
}

ExperimentSpec
smallSpec(int n = 8, std::vector<int> slots = {1, 2})
{
    ExperimentSpec spec;
    spec.name = "test";
    spec.workloads = {WorkloadSpec::matmul(n)};
    spec.slots = std::move(slots);
    return spec;
}

Job
quickJob(int n = 8)
{
    CoreConfig cfg;
    cfg.num_slots = 2;
    return coreJob("quick", WorkloadSpec::matmul(n), cfg);
}

QueuedJob
queued(const std::string &id)
{
    Job j = quickJob();
    j.id = id;
    return {j, j.cacheKey()};
}

} // namespace

// -- protocol: the strict JSON round-trip contract ----------------

TEST(ServeProtocol, JobRoundTripPreservesCacheKey)
{
    // Every grid axis exercised, so every serialized field is load-
    // bearing for at least one job in this set.
    ExperimentSpec spec;
    spec.workloads = {WorkloadSpec::matmul(6),
                      WorkloadSpec::rayTrace(8, 8)};
    spec.slots = {1, 4};
    spec.frames = {-1, 6};
    spec.lsu = {1, 2};
    spec.widths = {1, 2};
    spec.standby = {false, true};
    spec.rotation_intervals = {4, 16};
    spec.include_baseline = true;

    std::vector<Job> jobs = spec.expand();
    jobs.push_back(machineJob("machine", WorkloadSpec::matmul(6),
                              CoreConfig{}));
    ASSERT_GT(jobs.size(), 32u);

    for (const Job &job : jobs) {
        const Job back = jobFromJson(jobToJson(job));
        EXPECT_EQ(back.cacheKey(), job.cacheKey()) << job.id;
        EXPECT_EQ(back.canonical(), job.canonical()) << job.id;
        EXPECT_EQ(back.id, job.id);
    }
}

TEST(ServeProtocol, NonDefaultCoreFieldsSurviveRoundTrip)
{
    CoreConfig cfg;
    cfg.num_slots = 8;
    cfg.num_frames = 12;
    cfg.width = 2;
    cfg.standby_enabled = false;
    cfg.rotation_mode = RotationMode::Explicit;
    cfg.rotation_interval = 32;
    cfg.private_icache = true;
    cfg.icache_cycles = 3;
    cfg.iqueue_words = 64;
    cfg.queue_reg_depth = 6;
    cfg.branch_gap = 7;
    cfg.context_switch_cycles = 5;
    cfg.remote.base = 0x00400000;
    cfg.remote.size = 0x10000;
    cfg.remote.latency = 250;
    cfg.fast_forward = false;
    cfg.max_cycles = 123456789;

    const Job job = coreJob("dense", WorkloadSpec::stencil(8, 6, 1),
                            cfg);
    const Job back = jobFromJson(jobToJson(job));
    EXPECT_EQ(back.cacheKey(), job.cacheKey());
    EXPECT_EQ(back.canonical(), job.canonical());
}

TEST(ServeProtocol, UnknownJobMemberIsRejected)
{
    Json j = jobToJson(quickJob());
    j.set("turbo_mode", Json(true));
    EXPECT_THROW(jobFromJson(j), JsonParseError);
}

TEST(ServeProtocol, UnknownSpecMemberIsRejected)
{
    Json j = experimentSpecToJson(smallSpec());
    j.set("gpu_count", Json(4));
    EXPECT_THROW(experimentSpecFromJson(j), JsonParseError);
}

TEST(ServeProtocol, ImpossibleGridsAreParseErrors)
{
    // expand() would throw std::invalid_argument on these; the
    // parser must catch them earlier with a JsonParseError so
    // admission rejects with a diagnostic instead of crashing.
    Json j = experimentSpecToJson(smallSpec());
    j.set("slots", Json::array());
    EXPECT_THROW(experimentSpecFromJson(j), JsonParseError);

    j = experimentSpecToJson(smallSpec());
    Json dup = Json::array();
    dup.push(Json(4));
    dup.push(Json(4));
    j.set("slots", std::move(dup));
    EXPECT_THROW(experimentSpecFromJson(j), JsonParseError);

    j = experimentSpecToJson(smallSpec());
    j.set("workloads", Json::array());
    EXPECT_THROW(experimentSpecFromJson(j), JsonParseError);
}

TEST(ServeProtocol, ExperimentSpecRoundTripExpandsIdentically)
{
    ExperimentSpec spec = smallSpec(6, {1, 2, 4});
    spec.standby = {false, true};
    spec.include_baseline = true;
    const ExperimentSpec back =
        experimentSpecFromJson(experimentSpecToJson(spec));

    const std::vector<Job> a = spec.expand();
    const std::vector<Job> b = back.expand();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].cacheKey(), b[i].cacheKey());
    }
}

TEST(ServeProtocol, EventLinesRoundTrip)
{
    JobResult r;
    r.id = "p1";
    r.key = "deadbeefdeadbeef";
    r.ok = true;
    r.stats.cycles = 1234;
    r.stats.instructions = 997;
    r.wall_seconds = 0.25;

    Event ev = parseEvent(eventResult("sub-1", r, "dedup"));
    EXPECT_EQ(ev.type, "result");
    EXPECT_EQ(ev.id, "sub-1");
    EXPECT_EQ(ev.source, "dedup");
    EXPECT_EQ(ev.result.id, "p1");
    EXPECT_EQ(ev.result.stats.cycles, 1234u);
    EXPECT_TRUE(ev.result.ok);

    ev = parseEvent(eventOverloaded("sub-2", "queue full", 17, 16));
    EXPECT_EQ(ev.type, "overloaded");
    EXPECT_EQ(ev.error, "queue full");
    EXPECT_EQ(ev.payload.at("queue_depth").asInt(), 17);
    EXPECT_EQ(ev.payload.at("queue_max").asInt(), 16);

    ev = parseEvent(eventDone("sub-3", 9, 1, 4, 2));
    EXPECT_EQ(ev.payload.at("jobs").asInt(), 9);
    EXPECT_EQ(ev.payload.at("coalesced").asInt(), 2);

    EXPECT_THROW(parseEvent("{\"v\":99,\"event\":\"pong\"}"),
                 JsonParseError);
    EXPECT_THROW(parseEvent("not json"), JsonParseError);
}

// -- fair queue ---------------------------------------------------

TEST(ServeQueue, RoundRobinInterleavesClients)
{
    FairQueue q(16);
    ASSERT_TRUE(q.pushBatch(1, {queued("a1"), queued("a2"),
                                queued("a3"), queued("a4")}));
    ASSERT_TRUE(q.pushBatch(2, {queued("b1"), queued("b2")}));

    std::vector<std::string> order;
    QueuedJob qj;
    while (q.pop(&qj))
        order.push_back(qj.job.id);
    const std::vector<std::string> expect{"a1", "b1", "a2",
                                          "b2", "a3", "a4"};
    EXPECT_EQ(order, expect);
    EXPECT_EQ(q.depth(), 0u);
}

TEST(ServeQueue, LateClientWaitsAtMostOneRound)
{
    FairQueue q(64);
    std::vector<QueuedJob> big;
    for (int i = 0; i < 10; ++i)
        big.push_back(queued("big" + std::to_string(i)));
    ASSERT_TRUE(q.pushBatch(1, std::move(big)));

    QueuedJob qj;
    ASSERT_TRUE(q.pop(&qj));
    EXPECT_EQ(qj.job.id, "big0");

    // A one-job client arriving now joins just before the cursor:
    // it is served after at most one more round (one more heavy-
    // client job), not after the remaining nine.
    ASSERT_TRUE(q.pushBatch(2, {queued("quick")}));
    ASSERT_TRUE(q.pop(&qj));
    EXPECT_EQ(qj.job.id, "big1");
    ASSERT_TRUE(q.pop(&qj));
    EXPECT_EQ(qj.job.id, "quick");
    ASSERT_TRUE(q.pop(&qj));
    EXPECT_EQ(qj.job.id, "big2");
}

TEST(ServeQueue, BatchAdmissionIsAllOrNothing)
{
    FairQueue q(3);
    EXPECT_TRUE(q.canAccept(3));
    EXPECT_FALSE(q.canAccept(4));
    ASSERT_TRUE(q.pushBatch(1, {queued("x1"), queued("x2")}));

    // Two more do not fit; nothing of the batch may land.
    EXPECT_FALSE(q.pushBatch(2, {queued("y1"), queued("y2")}));
    EXPECT_EQ(q.depth(), 2u);

    ASSERT_TRUE(q.pushBatch(2, {queued("y1")}));
    EXPECT_EQ(q.depth(), 3u);
    EXPECT_FALSE(q.canAccept(1));
}

// -- single flight ------------------------------------------------

TEST(ServeSingleFlight, LeaderThenWaitersThenTake)
{
    SingleFlight sf;
    EXPECT_TRUE(sf.join("k1", {1, "a"}));
    EXPECT_FALSE(sf.join("k1", {2, "b"}));
    EXPECT_FALSE(sf.join("k1", {3, "c"}));
    EXPECT_TRUE(sf.join("k2", {4, "d"}));
    EXPECT_TRUE(sf.inFlight("k1"));
    EXPECT_EQ(sf.size(), 2u);

    const std::vector<Waiter> w = sf.take("k1");
    ASSERT_EQ(w.size(), 3u);
    EXPECT_EQ(w[0].submission, 1u);     // leader first
    EXPECT_EQ(w[0].job_id, "a");
    EXPECT_EQ(w[2].job_id, "c");
    EXPECT_FALSE(sf.inFlight("k1"));

    // Completed keys can fly again.
    EXPECT_TRUE(sf.join("k1", {5, "e"}));
    EXPECT_TRUE(sf.take("unknown").empty());
}

// -- worker pool --------------------------------------------------

TEST(ServeWorker, ExecutesJobInChildProcess)
{
    WorkerOptions opts;
    opts.argv = realWorker();
    WorkerPool pool(2, opts);

    const JobResult r = pool.execute(quickJob());
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.stats.cycles, 0u);
    EXPECT_EQ(r.key, quickJob().cacheKey());

    const WorkerPoolStats s = pool.stats();
    EXPECT_EQ(s.executed, 1u);
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.restarts, 0u);
}

TEST(ServeWorker, SimulationFailureIsAResultNotACrash)
{
    WorkerOptions opts;
    opts.argv = realWorker();
    WorkerPool pool(1, opts);

    Job job = quickJob();
    job.core.max_cycles = 10;   // guaranteed budget exhaustion
    const JobResult r = pool.execute(job);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());

    // Deterministic failures are results; nothing was retried.
    const WorkerPoolStats s = pool.stats();
    EXPECT_EQ(s.executed, 1u);
    EXPECT_EQ(s.retries, 0u);
}

TEST(ServeWorker, CrashingWorkerIsRetriedThenReported)
{
    WorkerOptions opts;
    opts.argv = crashingWorker();
    opts.max_retries = 2;
    opts.backoff_seconds = 0.01;
    WorkerPool pool(1, opts);

    const JobResult r = pool.execute(quickJob());
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("worker"), std::string::npos)
        << r.error;

    const WorkerPoolStats s = pool.stats();
    EXPECT_EQ(s.retries, 2u);       // both retries consumed
    EXPECT_GE(s.restarts, 3u);      // every attempt burned a child
}

TEST(ServeWorker, HungWorkerIsKilledNotRetried)
{
    WorkerOptions opts;
    opts.argv = hangingWorker();
    opts.job_timeout_seconds = 0.2;
    opts.max_retries = 2;
    WorkerPool pool(1, opts);

    const auto t0 = std::chrono::steady_clock::now();
    const JobResult r = pool.execute(quickJob());
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("budget"), std::string::npos)
        << r.error;
    // A hang is deterministic: one attempt, no retry burn-down.
    EXPECT_EQ(pool.stats().retries, 0u);
    EXPECT_LT(secs, 5.0);
}

TEST(ServeWorker, KilledWorkerMidJobIsRetriedToCompletion)
{
    WorkerOptions opts;
    opts.argv = realWorker();
    opts.max_retries = 2;
    opts.backoff_seconds = 0.01;
    WorkerPool pool(1, opts);

    const std::vector<int> pids = pool.pids();
    ASSERT_EQ(pids.size(), 1u);

    // ~1s of simulation: plenty of window to murder the worker.
    const Job slow = coreJob(
        "slow", WorkloadSpec::rayTrace(128, 128), CoreConfig{});

    auto fut = std::async(std::launch::async,
                          [&] { return pool.execute(slow); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

    const JobResult r = fut.get();
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.stats.cycles, 0u);
    const WorkerPoolStats s = pool.stats();
    EXPECT_GE(s.retries, 1u);
    EXPECT_GE(s.restarts, 1u);
}

// -- server end to end --------------------------------------------

namespace
{

ServeOptions
serverOptions(const TempDir &tmp, int workers = 2)
{
    ServeOptions opts;
    opts.socket_path = tmp.str("serve.sock");
    opts.num_workers = workers;
    opts.cache_dir = tmp.str("cache");
    opts.worker_argv = realWorker();
    opts.backoff_seconds = 0.01;
    return opts;
}

} // namespace

TEST(ServeServer, SubmitStreamsResultsThenServesFromCache)
{
    TempDir tmp("e2e");
    Server server(serverOptions(tmp));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(tmp.str("serve.sock"), &error))
        << error;

    SubmitOutcome out =
        client.submitAndWait("first", smallSpec(), 30000);
    ASSERT_EQ(out.status, "done") << out.error;
    EXPECT_EQ(out.jobs, 2u);
    ASSERT_EQ(out.results.size(), 2u);
    for (std::size_t i = 0; i < out.results.size(); ++i) {
        EXPECT_TRUE(out.results[i].ok) << out.results[i].error;
        EXPECT_EQ(out.sources[i], "sim");
    }

    // Identical resubmission: all cache, nothing simulated again.
    out = client.submitAndWait("second", smallSpec(), 30000);
    ASSERT_EQ(out.status, "done") << out.error;
    EXPECT_EQ(out.cache_hits, 2u);
    for (const std::string &src : out.sources)
        EXPECT_EQ(src, "cache");

    EXPECT_EQ(server.stats().executed, 2u);
    server.stop();
}

TEST(ServeServer, ThunderingHerdExecutesExactlyOnce)
{
    TempDir tmp("herd");
    Server server(serverOptions(tmp, 4));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // One identical single-job spec from many concurrent clients.
    const ExperimentSpec spec = smallSpec(10, {4});
    constexpr int kClients = 16;

    std::vector<std::future<SubmitOutcome>> futures;
    futures.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        futures.push_back(std::async(std::launch::async, [&, c] {
            Client client;
            std::string err;
            if (!client.connect(tmp.str("serve.sock"), &err)) {
                SubmitOutcome bad;
                bad.status = "disconnected";
                bad.error = err;
                return bad;
            }
            return client.submitAndWait(
                "herd-" + std::to_string(c), spec, 30000);
        }));
    }

    std::size_t dedup_or_cached = 0;
    for (auto &f : futures) {
        const SubmitOutcome out = f.get();
        ASSERT_EQ(out.status, "done") << out.error;
        ASSERT_EQ(out.results.size(), 1u);
        EXPECT_TRUE(out.results[0].ok) << out.results[0].error;
        if (out.sources[0] == "dedup" || out.sources[0] == "cache")
            ++dedup_or_cached;
    }

    // The acceptance criterion: N identical concurrent submissions,
    // exactly one simulation.
    EXPECT_EQ(server.stats().executed, 1u);
    EXPECT_EQ(dedup_or_cached,
              static_cast<std::size_t>(kClients - 1));
    server.stop();
}

TEST(ServeServer, OverloadIsShedExplicitlyAndServerStaysUp)
{
    TempDir tmp("overload");
    ServeOptions opts = serverOptions(tmp, 1);
    opts.worker_argv = hangingWorker();     // nothing ever finishes
    opts.queue_max = 2;
    opts.job_timeout_seconds = 600;
    Server server(std::move(opts));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Fills the queue: two jobs admitted, one soon checked out by
    // the single dispatcher and stuck in the hanging worker.
    Client filler;
    ASSERT_TRUE(filler.connect(tmp.str("serve.sock"), &error))
        << error;
    ASSERT_TRUE(filler.sendRaw(
        submitLine("filler", smallSpec(8, {1, 2}))));
    Event ev;
    ASSERT_EQ(filler.readEvent(&ev, 10000), ReadStatus::Ok);
    ASSERT_EQ(ev.type, "accepted");

    // A different two-job spec (no dedup possible) must be shed
    // with an explicit overload, not queued and not dropped.
    Client victim;
    ASSERT_TRUE(victim.connect(tmp.str("serve.sock"), &error))
        << error;
    const SubmitOutcome out = victim.submitAndWait(
        "victim", smallSpec(9, {1, 2}), 10000);
    EXPECT_EQ(out.status, "overloaded");
    EXPECT_FALSE(out.error.empty());

    // Shedding is not a failure mode: the daemon still answers.
    EXPECT_TRUE(victim.ping(&error)) << error;
    const ServerStats s = server.stats();
    EXPECT_EQ(s.overloaded, 1u);
    server.stop();
}

TEST(ServeServer, MalformedAndInvalidSubmissionsAreRejected)
{
    TempDir tmp("reject");
    Server server(serverOptions(tmp, 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(tmp.str("serve.sock"), &error))
        << error;

    // Not JSON at all: diagnostic error event, connection lives.
    ASSERT_TRUE(client.sendRaw("{\"v\":1,\"op\":tru\n"));
    Event ev;
    ASSERT_EQ(client.readEvent(&ev, 10000), ReadStatus::Ok);
    EXPECT_EQ(ev.type, "error");
    EXPECT_NE(ev.error.find("offset"), std::string::npos)
        << ev.error;

    // Spec with an unknown member: strict admission rejects it.
    Json submit = Json::parse(submitLine("bad", smallSpec()));
    Json spec_json = submit.at("spec");
    spec_json.set("quantum_bits", Json(11));
    submit.set("spec", spec_json);
    ASSERT_TRUE(client.sendRaw(submit.dump() + "\n"));
    ASSERT_EQ(client.readEvent(&ev, 10000), ReadStatus::Ok);
    EXPECT_EQ(ev.type, "rejected");
    EXPECT_NE(ev.error.find("quantum_bits"), std::string::npos)
        << ev.error;

    server.stop();

    // A spec whose *uncached* jobs outnumber the whole queue can
    // never run, so it is rejected outright rather than shed as
    // transient load. (Were the cache warm, it would be admitted —
    // see WarmCacheSweepLargerThanQueueIsServed.)
    ExperimentSpec huge = smallSpec();
    huge.slots = {1, 2, 3, 4, 5, 6, 7, 8};
    ASSERT_GT(huge.expand().size(), 4u);
    TempDir tmp2("reject2");
    ServeOptions tiny = serverOptions(tmp2, 1);
    tiny.queue_max = 4;
    Server server2(std::move(tiny));
    ASSERT_TRUE(server2.start(&error)) << error;
    Client client2;
    ASSERT_TRUE(client2.connect(tmp2.str("serve.sock"), &error))
        << error;
    const SubmitOutcome rejected =
        client2.submitAndWait("huge", huge, 10000);
    EXPECT_EQ(rejected.status, "rejected");
    EXPECT_NE(rejected.error.find("queue"), std::string::npos)
        << rejected.error;
    server2.stop();
}

TEST(ServeServer, LintGateRejectsDeadlockedSpecBeforeAdmission)
{
    TempDir tmp("lint");
    Server server(serverOptions(tmp, 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(tmp.str("serve.sock"), &error))
        << error;

    // The tokenring wait-cycle variant deadlocks every slot; the
    // static verifier proves it, so admission must reject the spec
    // without consuming a queue slot or a worker.
    ExperimentSpec bad;
    bad.name = "bad";
    bad.workloads = {WorkloadSpec::tokenRing(8, 1)};
    bad.slots = {4};
    const SubmitOutcome out =
        client.submitAndWait("bad", bad, 10000);
    EXPECT_EQ(out.status, "rejected");
    EXPECT_NE(out.error.find("Q009"), std::string::npos)
        << out.error;
    // Rejections use the same rendering as smtsim-lint:
    // "<file>:<line>:<col>: <severity>: <ID> <name>: ..."
    EXPECT_NE(out.error.find("tokenring.s:"), std::string::npos)
        << out.error;

    ServerStats s = server.stats();
    EXPECT_EQ(s.lint_rejected, 1u);
    EXPECT_EQ(s.lint_cache_hits, 0u);
    EXPECT_EQ(s.executed, 0u);

    // Resubmission: the verdict is served from the program
    // fingerprint cache, not re-analyzed.
    const SubmitOutcome again =
        client.submitAndWait("bad-again", bad, 10000);
    EXPECT_EQ(again.status, "rejected");
    EXPECT_NE(again.error.find("Q009"), std::string::npos)
        << again.error;
    s = server.stats();
    EXPECT_EQ(s.lint_rejected, 2u);
    EXPECT_GE(s.lint_cache_hits, 1u);
    EXPECT_EQ(s.executed, 0u);

    // The clean ring passes the same gate and actually simulates.
    ExperimentSpec good;
    good.name = "good";
    good.workloads = {WorkloadSpec::tokenRing(4, 0)};
    good.slots = {2};
    const SubmitOutcome ok =
        client.submitAndWait("good", good, 30000);
    EXPECT_EQ(ok.status, "done") << ok.error;
    EXPECT_EQ(server.stats().lint_rejected, 2u);
    server.stop();
}

TEST(ServeServer, NoLintOptionDisablesTheGate)
{
    TempDir tmp("nolint");
    ServeOptions opts = serverOptions(tmp, 1);
    opts.lint_admission = false;
    opts.job_timeout_seconds = 2.0;
    opts.max_retries = 0;
    Server server(std::move(opts));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(tmp.str("serve.sock"), &error))
        << error;

    // With the gate off the deadlocked spec is admitted; the job
    // then fails in the worker (deadlock trap or timeout kill)
    // instead of being turned away up front.
    ExperimentSpec bad;
    bad.name = "bad";
    bad.workloads = {WorkloadSpec::tokenRing(8, 1)};
    bad.slots = {4};
    const SubmitOutcome out =
        client.submitAndWait("bad", bad, 30000);
    EXPECT_NE(out.status, "rejected") << out.error;
    EXPECT_EQ(server.stats().lint_rejected, 0u);
    server.stop();
}

TEST(ServeServer, InvalidSpecValuesAreRejectedNotFatal)
{
    TempDir tmp("badspec");
    Server server(serverOptions(tmp, 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(tmp.str("serve.sock"), &error))
        << error;

    // Structurally valid JSON carrying semantically impossible
    // grids. Each must come back "rejected" with a diagnostic
    // naming the problem — these used to throw past the reader
    // thread's catch and std::terminate() the daemon.
    const struct
    {
        const char *tag;
        const char *member;
        const char *value;
        const char *needle;
    } cases[] = {
        {"empty-axis", "slots", "[]", "slots"},
        {"dup-axis", "slots", "[4,4]", "duplicate"},
        {"no-workloads", "workloads", "[]", "workloads"},
        // Narrowing used to admit this as a 1-slot job.
        {"wide-axis", "slots", "[4294967297]", "slots: expected"},
    };
    for (const auto &c : cases) {
        Json submit = Json::parse(submitLine(c.tag, smallSpec()));
        Json spec_json = submit.at("spec");
        spec_json.set(c.member, Json::parse(c.value));
        submit.set("spec", spec_json);
        ASSERT_TRUE(client.sendRaw(submit.dump() + "\n")) << c.tag;
        Event ev;
        ASSERT_EQ(client.readEvent(&ev, 10000), ReadStatus::Ok)
            << c.tag;
        EXPECT_EQ(ev.type, "rejected") << c.tag;
        EXPECT_NE(ev.error.find(c.needle), std::string::npos)
            << ev.error;
    }

    // The daemon survived all of it.
    EXPECT_TRUE(client.ping(&error)) << error;
    EXPECT_EQ(server.stats().rejected, 4u);
    EXPECT_EQ(server.stats().jobs_submitted, 0u);
    server.stop();
}

TEST(ServeServer, WarmCacheSweepLargerThanQueueIsServed)
{
    TempDir tmp("warm");
    ServeOptions opts = serverOptions(tmp, 1);
    opts.queue_max = 1;
    Server server(std::move(opts));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(tmp.str("serve.sock"), &error))
        << error;

    // Warm the cache one job at a time; each fits the 1-slot queue.
    for (int s : {1, 2}) {
        const SubmitOutcome warm = client.submitAndWait(
            "warm-" + std::to_string(s), smallSpec(8, {s}), 30000);
        ASSERT_EQ(warm.status, "done") << warm.error;
    }

    // The combined sweep expands past the whole queue, but every
    // job is a cache hit and needs no slot — it must be served,
    // not rejected as oversized and not shed as overload.
    const SubmitOutcome out = client.submitAndWait(
        "combined", smallSpec(8, {1, 2}), 30000);
    ASSERT_EQ(out.status, "done") << out.error;
    EXPECT_EQ(out.cache_hits, 2u);
    for (const std::string &src : out.sources)
        EXPECT_EQ(src, "cache");
    EXPECT_EQ(server.stats().rejected, 0u);
    EXPECT_EQ(server.stats().overloaded, 0u);
    server.stop();
}

TEST(ServeServer, ListenRefusesLiveSocketButReclaimsStale)
{
    TempDir tmp("sockown");
    const std::string path = tmp.str("s.sock");
    std::string error;

    Fd first = listenUnix(path, &error);
    ASSERT_TRUE(first.valid()) << error;

    // A second daemon on the same path must fail loudly, not
    // silently steal the live listener's socket file.
    Fd thief = listenUnix(path, &error);
    EXPECT_FALSE(thief.valid());
    EXPECT_NE(error.find("in use"), std::string::npos) << error;

    // Once the owner is gone the file is stale (a probe connect is
    // refused) and the path can be reclaimed.
    first.reset();
    Fd second = listenUnix(path, &error);
    EXPECT_TRUE(second.valid()) << error;
}

TEST(ServeServer, PingStatsAndClientShutdown)
{
    TempDir tmp("ops");
    Server server(serverOptions(tmp, 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(tmp.str("serve.sock"), &error))
        << error;
    EXPECT_TRUE(client.ping(&error)) << error;

    Json stats;
    ASSERT_TRUE(client.stats(&stats, &error)) << error;
    EXPECT_EQ(stats.at("queue_max").asInt(), 4096);
    EXPECT_EQ(stats.at("executed").asInt(), 0);
    EXPECT_EQ(stats.at("worker_pids").size(), 1u);

    // Client-driven shutdown: bye ack, then wait() unblocks.
    EXPECT_TRUE(client.shutdownServer(&error)) << error;
    server.wait();
    server.stop();
}

TEST(ServeServer, WorkerCrashMidSweepIsRetriedAndSweepCompletes)
{
    TempDir tmp("crash");
    ServeOptions opts = serverOptions(tmp, 1);
    opts.max_retries = 2;
    Server server(std::move(opts));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ExperimentSpec spec;
    spec.name = "crashy";
    spec.workloads = {WorkloadSpec::rayTrace(128, 128)};
    spec.slots = {2};

    Client client;
    ASSERT_TRUE(client.connect(tmp.str("serve.sock"), &error))
        << error;
    auto fut = std::async(std::launch::async, [&] {
        return client.submitAndWait("crash", spec, 60000);
    });

    // Give the job time to land in the worker, then kill it.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const std::vector<int> pids = server.workerPids();
    ASSERT_FALSE(pids.empty());
    ::kill(pids[0], SIGKILL);

    const SubmitOutcome out = fut.get();
    ASSERT_EQ(out.status, "done") << out.error;
    ASSERT_EQ(out.results.size(), 1u);
    EXPECT_TRUE(out.results[0].ok) << out.results[0].error;
    EXPECT_GE(server.stats().worker_restarts, 1u);
    server.stop();
}

TEST(ServeServer, GridPastTheCapIsRejectedBeforeExpansion)
{
    TempDir tmp("gridcap");
    Server server(serverOptions(tmp, 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(tmp.str("serve.sock"), &error))
        << error;

    // A short spec whose axes multiply to 100^3 = 10^6 grid points:
    // the daemon must refuse it from the axis sizes, without
    // building a million jobs in the reader thread.
    ExperimentSpec huge = smallSpec();
    huge.slots.clear();
    huge.frames.clear();
    huge.lsu.clear();
    for (int i = 1; i <= 100; ++i) {
        huge.slots.push_back(i);
        huge.frames.push_back(i);
        huge.lsu.push_back(i);
    }
    const SubmitOutcome out = client.submitAndWait("huge", huge, 10000);
    EXPECT_EQ(out.status, "rejected");
    EXPECT_NE(out.error.find("more than 65536 jobs"), std::string::npos)
        << out.error;

    // The daemon keeps serving.
    const SubmitOutcome ok = client.submitAndWait("ok", smallSpec(), 30000);
    EXPECT_EQ(ok.status, "done") << ok.error;
    EXPECT_EQ(ok.results.size(), 2u);
    server.stop();
}

TEST(ServeServer, DoneFollowsEveryResultWithTwoDispatchers)
{
    TempDir tmp("order");
    Server server(serverOptions(tmp, 2));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(tmp.str("serve.sock"), &error))
        << error;

    // Cold two-cell sweeps (each repetition a new rotation interval,
    // so nothing comes from the cache): the two dispatchers run the
    // cells side by side and publish them at nearly the same time,
    // and done must still trail the accepted event and every
    // result. Sending done from the publishing thread lost this
    // race in about half of such runs.
    for (int rep = 0; rep < 300; ++rep) {
        ExperimentSpec spec = smallSpec(4, {2, 3});
        spec.rotation_intervals = {rep + 1};
        const std::string id = "sweep" + std::to_string(rep);
        ASSERT_TRUE(client.sendRaw(submitLine(id, spec)));
        std::size_t results = 0;
        bool accepted = false;
        Event ev;
        while (true) {
            ASSERT_EQ(client.readEvent(&ev, 30000), ReadStatus::Ok);
            ASSERT_EQ(ev.id, id) << ev.type << " of an earlier sweep";
            if (ev.type == "accepted") {
                accepted = true;
            } else if (ev.type == "result") {
                ++results;
                EXPECT_EQ(ev.source, "sim");
            } else {
                ASSERT_EQ(ev.type, "done") << ev.error;
                break;
            }
        }
        ASSERT_TRUE(accepted) << "done before accepted, sweep " << rep;
        ASSERT_EQ(results, 2u) << "done before a result, sweep " << rep;
        EXPECT_EQ(ev.payload.at("jobs").asInt(), 2);
    }
    server.stop();
}
