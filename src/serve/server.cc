#include "server.hh"

#include <chrono>
#include <set>

#include <sys/socket.h>

#include <poll.h>

#include "analysis/lint.hh"
#include "base/hash.hh"
#include "lab/executor.hh"
#include "lab/spec_json.hh"
#include "serve/protocol.hh"

namespace smtsim::serve
{

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_dir, opts_.cache_max_bytes),
      queue_(opts_.queue_max)
{
    if (opts_.num_workers <= 0) {
        opts_.num_workers = static_cast<int>(
            std::thread::hardware_concurrency());
        if (opts_.num_workers <= 0)
            opts_.num_workers = 1;
    }
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *error)
{
    listener_ = listenUnix(opts_.socket_path, error);
    if (!listener_.valid())
        return false;

    WorkerOptions wopts;
    wopts.argv = opts_.worker_argv;
    wopts.job_timeout_seconds = opts_.job_timeout_seconds;
    wopts.max_retries = opts_.max_retries;
    wopts.backoff_seconds = opts_.backoff_seconds;
    pool_ = std::make_unique<WorkerPool>(opts_.num_workers,
                                         std::move(wopts));

    dispatchers_.reserve(opts_.num_workers);
    for (int i = 0; i < opts_.num_workers; ++i)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::wait()
{
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [&] { return stop_requested_; });
}

bool
Server::waitFor(int timeout_ms)
{
    std::unique_lock<std::mutex> lock(stop_mutex_);
    return stop_cv_.wait_for(lock,
                             std::chrono::milliseconds(timeout_ms),
                             [&] { return stop_requested_; });
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (stopped_)
            return;
        stopped_ = true;
        stop_requested_ = true;
        stop_cv_.notify_all();
    }
    stopping_.store(true, std::memory_order_release);

    // Unblock everything: dispatchers waiting for work, workers
    // mid-checkout, readers blocked in poll, the accept loop (it
    // polls the listener with a timeout and re-checks stopping_).
    work_cv_.notify_all();
    if (pool_)
        pool_->shutdown();
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        for (auto &[id, conn] : conns_)
            ::shutdown(conn->fd.get(), SHUT_RDWR);
    }

    if (accept_thread_.joinable())
        accept_thread_.join();
    for (std::thread &t : dispatchers_)
        t.join();
    dispatchers_.clear();

    {
        std::unique_lock<std::mutex> lock(conns_mutex_);
        readers_done_.wait(lock,
                           [&] { return active_readers_ == 0; });
        conns_.clear();
    }
    listener_.reset();
}

void
Server::acceptLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        struct pollfd pfd = {listener_.get(), POLLIN, 0};
        const int rv = ::poll(&pfd, 1, 250);
        if (rv <= 0)
            continue;       // timeout or EINTR: re-check stopping_
        Fd fd = acceptConn(listener_);
        if (!fd.valid())
            continue;

        auto conn = std::make_shared<Connection>();
        conn->fd = std::move(fd);
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            if (stopping_.load(std::memory_order_acquire)) {
                // Lost the race with stop(): don't strand a reader
                // on a socket nobody will shut down.
                break;
            }
            conn->id = next_conn_id_++;
            conns_[conn->id] = conn;
            ++active_readers_;
        }
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.connections;
        }
        std::thread([this, conn] { readerLoop(conn); }).detach();
    }
}

void
Server::readerLoop(std::shared_ptr<Connection> conn)
{
    LineReader reader(conn->fd);
    std::string line;
    while (!stopping_.load(std::memory_order_acquire)) {
        const ReadStatus st = reader.readLine(&line);
        if (st != ReadStatus::Ok)
            break;
        handleLine(conn, line);
    }
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conns_.erase(conn->id);
        --active_readers_;
        readers_done_.notify_all();
    }
}

void
Server::handleLine(const std::shared_ptr<Connection> &conn,
                   const std::string &line)
{
    std::string op;
    Json request;
    try {
        request = Json::parse(line);
        if (request.at("v").asInt() != kProtocolVersion) {
            sendTo(conn->id,
                   eventError("unsupported protocol version"));
            return;
        }
        op = request.at("op").asString();
    } catch (const JsonParseError &e) {
        sendTo(conn->id,
               eventError(std::string("bad request: ") + e.what()));
        return;
    }

    if (op == "ping") {
        sendTo(conn->id, eventPong());
    } else if (op == "stats") {
        sendTo(conn->id, eventStats(statsJson()));
    } else if (op == "shutdown") {
        sendTo(conn->id, eventBye());
        std::lock_guard<std::mutex> lock(stop_mutex_);
        stop_requested_ = true;
        stop_cv_.notify_all();
    } else if (op == "submit") {
        handleSubmit(conn, request);
    } else {
        sendTo(conn->id, eventError("unknown op: " + op));
    }
}

namespace
{

/** Thread-slot count the job's engine actually runs with (the
 *  cross-slot lint rules project the program onto it). */
int
jobSlots(const lab::Job &job)
{
    switch (job.engine) {
      case lab::EngineKind::Baseline:
        return 1;
      case lab::EngineKind::Core:
      case lab::EngineKind::Machine:
        return job.core.num_slots;
    }
    return 1;
}

/** Content fingerprint of an assembled program image. */
std::string
programFingerprint(const Program &prog)
{
    Fnv1a h;
    h.add(&prog.text_base, sizeof(prog.text_base));
    if (!prog.text.empty())
        h.add(prog.text.data(),
              prog.text.size() * sizeof(prog.text[0]));
    h.add(&prog.data_base, sizeof(prog.data_base));
    if (!prog.data.empty())
        h.add(prog.data.data(), prog.data.size());
    h.add(&prog.entry, sizeof(prog.entry));
    return hashToHex(h.digest());
}

} // namespace

bool
Server::admitLint(const std::vector<lab::Job> &jobs,
                  std::string *why)
{
    // (workload, slots) pairs already handled this submission; a
    // sweep expands one workload into hundreds of grid cells and
    // must instantiate it once, not per cell.
    std::set<std::string> seen;
    for (const lab::Job &job : jobs) {
        const int slots = jobSlots(job);
        if (!seen
                 .insert(job.workload.canonical() + "@" +
                         std::to_string(slots))
                 .second)
            continue;

        Workload w;
        try {
            w = lab::instantiate(job.workload);
        } catch (const std::exception &) {
            // Unknown kinds/params surface through the expand or
            // worker path with their own error reporting.
            continue;
        }
        const std::string key = programFingerprint(w.program) +
                                "@" + std::to_string(slots);

        bool cached = false;
        std::string verdict;
        {
            std::lock_guard<std::mutex> lock(lint_mutex_);
            const auto it = lint_verdicts_.find(key);
            if (it != lint_verdicts_.end()) {
                cached = true;
                verdict = it->second;
            }
        }
        if (cached) {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.lint_cache_hits;
        } else {
            analysis::LintOptions lopts;
            lopts.slots = slots;
            const analysis::LintReport lr =
                analysis::lint(w.program, lopts);
            if (lr.hasErrors()) {
                // Same rendering as smtsim-lint / smtsim-run
                // --lint: "<file>:<line>:<col>: <severity>: ..."
                verdict = "lint rejected workload " +
                          job.workload.canonical() + ":\n" +
                          analysis::formatText(
                              lr, job.workload.kind + ".s");
            }
            std::lock_guard<std::mutex> lock(lint_mutex_);
            lint_verdicts_[key] = verdict;
        }
        if (!verdict.empty()) {
            *why = verdict;
            return false;
        }
    }
    return true;
}

void
Server::handleSubmit(const std::shared_ptr<Connection> &conn,
                     const Json &request)
{
    std::string id;
    std::vector<lab::Job> jobs;
    try {
        id = request.at("id").asString();
        const lab::ExperimentSpec spec =
            lab::experimentSpecFromJson(request.at("spec"));
        jobs = spec.expand();
    } catch (const std::exception &e) {
        // Not just JsonParseError: expand() throws
        // std::invalid_argument (empty axis, duplicate grid point),
        // and any escape from this detached thread would
        // std::terminate() the daemon.
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.rejected;
        }
        sendTo(conn->id, eventRejected(id, e.what()));
        return;
    }
    if (jobs.empty()) {
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.rejected;
        }
        sendTo(conn->id,
               eventRejected(id, "spec expands to zero jobs"));
        return;
    }

    // Admission lint gate: a program the static verifier can prove
    // deadlocks (or is otherwise broken) must not consume a queue
    // slot or a worker. Runs before any cache probe so rejection
    // cost is one lint per distinct workload, amortized by the
    // fingerprint verdict cache across submissions.
    if (opts_.lint_admission) {
        std::string lint_why;
        if (!admitLint(jobs, &lint_why)) {
            {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.rejected;
                ++stats_.lint_rejected;
            }
            sendTo(conn->id, eventRejected(id, lint_why));
            return;
        }
    }

    // Probe the cache before taking the scheduling lock: hits
    // stream back without consuming queue capacity, and disk reads
    // must not serialize admission.
    std::vector<lab::JobResult> hits;
    std::vector<QueuedJob> misses;
    for (const lab::Job &job : jobs) {
        lab::JobResult r;
        if (cache_.load(job, &r)) {
            hits.push_back(std::move(r));
        } else {
            misses.push_back({job, job.cacheKey()});
        }
    }

    std::uint64_t token = 0;
    std::size_t shed_depth = 0;
    bool shed = false;
    std::string reject_why;
    {
        std::lock_guard<std::mutex> lock(sched_mutex_);
        // Only misses that are not already in flight consume a
        // queue slot, so bound exactly those — a warm-cache or
        // heavily-coalesced sweep of any size must stay admissible.
        // Check and admission share this lock scope so the decision
        // is atomic; the socket write happens after release.
        std::set<std::string> new_keys;
        for (const QueuedJob &qj : misses)
            if (!flights_.inFlight(qj.key))
                new_keys.insert(qj.key);
        const std::size_t slots_needed = new_keys.size();
        if (slots_needed > queue_.maxDepth()) {
            // Even an empty queue could not hold this: permanent,
            // so reject rather than shed as transient load.
            reject_why = "spec has " +
                         std::to_string(slots_needed) +
                         " uncached jobs, queue holds " +
                         std::to_string(queue_.maxDepth());
        } else if (!queue_.canAccept(slots_needed)) {
            shed = true;
            shed_depth = queue_.depth();
        } else {
            token = next_submission_++;
            Submission &sub = submissions_[token];
            sub.conn = conn->id;
            sub.id = id;
            sub.total = jobs.size();
            sub.pending = jobs.size() + 1;  // + the accepted event
            sub.cache_hits = hits.size();
            for (const lab::JobResult &r : hits)
                sub.failures += r.ok ? 0 : 1;

            std::vector<QueuedJob> batch;
            for (QueuedJob &qj : misses) {
                const bool leader =
                    flights_.join(qj.key, {token, qj.job.id});
                if (leader)
                    batch.push_back(std::move(qj));
            }
            if (!batch.empty()) {
                queue_.pushBatch(conn->id, std::move(batch));
                work_cv_.notify_all();
            }
        }
    }
    if (!reject_why.empty()) {
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.rejected;
        }
        sendTo(conn->id, eventRejected(id, reject_why));
        return;
    }
    if (shed) {
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.overloaded;
        }
        sendTo(conn->id,
               eventOverloaded(id,
                               "queue full, resubmit with backoff",
                               shed_depth, opts_.queue_max));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.submissions;
        stats_.jobs_submitted += jobs.size();
        stats_.cache_hits += hits.size();
    }

    sendTo(conn->id, eventAccepted(id, jobs.size()));
    eventWritten(token);

    // Stream admission-time cache hits; the last one may complete
    // the submission.
    for (const lab::JobResult &r : hits) {
        sendTo(conn->id, eventResult(id, r, "cache"));
        eventWritten(token);
    }
}

void
Server::eventWritten(std::uint64_t token)
{
    std::uint64_t conn = 0;
    std::string done_line;
    {
        std::lock_guard<std::mutex> lock(sched_mutex_);
        auto it = submissions_.find(token);
        if (it == submissions_.end())
            return;
        Submission &sub = it->second;
        if (--sub.pending > 0)
            return;
        conn = sub.conn;
        done_line = eventDone(sub.id, sub.total, sub.failures,
                              sub.cache_hits, sub.coalesced);
        submissions_.erase(it);
    }
    sendTo(conn, done_line);
}

void
Server::dispatchLoop()
{
    while (true) {
        QueuedJob qj;
        std::size_t depth_at_pop = 0;
        {
            std::unique_lock<std::mutex> lock(sched_mutex_);
            work_cv_.wait(lock, [&] {
                return stopping_.load(std::memory_order_acquire) ||
                       queue_.depth() > 0;
            });
            if (stopping_.load(std::memory_order_acquire))
                return;
            depth_at_pop = queue_.depth();
            if (!queue_.pop(&qj))
                continue;
        }
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            hists_.queue_depth.add(depth_at_pop);
        }

        // Another client may have completed this key between our
        // admission probe and now — the flight table only dedups
        // concurrent work, the cache dedups across time.
        lab::JobResult result;
        std::string source;
        if (cache_.load(qj.job, &result)) {
            source = "cache";
        } else {
            result = pool_->execute(qj.job);
            source = "sim";
            // Store before publishing so a probe that misses the
            // flight table (we're about to clear it) hits the
            // cache instead.
            if (result.ok)
                cache_.store(qj.job, result);
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.executed;
            ++stats_.cache_misses;
            hists_.wall_ms.add(static_cast<std::uint64_t>(
                result.wall_seconds * 1000.0));
            hists_.sim_cycles.add(result.stats.cycles);
        }
        publish(qj.key, result, source);
    }
}

void
Server::publish(const std::string &key,
                const lab::JobResult &result,
                const std::string &source)
{
    struct Delivery
    {
        std::uint64_t submission;
        std::uint64_t conn;
        std::string line;
    };
    std::vector<Delivery> deliveries;
    std::size_t coalesced = 0;

    {
        std::lock_guard<std::mutex> lock(sched_mutex_);
        const std::vector<Waiter> waiters = flights_.take(key);
        for (std::size_t i = 0; i < waiters.size(); ++i) {
            const Waiter &w = waiters[i];
            auto it = submissions_.find(w.submission);
            if (it == submissions_.end())
                continue;
            Submission &sub = it->second;

            lab::JobResult r = result;
            r.id = w.job_id;    // same content, caller's label
            const std::string src = i == 0 ? source : "dedup";
            if (i > 0) {
                ++sub.coalesced;
                ++coalesced;
            } else if (source == "cache") {
                ++sub.cache_hits;
            }
            if (!r.ok)
                ++sub.failures;
            deliveries.push_back(
                {w.submission, sub.conn, eventResult(sub.id, r, src)});
        }
    }
    if (coalesced > 0 || source == "cache") {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.coalesced += coalesced;
        if (source == "cache")
            ++stats_.cache_hits;
    }
    for (const Delivery &d : deliveries) {
        sendTo(d.conn, d.line);
        eventWritten(d.submission);
    }
}

void
Server::sendTo(std::uint64_t conn_id, const std::string &line)
{
    std::shared_ptr<Connection> conn;
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        auto it = conns_.find(conn_id);
        if (it == conns_.end())
            return;             // client left; drop the event
        conn = it->second;
    }
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    writeAll(conn->fd, line);
}

ServerStats
Server::stats() const
{
    ServerStats s;
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        s = stats_;
    }
    if (pool_) {
        const WorkerPoolStats ps = pool_->stats();
        s.retries = ps.retries;
        s.worker_restarts = ps.restarts;
    }
    return s;
}

ServerHistograms
Server::histograms() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return hists_;
}

namespace
{

/** Render one histogram as the JSON shape of the stats payload:
 *  scalars plus the non-empty log2 buckets. */
Json
histogramJson(const stats::Histogram &h)
{
    Json j = Json::object();
    j.set("count", Json(h.count()));
    j.set("sum", Json(h.sum()));
    j.set("min", Json(h.min()));
    j.set("max", Json(h.max()));
    Json buckets = Json::array();
    for (int i = 0; i < stats::Histogram::kBuckets; ++i) {
        if (h.buckets()[i] == 0)
            continue;
        Json b = Json::object();
        b.set("lo", Json(stats::Histogram::bucketLo(i)));
        b.set("hi", Json(stats::Histogram::bucketHi(i)));
        b.set("n", Json(h.buckets()[i]));
        buckets.push(std::move(b));
    }
    j.set("buckets", std::move(buckets));
    return j;
}

} // namespace

Json
Server::statsJson() const
{
    const ServerStats s = stats();
    Json j = Json::object();
    j.set("connections", Json(s.connections));
    j.set("submissions", Json(s.submissions));
    j.set("jobs_submitted", Json(s.jobs_submitted));
    j.set("executed", Json(s.executed));
    j.set("cache_hits", Json(s.cache_hits));
    j.set("cache_misses", Json(s.cache_misses));
    j.set("coalesced", Json(s.coalesced));
    j.set("overloaded", Json(s.overloaded));
    j.set("rejected", Json(s.rejected));
    j.set("lint_rejected", Json(s.lint_rejected));
    j.set("lint_cache_hits", Json(s.lint_cache_hits));
    j.set("retries", Json(s.retries));
    j.set("worker_restarts", Json(s.worker_restarts));
    {
        std::lock_guard<std::mutex> lock(sched_mutex_);
        j.set("queue_depth", Json(queue_.depth()));
        j.set("queue_max", Json(queue_.maxDepth()));
        j.set("in_flight", Json(flights_.size()));
    }
    Json pids = Json::array();
    if (pool_)
        for (const int pid : pool_->pids())
            pids.push(Json(pid));
    j.set("worker_pids", std::move(pids));
    {
        const ServerHistograms h = histograms();
        Json hj = Json::object();
        hj.set("wall_ms", histogramJson(h.wall_ms));
        hj.set("sim_cycles", histogramJson(h.sim_cycles));
        hj.set("queue_depth", histogramJson(h.queue_depth));
        j.set("histograms", std::move(hj));
    }
    return j;
}

} // namespace smtsim::serve
