/**
 * @file
 * The simulation service daemon core.
 *
 * One Server owns: a unix-socket listener with an accept thread and
 * one reader thread per connection; a bounded FairQueue of unique
 * jobs with round-robin scheduling across clients; a SingleFlight
 * table coalescing identical in-flight jobs; a shared on-disk
 * ResultCache; and a WorkerPool of isolated child processes that do
 * the actual simulating.
 *
 * Life of a submission:
 *   1. admission — the spec is parsed (strict: unknown members are
 *      rejected) and expanded into jobs; every job is probed against
 *      the cache (hits stream back immediately, source "cache");
 *      remaining misses either all fit in the queue or the whole
 *      submission is shed with an "overloaded" event. Misses whose
 *      key is already in flight register as single-flight waiters
 *      and consume no queue slot — only genuinely new keys count
 *      against the bound, so a warm-cache sweep of any size is
 *      admissible. A spec whose new keys exceed the whole queue
 *      can never run and is rejected outright.
 *   2. dispatch — N dispatcher threads pop jobs in fair order,
 *      re-probe the cache (another client may have completed the
 *      key between admission and dispatch), otherwise execute on
 *      the worker pool, store ok results, and publish to every
 *      waiter of the key (leader sees source "sim"/"cache",
 *      coalesced waiters see "dedup").
 *   3. completion — once a submission's accepted event and every
 *      result have been written to its client, whichever thread
 *      wrote the last of them sends a "done" event with aggregate
 *      counters, so done always arrives last.
 *
 * Locking: one scheduling mutex covers {FairQueue, SingleFlight,
 * submissions} — admission and publication must see the three in a
 * consistent state. Cache I/O and socket writes happen outside it;
 * each connection has its own write mutex so dispatcher threads and
 * the reader thread can interleave events without tearing lines.
 */

#ifndef SMTSIM_SERVE_SERVER_HH
#define SMTSIM_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "base/sockio.hh"
#include "base/stats.hh"
#include "lab/cache.hh"
#include "serve/queue.hh"
#include "serve/singleflight.hh"
#include "serve/worker.hh"

namespace smtsim::serve
{

struct ServeOptions
{
    /** Filesystem path of the listening unix socket. */
    std::string socket_path;
    /** Worker processes (and dispatcher threads); 0 = #cores. */
    int num_workers = 0;
    /** FairQueue depth bound; submissions past it are shed. */
    std::size_t queue_max = 4096;
    /** Shared result cache directory; empty disables caching. */
    std::string cache_dir;
    /** Cache size bound in bytes (0 = unbounded), LRU-evicted. */
    std::uint64_t cache_max_bytes = 0;
    /** Per-job wall budget enforced by killing the worker. */
    double job_timeout_seconds = 300.0;
    /** Crash retries per job (attempts = 1 + max_retries). */
    int max_retries = 2;
    /** First retry delay, doubling per retry. */
    double backoff_seconds = 0.05;
    /** Worker argv override (tests); empty = self + --worker. */
    std::vector<std::string> worker_argv;
    /**
     * Lint every distinct workload program at admission and reject
     * submissions whose program has error-level diagnostics before
     * they consume a queue slot or a worker. Verdicts are cached in
     * memory by program fingerprint (see docs/ANALYSIS.md).
     */
    bool lint_admission = true;
};

/** Monotonic counters exposed via the "stats" op. */
struct ServerStats
{
    std::uint64_t connections = 0;
    std::uint64_t submissions = 0;
    std::uint64_t jobs_submitted = 0;   ///< expanded grid points
    std::uint64_t executed = 0;         ///< simulations actually run
    std::uint64_t cache_hits = 0;
    /** Jobs that missed both cache probes and hit the simulator. */
    std::uint64_t cache_misses = 0;
    std::uint64_t coalesced = 0;        ///< dedup'd onto a leader
    std::uint64_t overloaded = 0;       ///< submissions shed
    std::uint64_t rejected = 0;         ///< malformed submissions
    /** Submissions rejected by the admission lint gate (also
     *  counted in rejected). */
    std::uint64_t lint_rejected = 0;
    /** Admission lint verdicts served from the fingerprint cache. */
    std::uint64_t lint_cache_hits = 0;
    std::uint64_t retries = 0;
    std::uint64_t worker_restarts = 0;
};

/** Distribution metrics exposed via the "stats" op (log2-bucket
 *  histograms, see stats::Histogram). */
struct ServerHistograms
{
    /** Per executed job: host milliseconds spent simulating. */
    stats::Histogram wall_ms;
    /** Per executed job: simulated cycles of the run. */
    stats::Histogram sim_cycles;
    /** FairQueue depth observed at each dispatch pop. */
    stats::Histogram queue_depth;
};

class Server
{
  public:
    explicit Server(ServeOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket and start the accept, reader and dispatcher
     * threads. @return false with *error set when the socket can't
     * be bound.
     */
    bool start(std::string *error);

    /** Block until a client's shutdown request (or stop()). */
    void wait();

    /**
     * Like wait() but bounded: @return true when shutdown has been
     * requested, false on timeout. Lets a daemon main loop poll a
     * signal flag between waits.
     */
    bool waitFor(int timeout_ms);

    /** Initiate shutdown; idempotent. Joins all threads. */
    void stop();

    ServerStats stats() const;
    ServerHistograms histograms() const;
    std::vector<int> workerPids() const { return pool_->pids(); }

  private:
    struct Connection
    {
        std::uint64_t id;
        Fd fd;
        std::mutex write_mutex;
    };

    /** One client submission's progress ledger. */
    struct Submission
    {
        std::uint64_t conn = 0;     ///< owning connection id
        std::string id;             ///< client-chosen submission id
        std::size_t total = 0;
        /** Events (accepted, then one result per job) not yet
         *  written to the client. Dispatchers write outside
         *  sched_mutex_, so only the writer of the last one may send
         *  done: then done follows every other event. */
        std::size_t pending = 0;
        std::size_t failures = 0;
        std::size_t cache_hits = 0;
        std::size_t coalesced = 0;
    };

    void acceptLoop();
    void readerLoop(std::shared_ptr<Connection> conn);
    void dispatchLoop();

    void handleLine(const std::shared_ptr<Connection> &conn,
                    const std::string &line);
    void handleSubmit(const std::shared_ptr<Connection> &conn,
                      const Json &request);

    /**
     * Admission lint gate: statically verify every distinct
     * workload program in @p jobs at its job's slot count. @return
     * false with *why describing the diagnostics when any program
     * has error-level findings. Verdicts are cached by program
     * fingerprint + slot count, so a resubmission of a known
     * program never re-instantiates the analysis.
     */
    bool admitLint(const std::vector<lab::Job> &jobs,
                   std::string *why);

    /**
     * Deliver @p result for @p key to every single-flight waiter
     * and close out submissions that drained. @p source is what the
     * leader sees ("sim" or "cache"); waiters see "dedup".
     */
    void publish(const std::string &key,
                 const lab::JobResult &result,
                 const std::string &source);

    /** The accepted event or a result of submission @p token
     *  reached its client: count it off, and send done once the
     *  last one has. */
    void eventWritten(std::uint64_t token);

    /** Write one event line to a connection (drops if it's gone). */
    void sendTo(std::uint64_t conn_id, const std::string &line);

    Json statsJson() const;

    ServeOptions opts_;
    lab::ResultCache cache_;
    std::unique_ptr<WorkerPool> pool_;

    Fd listener_;
    std::thread accept_thread_;
    std::vector<std::thread> dispatchers_;

    std::atomic<bool> stopping_{false};
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool stop_requested_ = false;
    bool stopped_ = false;

    /**
     * Connections by id. Reader threads are detached; stop() shuts
     * the sockets down and waits for active_readers_ to drain.
     */
    mutable std::mutex conns_mutex_;
    std::condition_variable readers_done_;
    std::map<std::uint64_t, std::shared_ptr<Connection>> conns_;
    std::uint64_t next_conn_id_ = 1;
    std::size_t active_readers_ = 0;

    /** Scheduling state: queue + flights + submissions together. */
    mutable std::mutex sched_mutex_;
    std::condition_variable work_cv_;
    FairQueue queue_;
    SingleFlight flights_;
    std::map<std::uint64_t, Submission> submissions_;
    std::uint64_t next_submission_ = 1;

    mutable std::mutex stats_mutex_;
    ServerStats stats_;
    ServerHistograms hists_;

    /** Admission lint verdicts by "fingerprint@slots"; the value is
     *  the rejection reason ("" = clean). */
    mutable std::mutex lint_mutex_;
    std::map<std::string, std::string> lint_verdicts_;
};

} // namespace smtsim::serve

#endif // SMTSIM_SERVE_SERVER_HH
