#include "executor.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "harness/runner.hh"
#include "lab/cache.hh"

namespace smtsim::lab
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

JobResult
simulateJob(const Job &job, double timeout_seconds,
            int machine_host_threads)
{
    JobResult r;
    r.id = job.id;
    r.key = job.cacheKey();
    const auto t0 = Clock::now();
    try {
        const Workload workload = instantiate(job.workload);
        Outcome outcome;
        switch (job.engine) {
          case EngineKind::Core:
            outcome = runCore(workload, job.core);
            break;
          case EngineKind::Baseline:
            outcome = runBaseline(workload, job.baseline);
            break;
          case EngineKind::Machine: {
            MachineConfig mcfg;
            mcfg.num_cores = job.machine.cores;
            mcfg.core = job.core;
            mcfg.noc = job.machine.noc;
            mcfg.quantum = job.machine.quantum;
            if (job.machine.remote_data) {
                // Couple the cores through every data-segment
                // access; base/size are a pure function of the
                // workload spec, so cache identity is preserved.
                mcfg.core.remote.base = workload.program.data_base;
                mcfg.core.remote.size = static_cast<Addr>(
                    workload.program.data.size());
            }
            const MachineOutcome mo = runMachine(
                workload, mcfg, machine_host_threads);
            outcome.ok = mo.ok;
            outcome.error = mo.error;
            // The cache record stays a single RunStats; machine
            // jobs store the deterministic machine-wide roll-up.
            outcome.stats = mo.stats.aggregate();
            break;
          }
        }
        r.ok = outcome.ok;
        r.error = outcome.error;
        r.stats = outcome.stats;
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    r.wall_seconds = secondsSince(t0);
    if (timeout_seconds > 0 && r.wall_seconds > timeout_seconds) {
        r.ok = false;
        r.error = "timeout: job took " +
                  std::to_string(r.wall_seconds) + "s (budget " +
                  std::to_string(timeout_seconds) + "s)";
    }
    return r;
}

void
clampCycles(std::vector<Job> &jobs, std::uint64_t max_cycles)
{
    if (max_cycles == 0)
        return;
    for (Job &job : jobs) {
        job.core.max_cycles = std::min(job.core.max_cycles, max_cycles);
        job.baseline.max_cycles =
            std::min(job.baseline.max_cycles, max_cycles);
    }
}

ResultSet
runJobs(const std::vector<Job> &jobs, const LabOptions &opts)
{
    // Apply the sweep-wide cycle clamp up front so cache keys see
    // the configuration that actually runs.
    std::vector<Job> prepared = jobs;
    clampCycles(prepared, opts.max_cycles);

    const std::size_t n = prepared.size();
    ResultSet rs;
    rs.results.resize(n);
    if (n == 0)
        return rs;

    const ResultCache cache(opts.cache_dir, opts.cache_max_bytes);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> failures{0};
    std::mutex progress_mutex;
    const auto t0 = Clock::now();

    auto worker = [&] {
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            const Job &job = prepared[i];
            JobResult result;
            if (!cache.load(job, &result)) {
                result = simulateJob(job, opts.timeout_seconds,
                                     opts.machine_host_threads);
                if (result.ok)
                    cache.store(job, result);
            }
            if (result.from_cache)
                hits.fetch_add(1, std::memory_order_relaxed);
            if (!result.ok)
                failures.fetch_add(1, std::memory_order_relaxed);
            rs.results[i] = std::move(result);

            const std::size_t finished =
                done.fetch_add(1, std::memory_order_acq_rel) + 1;
            if (opts.progress) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                Progress p;
                p.done = finished;
                p.total = n;
                p.cache_hits =
                    hits.load(std::memory_order_relaxed);
                p.failures =
                    failures.load(std::memory_order_relaxed);
                p.elapsed_seconds = secondsSince(t0);
                p.eta_seconds =
                    finished ? p.elapsed_seconds /
                                   static_cast<double>(finished) *
                                   static_cast<double>(n - finished)
                             : -1.0;
                p.last = &rs.results[i];
                opts.progress(p);
            }
        }
    };

    int num_threads = opts.num_threads;
    if (num_threads <= 0) {
        num_threads = static_cast<int>(
            std::thread::hardware_concurrency());
        if (num_threads <= 0)
            num_threads = 1;
    }
    num_threads =
        std::min<std::size_t>(num_threads, n) > 0
            ? static_cast<int>(
                  std::min<std::size_t>(num_threads, n))
            : 1;

    if (num_threads == 1) {
        worker();   // in-line: keeps single-core runs overhead-free
    } else {
        std::vector<std::thread> pool;
        pool.reserve(num_threads);
        for (int t = 0; t < num_threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    return rs;
}

ProgressFn
stderrProgress()
{
    return [](const Progress &p) {
        std::fprintf(stderr,
                     "\r[%zu/%zu] %zu cached, %zu failed, %.1fs",
                     p.done, p.total, p.cache_hits, p.failures,
                     p.elapsed_seconds);
        if (p.eta_seconds >= 0 && p.done < p.total)
            std::fprintf(stderr, ", eta %.1fs", p.eta_seconds);
        if (p.done == p.total)
            std::fprintf(stderr, "\n");
        std::fflush(stderr);
    };
}

} // namespace smtsim::lab
