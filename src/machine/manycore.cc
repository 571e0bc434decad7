#include "machine/manycore.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/serial.hh"

namespace smtsim
{

RunStats
MachineStats::aggregate() const
{
    RunStats total;
    for (const RunStats &s : cores) {
        total.cycles = std::max(total.cycles, s.cycles);
        total.instructions += s.instructions;
        for (int c = 0; c < kNumFuClasses; ++c) {
            total.fu_grants[c] += s.fu_grants[c];
            total.fu_busy[c] += s.fu_busy[c];
            if (total.unit_busy[c].size() < s.unit_busy[c].size())
                total.unit_busy[c].resize(s.unit_busy[c].size(), 0);
            for (std::size_t u = 0; u < s.unit_busy[c].size(); ++u)
                total.unit_busy[c][u] += s.unit_busy[c][u];
        }
        total.branches += s.branches;
        total.loads += s.loads;
        total.stores += s.stores;
        total.standby_stalls += s.standby_stalls;
        total.context_switches += s.context_switches;
        total.writeback_conflicts += s.writeback_conflicts;
        total.dcache_hits += s.dcache_hits;
        total.dcache_misses += s.dcache_misses;
        total.icache_hits += s.icache_hits;
        total.icache_misses += s.icache_misses;
    }
    total.cycles = std::max(total.cycles, cycles);
    total.finished = finished;
    return total;
}

/**
 * Persistent host threads driven in rounds: the barrier loop posts
 * a target cycle, every worker simulates its statically assigned
 * cores (core i on thread i mod T) to the target, and the loop
 * resumes once the last worker checks in. All hand-offs go through
 * one mutex, which gives the happens-before edges TSan wants: a
 * worker's writes to its cores are visible to the barrier drain,
 * and the drain's completeRemote() writes are visible to whichever
 * worker owns the core next round (the same one — assignment is
 * static).
 */
class ManyCoreMachine::WorkerPool
{
  public:
    WorkerPool(ManyCoreMachine &machine, int num_threads)
        : machine_(machine), num_threads_(num_threads)
    {
        threads_.reserve(static_cast<std::size_t>(num_threads));
        for (int t = 0; t < num_threads; ++t)
            threads_.emplace_back([this, t] { workerLoop(t); });
    }

    ~WorkerPool()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            quit_ = true;
        }
        cv_work_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    int numThreads() const { return num_threads_; }

    /** Run one quantum on the pool; blocks until every worker is
     *  done. Rethrows the first worker exception, if any. */
    void
    runQuantum(Cycle target)
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            target_ = target;
            remaining_ = num_threads_;
            ++round_;
        }
        cv_work_.notify_all();
        std::unique_lock<std::mutex> lk(m_);
        cv_done_.wait(lk, [this] { return remaining_ == 0; });
        if (error_) {
            std::exception_ptr e = error_;
            error_ = nullptr;
            std::rethrow_exception(e);
        }
    }

  private:
    void
    workerLoop(int tid)
    {
        std::uint64_t seen = 0;
        for (;;) {
            Cycle target;
            {
                std::unique_lock<std::mutex> lk(m_);
                cv_work_.wait(lk, [&] {
                    return quit_ || round_ != seen;
                });
                if (quit_)
                    return;
                seen = round_;
                target = target_;
            }
            std::exception_ptr error;
            try {
                machine_.runAssignedCores(tid, num_threads_,
                                          target);
            } catch (...) {
                error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lk(m_);
                if (error && !error_)
                    error_ = error;
                if (--remaining_ == 0)
                    cv_done_.notify_all();
            }
        }
    }

    ManyCoreMachine &machine_;
    const int num_threads_;

    std::mutex m_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    std::uint64_t round_ = 0;
    int remaining_ = 0;
    Cycle target_ = 0;
    bool quit_ = false;
    std::exception_ptr error_;

    std::vector<std::thread> threads_;
};

ManyCoreMachine::ManyCoreMachine(
    const Program &prog, const MachineConfig &cfg,
    const std::function<void(int core, MainMemory &mem)> &init)
    : cfg_(cfg), noc_(cfg.noc, cfg.num_cores)
{
    const Cycle max_quantum = noc_.minLatency() - 1;
    quantum_ = cfg_.quantum == 0 ? max_quantum : cfg_.quantum;
    if (quantum_ > max_quantum) {
        fatal("manycore: quantum ", quantum_,
              " exceeds the interconnect's minimum latency - 1 (",
              max_quantum, "); remote completions would land "
              "inside an already-simulated quantum");
    }
    has_remote_ = cfg_.core.remote.size > 0;

    const auto n = static_cast<std::size_t>(cfg_.num_cores);
    mems_.reserve(n);
    cores_.reserve(n);
    ports_.reserve(n);
    for (int i = 0; i < cfg_.num_cores; ++i) {
        mems_.push_back(std::make_unique<MainMemory>());
        prog.loadInto(*mems_.back());
        if (init)
            init(i, *mems_.back());
        ports_.push_back(std::make_unique<CorePort>(*this, i));
        cores_.push_back(std::make_unique<MultithreadedProcessor>(
            prog, *mems_.back(), cfg_.core));
        cores_.back()->setRemoteModel(ports_.back().get());
    }
}

ManyCoreMachine::~ManyCoreMachine() = default;

bool
ManyCoreMachine::finished() const
{
    for (const auto &core : cores_) {
        if (!core->finished())
            return false;
    }
    return true;
}

MultithreadedProcessor &
ManyCoreMachine::core(int i)
{
    return *cores_.at(static_cast<std::size_t>(i));
}

const MultithreadedProcessor &
ManyCoreMachine::core(int i) const
{
    return *cores_.at(static_cast<std::size_t>(i));
}

MainMemory &
ManyCoreMachine::memory(int i)
{
    return *mems_.at(static_cast<std::size_t>(i));
}

const MainMemory &
ManyCoreMachine::memory(int i) const
{
    return *mems_.at(static_cast<std::size_t>(i));
}

Cycle
ManyCoreMachine::pickQuantumEnd(Cycle stop) const
{
    // Without a remote region no core can ever touch the
    // interconnect, so the barrier discipline is vacuous and one
    // quantum spans the whole run.
    if (!has_remote_)
        return stop;

    // The idle fast-forward bound doubles as the quantum picker: no
    // core can issue a remote request before the earliest
    // next-event cycle, so the quantum budget starts counting
    // there (a machine full of sleeping cores jumps straight to
    // the next wake-up instead of crawling in quantum-sized steps).
    Cycle hint = kNeverCycle;
    for (const auto &core : cores_) {
        if (!core->finished())
            hint = std::min(hint, core->nextEventHint());
    }
    // Every runnable core drained: nothing will ever happen again
    // (or everything finished); run out the clock in one quantum.
    if (hint == kNeverCycle || hint >= stop)
        return stop;
    return std::min(stop, hint - 1 + quantum_);
}

void
ManyCoreMachine::runAssignedCores(int tid, int stride, Cycle target)
{
    for (int i = tid; i < numCores(); i += stride) {
        if (!cores_[static_cast<std::size_t>(i)]->finished())
            cores_[static_cast<std::size_t>(i)]->runUntil(target);
    }
}

void
ManyCoreMachine::runCoresUntil(Cycle target, int host_threads)
{
    const int want = std::min(host_threads, numCores());
    if (want <= 0) {
        runAssignedCores(0, 1, target);
        return;
    }
    if (!pool_ || pool_->numThreads() != want)
        pool_ = std::make_unique<WorkerPool>(*this, want);
    pool_->runQuantum(target);
}

void
ManyCoreMachine::drainRequests()
{
    drain_scratch_.clear();
    for (const auto &port : ports_) {
        auto &pending = port->pending();
        drain_scratch_.insert(drain_scratch_.end(), pending.begin(),
                              pending.end());
        pending.clear();
    }
    if (drain_scratch_.empty())
        return;

    // Canonical fold order (docs/MANYCORE.md): issue cycle, then
    // core, then per-core sequence. Because quanta partition
    // requests by issue cycle, folding per-quantum batches in this
    // order equals one fold of the whole sorted run — the source of
    // schedule independence.
    std::sort(drain_scratch_.begin(), drain_scratch_.end(),
              [](const RemoteRequest &a, const RemoteRequest &b) {
                  return std::tie(a.issued, a.core, a.seq) <
                         std::tie(b.issued, b.core, b.seq);
              });
    for (const RemoteRequest &req : drain_scratch_) {
        const Cycle done = noc_.resolve(req);
        cores_[static_cast<std::size_t>(req.core)]->completeRemote(
            req.frame, done);
    }
}

MachineStats
ManyCoreMachine::runUntil(Cycle stop, int host_threads)
{
    stop = std::min(stop, cfg_.core.max_cycles);
    while (now_ < stop && !finished()) {
        const Cycle target = pickQuantumEnd(stop);
        SMTSIM_ASSERT(target > now_,
                      "manycore: quantum made no progress");
        runCoresUntil(target, host_threads);
        drainRequests();
        now_ = target;
        ++quanta_;
    }
    return stats();
}

MachineStats
ManyCoreMachine::run(int host_threads)
{
    return runUntil(kNeverCycle, host_threads);
}

MachineStats
ManyCoreMachine::stats() const
{
    MachineStats out;
    out.quanta = quanta_;
    out.finished = finished();
    out.cores.reserve(cores_.size());
    for (const auto &core : cores_) {
        out.cores.push_back(core->stats());
        out.cycles = std::max(out.cycles, core->finished()
                                              ? core->stats().cycles
                                              : core->now());
    }
    out.noc = noc_.stats();
    return out;
}

std::uint64_t
ManyCoreMachine::checkpointFingerprint() const
{
    Fnv1a h;
    auto add64 = [&h](std::uint64_t v) { h.add(&v, sizeof v); };
    add64(0x534d'544d'434b'5031ull);    // "SMTMCKP1"
    add64(static_cast<std::uint64_t>(cfg_.num_cores));
    add64(quantum_);
    add64(noc_.fingerprint());
    for (const auto &core : cores_)
        add64(core->checkpointFingerprint());
    return h.digest();
}

template <class Ar, class Self>
void
ManyCoreMachine::transfer(Ar &ar, Self &m)
{
    ar.expect(kMachineMagic, "magic (not a machine checkpoint)");
    ar.expect(m.checkpointFingerprint(), "machine fingerprint");
    ar("now", m.now_);
    ar("quanta", m.quanta_);
    ar("noc", m.noc_);
    // Each core as a length-prefixed SMTCKPT1 blob. The blob grows
    // only as the input supplies it.
    for (const auto &core : m.cores_) {
        std::string blob;
        if constexpr (!Ar::kLoading) {
            std::ostringstream os;
            core->saveCheckpoint(os);
            blob = std::move(os).str();
        }
        ar.blob("core", blob);
        if constexpr (Ar::kLoading) {
            std::istringstream is(std::move(blob));
            core->restoreCheckpoint(is);
        }
    }
}

void
ManyCoreMachine::saveCheckpoint(std::ostream &os) const
{
    for (const auto &port : ports_) {
        SMTSIM_ASSERT(port->pending().empty(),
                      "manycore checkpoint: unresolved remote "
                      "request (saves must happen at a barrier)");
    }
    SaveArchive ar(os);
    transfer(ar, *this);
    if (!ar.ok())
        throw std::runtime_error("machine checkpoint: write failed");
}

void
ManyCoreMachine::restoreCheckpoint(std::istream &is)
{
    LoadArchive ar(is, "machine checkpoint");
    transfer(ar, *this);
}

} // namespace smtsim
