/**
 * @file
 * The many-core machine (docs/MANYCORE.md): N copies of the
 * elementary multithreaded processor, each with private memory and
 * icache, coupled through a banked shared L2 behind a ring
 * interconnect (src/interconnect/). This is the paper's intended
 * scale-out — the elementary processor as the building block of a
 * parallel machine.
 *
 * Functional model: *functionally partitioned, timing coupled*.
 * Each core runs the same program image in its own private memory
 * (SPMD), so architectural results never flow between cores; what
 * the interconnect carries is the *timing* of remote-memory /
 * context-frame traffic — the accesses that previously charged the
 * fixed-latency RemoteRegion stub. This keeps functional results
 * trivially schedule-independent; cycle counts are made
 * schedule-independent by the quantum discipline below.
 *
 * Timing model: simulation advances in quanta ending at barriers.
 * Within a quantum every core simulates independently; remote
 * accesses are banked per core in issue order. At the barrier the
 * machine folds all banked requests through the interconnect in a
 * canonical (issue cycle, core, per-core sequence) order and wakes
 * each waiting context at its computed completion. The quantum
 * length never exceeds minLatency() - 1, so every completion lands
 * strictly after the barrier that resolves it — no core ever needed
 * a wake-up inside a quantum it already simulated. Because the fold
 * order is canonical and quantum boundaries partition requests by
 * issue cycle, the fold is independent of how cycles are split into
 * quanta and of which host thread ran which core: parallel host
 * schedules are bit-identical to the sequential reference.
 */

#ifndef SMTSIM_MACHINE_MANYCORE_HH
#define SMTSIM_MACHINE_MANYCORE_HH

#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "asmr/program.hh"
#include "base/types.hh"
#include "core/config.hh"
#include "core/processor.hh"
#include "interconnect/interconnect.hh"
#include "machine/run_stats.hh"
#include "mem/memory.hh"

namespace smtsim
{

/** Configuration of the N-core machine. */
struct MachineConfig
{
    /** Simulated cores (each a full MultithreadedProcessor). */
    int num_cores = 2;
    /** Per-core configuration, identical for every core (SPMD). */
    CoreConfig core;
    /** Shared L2 + ring interconnect. */
    InterconnectConfig noc;
    /**
     * Barrier quantum in cycles; 0 (the default) picks the longest
     * safe value, noc.minLatency() - 1. Values above that are
     * rejected — the determinism argument needs every remote
     * completion to land strictly after the barrier resolving it.
     */
    Cycle quantum = 0;
};

/** Aggregate results of one machine run. */
struct MachineStats
{
    /** Slowest core's cycle count. */
    Cycle cycles = 0;
    /** Barrier quanta executed (diagnostic; schedule-dependent only
     *  on the runUntil() split points, never on host threads). */
    std::uint64_t quanta = 0;
    /** Every core ran to completion. */
    bool finished = false;
    std::vector<RunStats> cores;
    InterconnectStats noc;

    /** Machine-wide roll-up: counters summed, cycles = max. */
    RunStats aggregate() const;

    bool operator==(const MachineStats &) const = default;

    /** Field list (base/fields.hh) of `smtsim-run --cores N --json`
     *  and the lab cache. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &s)
    {
        ar("cycles", s.cycles);
        ar("quanta", s.quanta);
        ar("finished", s.finished);
        ar("cores", s.cores);
        ar("noc", s.noc);
    }
};

/**
 * N elementary processors around a shared banked L2.
 *
 * Basic use: construct (optionally with a per-core memory init
 * hook), then run(host_threads). host_threads = 0 is the sequential
 * reference schedule; T >= 1 simulates cores on T persistent worker
 * threads (core i on thread i mod T) with barrier synchronization —
 * bit-identical results by construction, enforced by test_manycore
 * and the manycore-determinism CI job.
 */
class ManyCoreMachine
{
  public:
    /**
     * Build the machine: per-core private memories loaded with
     * @p prog, per-core processors with the interconnect attached
     * as their remote timing model. @p init, when set, runs once
     * per core after the image is loaded (workload input setup).
     * @throws FatalError on an invalid configuration.
     */
    ManyCoreMachine(
        const Program &prog, const MachineConfig &cfg,
        const std::function<void(int core, MainMemory &mem)> &init =
            {});

    ~ManyCoreMachine();

    ManyCoreMachine(const ManyCoreMachine &) = delete;
    ManyCoreMachine &operator=(const ManyCoreMachine &) = delete;

    /** Simulate until every core finishes (or budget expires). */
    MachineStats run(int host_threads = 0);

    /**
     * Simulate until the machine clock reaches min(@p stop,
     * core.max_cycles) or every core finishes. Split calls are
     * bit-identical to one call (checkpointing relies on it);
     * returns stats so far. The returned clock always sits on a
     * barrier: no remote request is in flight between calls.
     */
    MachineStats runUntil(Cycle stop, int host_threads = 0);

    /** Machine clock: last barrier cycle reached. */
    Cycle now() const { return now_; }

    /** True once every core retired its last instruction. */
    bool finished() const;

    int numCores() const { return static_cast<int>(cores_.size()); }
    const MachineConfig &config() const { return cfg_; }
    /** Effective barrier quantum (resolved from config). */
    Cycle quantum() const { return quantum_; }

    MultithreadedProcessor &core(int i);
    const MultithreadedProcessor &core(int i) const;
    MainMemory &memory(int i);
    const MainMemory &memory(int i) const;
    const Interconnect &interconnect() const { return noc_; }

    /** Current statistics roll-up (final once finished()). */
    MachineStats stats() const;

    /**
     * Serialize the whole machine — clock, interconnect bank state,
     * every core (including its private memory) — so a later
     * restoreCheckpoint() resumes bit-identically. Always called at
     * a barrier (any point between runUntil() calls is one), so
     * there is never an unresolved remote request to save.
     */
    void saveCheckpoint(std::ostream &os) const;

    /**
     * Restore state saved by saveCheckpoint() into this machine,
     * which must have been constructed with the same program and
     * configuration (validated via checkpointFingerprint(); throws
     * std::runtime_error on mismatch or corruption).
     */
    void restoreCheckpoint(std::istream &is);

    /** Fingerprint binding checkpoints to (program, machine
     *  configuration): core count, quantum, interconnect topology
     *  and every core's own (program, config) fingerprint. */
    std::uint64_t checkpointFingerprint() const;

  private:
    /** Per-core RemoteTimingModel: banks trap requests issued by
     *  one core during a quantum, in issue order. */
    class CorePort : public RemoteTimingModel
    {
      public:
        CorePort(ManyCoreMachine &machine, int core)
            : machine_(machine), core_(core)
        {}

        Cycle
        uncontendedLatency(Addr addr) const override
        {
            return machine_.noc_.uncontendedLatency(core_, addr);
        }

        void
        request(int frame, Addr addr, Cycle issued) override
        {
            // Touched only by the host thread simulating this core
            // (inside runUntil) and by the barrier drain — never
            // concurrently.
            pending_.push_back(
                RemoteRequest{issued, core_, frame, addr, seq_++});
        }

        std::vector<RemoteRequest> &pending() { return pending_; }

      private:
        ManyCoreMachine &machine_;
        int core_;
        std::vector<RemoteRequest> pending_;
        /** Monotonic per-core issue sequence; only its relative
         *  order within one core matters (tie-break for requests
         *  issued the same cycle), so it is not checkpointed. */
        std::uint64_t seq_ = 0;
    };

    class WorkerPool;

    /** End cycle of the next quantum given the cores' idle
     *  fast-forward hints (docs/MANYCORE.md). */
    Cycle pickQuantumEnd(Cycle stop) const;
    /** Run every unfinished core to @p target, sequentially or on
     *  the worker pool. */
    void runCoresUntil(Cycle target, int host_threads);
    /** Barrier: fold all banked requests through the interconnect
     *  in canonical order and wake the waiting contexts. */
    void drainRequests();
    void runAssignedCores(int tid, int stride, Cycle target);

    MachineConfig cfg_;
    Cycle quantum_ = 0;
    /** True when the core config has a remote region at all; with
     *  none there is no coupling and quanta collapse to one. */
    bool has_remote_ = false;

    std::vector<std::unique_ptr<MainMemory>> mems_;
    std::vector<std::unique_ptr<MultithreadedProcessor>> cores_;
    std::vector<std::unique_ptr<CorePort>> ports_;
    Interconnect noc_;

    Cycle now_ = 0;
    std::uint64_t quanta_ = 0;

    /** Scratch for the barrier fold (no per-quantum allocation
     *  after warm-up). */
    std::vector<RemoteRequest> drain_scratch_;

    /** Lazily created persistent host-thread pool. */
    std::unique_ptr<WorkerPool> pool_;

    /** "SMTMCKP1" read as a little-endian u64. */
    static constexpr std::uint64_t kMachineMagic = 0x31504b434d544d53ull;

    /** The one SMTMCKP1 transfer: writes with Self = const
     *  ManyCoreMachine, restores with Self = ManyCoreMachine. */
    template <class Ar, class Self>
    static void transfer(Ar &ar, Self &m);
};

} // namespace smtsim

#endif // SMTSIM_MACHINE_MANYCORE_HH
