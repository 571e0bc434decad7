/**
 * @file
 * The multithreaded processor of section 2: several thread slots
 * (instruction queue unit + decode unit pairs) sharing one fetch
 * unit and one pool of functional units, with simultaneous issuing
 * from multiple threads arbitrated by rotating-priority instruction
 * schedule units and standby stations.
 *
 * Timing contract implemented here (see DESIGN.md):
 *  - logical-processor pipeline IF1 IF2 D1 D2 S EX* W;
 *  - an instruction issued from D2 in cycle t reaches S in t+1; if
 *    granted in cycle g its result is usable by a D2 check in cycle
 *    g + result_latency (dependent ALU ops are 3 cycles apart);
 *  - branches execute in the decode unit; the next instruction of
 *    the same thread decodes branch_gap (5) cycles later, more if
 *    the shared fetch unit is busy with another thread;
 *  - instructions that lose schedule-unit arbitration wait in a
 *    depth-1 standby station per (FU class x slot); with standby
 *    stations disabled the whole decode unit stalls instead;
 *  - loads/stores have issue latency 2 (2-cycle data cache, always
 *    hitting unless a RemoteRegion is configured).
 */

#ifndef SMTSIM_CORE_PROCESSOR_HH
#define SMTSIM_CORE_PROCESSOR_HH

#include <array>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "asmr/program.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "core/config.hh"
#include "core/queue_ring.hh"
#include "core/remote_model.hh"
#include "core/schedule.hh"
#include "isa/insn.hh"
#include "machine/run_stats.hh"
#include "mem/memory.hh"
#include "obs/event.hh"
#include "trace/exec_trace.hh"

namespace smtsim
{

/**
 * Cycle-accurate model of the multithreaded core.
 *
 * Basic use: construct, optionally spawnContext() extra threads
 * (concurrent multithreading), then run(). The program's entry
 * thread starts on thread slot 0; FASTFORK inside the program
 * activates the remaining slots.
 */
class MultithreadedProcessor
{
  public:
    /** Thread slots a core can have: the slot masks are 64 bits. */
    static constexpr int kMaxSlots = 64;

    /** Throws std::invalid_argument for more than kMaxSlots slots. */
    MultithreadedProcessor(const Program &prog, MainMemory &mem,
                           const CoreConfig &cfg = {});

    /**
     * Queue an additional software thread (context) to execute,
     * starting at @p entry. It runs when a context frame and thread
     * slot become available. Returns the context-frame id.
     */
    int spawnContext(Addr entry,
                     const std::array<std::uint32_t, kNumRegs> &iregs =
                         {},
                     const std::array<double, kNumRegs> &fregs = {});

    /** Simulate until every context finishes (or budget expires). */
    RunStats run();

    /**
     * Simulate until the last completed cycle reaches
     * min(@p stop, max_cycles) or the program finishes, whichever
     * comes first. Calling runUntil(k1), runUntil(k2), ... run() is
     * bit-identical to one run() — the checkpoint machinery and
     * tests rely on it. Returns the statistics so far; cycles /
     * finished are only final once finished() is true or the
     * budget is exhausted.
     */
    RunStats runUntil(Cycle stop);

    /** Last completed cycle (0 before the first). */
    Cycle now() const { return now_; }

    /** True once run()/runUntil() retired the last instruction. */
    bool finished() const { return finished_; }

    /** Post-run architectural state of a context frame. */
    std::uint32_t intReg(int frame, RegIndex idx) const;
    double fpReg(int frame, RegIndex idx) const;

    /** Detailed counters (stall breakdown etc.). */
    const stats::Group &detail() const { return detail_; }

    /**
     * The core's state invariants, which hold between any two
     * cycles (docs/OBSERVABILITY.md lists them): every derived field
     * equals its recomputation from the primary state, and the
     * primary state is one a run can reach. Returns the first
     * violation, naming its slot, frame, class or link, or "".
     */
    std::string checkInvariants() const;

    /**
     * Attach a structured event sink (issue, grant, park, branch,
     * queue push/pop, rotation, trap, bind — the cycle-by-cycle
     * view of Figure 4). Pass nullptr to disable (the default);
     * disabled emission costs one branch per would-be event. The
     * sink is not owned. On the next run()/runUntil() the
     * processor emits a state snapshot so streams attached mid-run
     * (or after a checkpoint restore) are self-contained.
     */
    void setEventSink(obs::EventSink *sink);

    /**
     * Serialize the complete machine state — contexts, thread
     * slots, fetch ports, schedule units + standby stations, queue
     * ring, caches, statistics and the backing memory — so a later
     * restoreCheckpoint() resumes bit-identically
     * (docs/OBSERVABILITY.md documents the format).
     */
    void saveCheckpoint(std::ostream &os) const;

    /**
     * Restore state saved by saveCheckpoint() into this processor,
     * which must have been constructed with the same program and
     * configuration (validated via a fingerprint; throws
     * std::runtime_error on mismatch or corruption, including any
     * slot, frame or in-flight instruction the program and
     * configuration could not have produced, and any state
     * checkInvariants() rejects). The derived fields are rebuilt,
     * not read. The backing memory is replaced by the checkpointed
     * image. After a throw the processor is half restored and must
     * not be run.
     */
    void restoreCheckpoint(std::istream &is);

    /** Fingerprint binding checkpoints to (program, config). */
    std::uint64_t checkpointFingerprint() const;

    /**
     * Arm verified trace replay (the timing half of the
     * functional-first pipeline, docs/PERF.md): the run executes
     * normally, but every data-dependent decision — resolved branch
     * targets and memory effective addresses — is checked against
     * @p trace, and the run throws ReplayDivergence at the first
     * disagreement. A run that completes is therefore certified to
     * have executed exactly the recorded instruction streams, and
     * its cycles and statistics are bit-identical to an
     * execute-mode run by construction. Divergence fires precisely
     * when per-thread control flow is interleaving-dependent
     * (memory spin-waits, and KILLT, whose kill point is
     * timing-dependent) — the cases where a recorded trace cannot
     * stand in for execution. Callers catch ReplayDivergence and
     * fall back to execute mode.
     *
     * Must be called on a freshly constructed processor, before the
     * first cycle; @p trace must outlive the run and its thread
     * vector is indexed by thread slot (thread i of the recording
     * engine = slot i, the FASTFORK convention). Pass nullptr to
     * disarm. Incompatible with spawnContext() and checkpoints.
     */
    void setReplayTrace(const ExecTrace *trace);

    /**
     * Attach the many-core machine's inter-core timing model
     * (src/core/remote_model.hh). With a model attached, a
     * data-absence trap no longer charges the RemoteRegion's fixed
     * latency: the context parks with ready_at = kNeverCycle and the
     * access is handed to the model; the owner must later resolve it
     * with completeRemote(). Inline (explicit-rotation) remote waits
     * charge the model's uncontendedLatency() instead of the stub
     * latency. Must be called before the first cycle; pass nullptr
     * to detach. The model is not owned.
     */
    void setRemoteModel(RemoteTimingModel *model);

    /**
     * Resolve a remote access previously handed to the attached
     * RemoteTimingModel: context frame @p frame wakes at
     * @p ready_at, which must be in this core's future. Called by
     * the many-core machine at quantum barriers.
     */
    void completeRemote(int frame, Cycle ready_at);

    /**
     * Earliest cycle after now() at which this core can do work
     * (kNeverCycle when drained — e.g. every runnable context is
     * parked on an unresolved remote access). The many-core machine
     * uses this to pick quantum boundaries. It counts every decode
     * attempt, a sleeping slot's too (docs/PERF.md), so it never
     * depends on how far fast-forward got.
     */
    Cycle nextEventHint() const { return nextEventCycle(now_); }

    /** Statistics accumulated so far (final once finished()). */
    const RunStats &stats() const { return stats_; }

  private:
    // ----- contexts (section 2.1.3) ------------------------------
    enum class CtxState
    {
        Unused,
        Ready,      ///< waiting for a free thread slot
        Running,    ///< bound to a slot
        WaitRemote, ///< switched out on a data-absence trap
        Finished
    };

    /** Access-requirement-buffer entry replayed after a resume. */
    struct ReplayEntry
    {
        Insn insn;
        Addr pc = 0;
    };

    struct Context
    {
        CtxState state = CtxState::Unused;
        Addr resume_pc = 0;
        /** Registers mapped onto the queue ring as flatReg() bits:
         *  the read (pop) side and the write (push) side, at most
         *  one integer register (never r0, QEN) and one FP register
         *  (QENF) each. Every decode attempt reads them, so they
         *  share a cache line with the low registers. */
        std::uint64_t q_reads = 0, q_writes = 0;
        std::array<std::uint32_t, kNumRegs> iregs{};
        std::array<double, kNumRegs> fregs{};
        std::vector<ReplayEntry> replay;

        Cycle ready_at = 0;
        /** Remote line now present; next access to it hits. */
        std::optional<Addr> satisfied_addr;
        std::uint64_t insns = 0;

        /** Replay mode: which recorded thread this context plays
         *  back (-1 = none), and the per-stream read cursors. Not
         *  checkpointed — replay and checkpoints are exclusive. */
        int trace_tid = -1;
        std::size_t next_branch = 0;
        std::size_t next_mem = 0;
    };

    // ----- thread slots ------------------------------------------
    struct WindowEntry
    {
        const CoreOp *op = nullptr;
        Addr pc = 0;
        bool replay = false;
    };

    /** The issue-path stall counters, one per blocking cause. */
    enum Stall
    {
        StallBranchOperands,
        StallPriority,
        StallWaw,
        StallStandby,
        StallNoStandby,
        StallMemorder,
        StallOperands,
        StallQueueFull,
        kNumStalls
    };

    /**
     * Stall-counter increments of one decode attempt, packed: cause
     * k in bits 8k..8k+7. Each increment comes from another window
     * entry, so a field cannot overflow for windows of up to 255
     * entries; a slot with a larger window never sleeps.
     */
    using StallCounts = std::uint64_t;
    /** Count one stall of cause @p k, in the run call's counters
     *  and in the attempt's packed @p attempt. */
    void
    countStall(StallCounts &attempt, Stall k)
    {
        ++stalls_[k];
        attempt += StallCounts{1} << (8 * k);
    }

    /**
     * Instruction queue unit: fetched addresses in a fixed-capacity
     * ring, oldest first (one contiguous buffer, no per-push node
     * allocation).
     */
    class InsnQueue
    {
      public:
        /** Empty the queue and size it for @p capacity words. */
        void
        init(int capacity)
        {
            capacity_ = capacity;
            buf_.assign(static_cast<std::size_t>(capacity), 0);
            clear();
        }
        void
        clear()
        {
            head_ = 0;
            count_ = 0;
        }
        int size() const { return count_; }
        /** Words that still fit. */
        int space() const { return capacity_ - count_; }
        bool empty() const { return count_ == 0; }
        Addr front() const { return buf_[head_]; }
        Addr at(int i) const { return buf_[wrap(head_ + i)]; }
        void
        push(Addr a)
        {
            buf_[wrap(head_ + count_)] = a;
            ++count_;
        }
        void
        pop()
        {
            head_ = wrap(head_ + 1);
            --count_;
        }

        /** Checkpoint field list: the count, then the addresses,
         *  oldest first; a reader rejects more than fit. */
        template <class Ar, class Self>
        static void
        fields(Ar &ar, Self &q)
        {
            auto n = static_cast<std::uint32_t>(q.count_);
            ar("count", n);
            if constexpr (Ar::kLoading) {
                ar.check(n <= static_cast<std::uint32_t>(q.capacity_),
                         "instruction queue overflow");
                q.clear();
            }
            for (std::uint32_t i = 0; i < n; ++i) {
                Addr a = Ar::kLoading ? 0 : q.at(static_cast<int>(i));
                ar("addr", a);
                if constexpr (Ar::kLoading)
                    q.push(a);
            }
        }

      private:
        int
        wrap(int i) const
        {
            const int cap = static_cast<int>(buf_.size());
            return i < cap ? i : i - cap;
        }

        std::vector<Addr> buf_;
        int capacity_ = 0;
        int head_ = 0;
        int count_ = 0;
    };

    struct Slot
    {
        int frame = -1;             ///< bound context, -1 = free
        bool trap_pending = false;  ///< draining for a switch-out
        /** Bit c is set while schedule unit c holds an op of this
         *  slot, arriving or parked (at most one: the station is
         *  depth 1). Derived: restore rebuilds it. */
        std::uint8_t ungranted = 0;

        // While the slot sleeps (its bit in asleep_, fast-forward
        // only, docs/PERF.md): the last decode attempt issued
        // nothing and cannot change before wake_at unless a wake
        // event (fetch delivery into window space, flush, bind, or
        // an own grant when wake_on_grant) arrives first. A grant
        // that writes a watched scoreboard entry pulls wake_at in to
        // the new clear cycle. Each skipped attempt would have
        // repeated sleep_stalls; they are credited to the counters
        // in bulk, counted from slept_through.
        /** The attempt was blocked by the class mask, which any own
         *  grant changes. */
        bool wake_on_grant = false;
        Cycle wake_at = 0;
        /** Scoreboard entries (flatReg() bits) the attempt read. */
        std::uint64_t watched = 0;
        /** While asleep: the last cycle whose attempt was made or
         *  credited. */
        Cycle slept_through = 0;
        StallCounts sleep_stalls = 0;

        InsnQueue iqueue;           ///< instruction queue unit
        Addr fetch_addr = 0;        ///< next address to fetch
        std::vector<WindowEntry> window;
        Cycle d2_allowed = 0;       ///< front-end refill bubble

        /** Scoreboard: result-clear cycle per register, indexed by
         *  flatReg() (integer r0, hardwired, stays 0); kNeverCycle
         *  while the producing instruction waits to be granted. */
        std::array<Cycle, 2 * kNumRegs> sb{};

        /** One {clear-cycle, count} bin of the write-back conflict
         *  tracker (each bank has one write port). */
        struct WbBin
        {
            Cycle at = 0;
            int count = 0;

            template <class Ar, class Self>
            static void
            fields(Ar &ar, Self &b)
            {
                ar("at", b.at);
                ar("count", b.count);
            }
        };

        /**
         * Write-back cycles seen recently, for the 1-write-port
         * conflict statistic, binned modulo the ring size. Live
         * clear-at values span at most the maximum result latency
         * (12 cycles), far below the ring size, so distinct live
         * cycles never share a bin; stale bins are simply
         * overwritten. Replaces a std::map whose node churn cost a
         * malloc/free pair per retired instruction.
         */
        std::array<WbBin, 64> wb_ring{};
    };

    // ----- fetch engine ------------------------------------------
    struct FetchOp
    {
        int slot = -1;
        Addr addr = 0;
        int words = 0;
        bool redirect = false;
        Cycle done_at = 0;
    };

    struct FetchPort
    {
        Cycle free_at = 0;
        std::vector<FetchOp> inflight;
        int rr_next = 0;            ///< round-robin refill pointer
    };

    struct PendingPush
    {
        Cycle at = 0;
        int slot = -1;
        std::uint64_t value = 0;
    };

    /** Slot sets, bit s for slot s. */
    struct SlotMasks
    {
        std::uint64_t live = 0;         ///< bound, not draining
        std::uint64_t draining = 0;     ///< bound, switching out
        /** Live, with instruction-queue space and text left: the
         *  slots a fetch could start for. */
        std::uint64_t wants_fetch = 0;
    };

    /** Recomputed from the primary state (core/invariants.cc): the
     *  derived fields — per slot its class mask, per link its
     *  reservations (pending pushes plus ungranted queue writes),
     *  the slot masks, the open frames and each event source's next
     *  event — per slot its fetches in flight, the sleepers' earliest
     *  wake_at, and the next event cycle by a full scan of the
     *  state, sleep-unaware and sleep-aware. */
    struct Derived
    {
        std::vector<std::uint8_t> ungranted;
        std::vector<int> fetches;
        std::vector<int> reserved;
        SlotMasks masks;
        int open_frames = 0;
        Cycle push_next = kNeverCycle;
        Cycle remote_next = kNeverCycle;
        Cycle units_next = kNeverCycle;
        Cycle wake_next = kNeverCycle;
        Cycle next_event = kNeverCycle;
        Cycle next_event_asleep = kNeverCycle;
    };
    Derived derive() const;
    /** Restore: set the derived fields from derive(), reserving a
     *  link no further than its depth. */
    void rebuildDerived();

    /** Slot @p s's bits of the slot masks, from its own state. */
    SlotMasks slotMasks(int s) const;
    /** Is slot @p s sleeping? */
    bool
    asleep(int s) const
    {
        return ((asleep_ >> s) & 1) != 0;
    }
    /** Bring slot @p s's mask bits up to date after it changed. */
    void refreshSlot(int s);
    /** The same for a live slot whose queue space or fetch address
     *  changed: only its wants-fetch bit can. */
    void
    refreshFetch(int s)
    {
        const Slot &slot = slots_[s];
        const std::uint64_t bit = std::uint64_t{1} << s;
        masks_.wants_fetch =
            slot.iqueue.space() > 0 && slot.fetch_addr < prog_.textEnd()
                ? masks_.wants_fetch | bit
                : masks_.wants_fetch & ~bit;
    }
    /** Slots with no bound context. */
    std::uint64_t
    freeSlots() const
    {
        return (~std::uint64_t{0} >> (kMaxSlots - cfg_.num_slots)) &
               ~(masks_.live | masks_.draining);
    }

    // ----- per-phase helpers --------------------------------------
    void fetchPhase(Cycle c);
    void schedulePhase(Cycle c);
    void contextPhase(Cycle c);
    void decodePhase(Cycle c);
    void rotationPhase(Cycle c);
    bool allDone() const;

    // idle-cycle fast-forward (docs/PERF.md)
    /**
     * Earliest cycle after @p c at which any pipeline state can
     * change: fetch deliveries/starts, schedule-unit latches and
     * grants, queue-register deposits, context wake-ups/binds, and
     * decode attempts. Returns c + 1 whenever the very next cycle
     * may do work and kNeverCycle when the machine is drained. With
     * @p sleep_aware a sleeping slot's repeated attempts count as
     * no event before its wake_at. A minimum over each source's
     * maintained next event and the live slots' attempts; derive()
     * keeps the full scan it equals.
     */
    Cycle nextEventCycle(Cycle c, bool sleep_aware = false) const;
    /** The earliest schedule-unit event, from the units. */
    Cycle unitsNext() const;
    /** Jump now_ to just before the next event (clamped to
     *  @p stop), batch-applying the implicit priority rotations of
     *  the skipped cycles; sleeping slots count theirs from
     *  slept_through. */
    void fastForward(Cycle stop);

    // decode helpers
    enum class ControlOutcome { Blocked, Issued, Flushed };

    void decodeSlot(int slot_id, Cycle c);
    /** D2: try to issue from the window. @return true when the
     *  attempt issued nothing and the slot may sleep (wake_at set). */
    bool issueWindow(int slot_id, Cycle c);
    ControlOutcome handleControl(int slot_id, Context &ctx,
                                 const WindowEntry &entry, Cycle c,
                                 StallCounts &stalls);
    OperandValues readOperands(int slot_id, Context &ctx,
                               const Insn &insn);
    bool operandsReady(int slot_id, const Context &ctx,
                       const CoreOp &op, Cycle c,
                       std::uint64_t pending_writes) const;
    /** Queue-register pops @p op performs under @p ctx's current
     *  queue mappings (0 = reads no queue register). */
    int queuePopCount(const Context &ctx, const CoreOp &op) const;

    // sleeping slots (docs/PERF.md)
    /** Add @p times repetitions of @p stalls to the counters. */
    void addStalls(StallCounts stalls, std::uint64_t times);
    /** Credit the slot's skipped attempts through now_ (end of a
     *  run call); it stays asleep. */
    void creditSleep(int slot_id);
    /** Credit and wake, before the slot's decode turn in now_: its
     *  next decodeSlot makes a real attempt. */
    void
    wakeSlot(int slot_id)
    {
        if (asleep(slot_id))
            wakeSleeper(slot_id);
    }
    void wakeSleeper(int slot_id);
    /** Wake the sleepers whose wake_at has come by @p c, and bring
     *  wake_next_ up to the rest. */
    void wakeDue(Cycle c);
    /** Add the stall increments of this run call to detail_ and
     *  RunStats::standby_stalls. */
    void publishStalls();

    // grant-time execution
    void performGrant(const IssuedOp &op, int unit, Cycle c);
    void writeResult(Slot &slot, Context &ctx, const IssuedOp &op,
                     bool is_fp, std::uint32_t ival, double fval,
                     Cycle c);
    void takeRemoteTrap(const IssuedOp &op, Cycle c, Addr addr);

    // verified trace replay
    /** Consume the context's next branch record; @p pc and the
     *  @p evaluated resolved target must both match it. */
    void replayBranch(Context &ctx, Addr pc, Addr evaluated);
    /** Check the context's next memory record against @p pc /
     *  @p addr without consuming it (a data-absence trap re-checks
     *  the same record on resume). */
    void replayMemAddr(const Context &ctx, Addr pc,
                       Addr addr) const;
    /** Throw unless every claimed record stream is fully drained. */
    void checkReplayDrained() const;

    // thread management
    void bindContext(int frame, int slot_id, Cycle c);
    void unbindSlot(int slot_id);
    void flushFrontEnd(int slot_id);
    void killOtherThreads(int killer_slot);
    Addr nextUnissuedPc(int slot_id) const;

    // fetch helpers
    FetchPort &portOf(int slot_id);
    /** Start the next sequential fetch for @p slot_id on its idle
     *  port. */
    void startFetch(int slot_id, Cycle c);
    Cycle scheduleRedirect(int slot_id, Addr target, Cycle earliest);
    void cancelFetches(int slot_id);
    /** Extra fetch cycles from instruction-cache misses. */
    Cycle icacheDelay(Addr addr, int words);

    // priority
    bool hasTopPriority(int slot_id) const;
    /** Rotate the ring by @p by places: slot top+by leads. */
    void rotateRing(std::uint64_t by);

    const Program &prog_;
    MainMemory &mem_;
    CoreConfig cfg_;
    /** Text segment decoded once; every window fill indexes it. */
    PredecodedText text_;

    std::vector<Context> contexts_;
    std::vector<Slot> slots_;
    std::optional<DirectMappedCache> dcache_;
    std::optional<DirectMappedCache> icache_;
    std::vector<ScheduleUnit> sched_units_;
    std::vector<FetchPort> ports_;
    QueueRing ring_regs_;
    std::vector<PendingPush> pending_pushes_;

    /**
     * Thread-slot priority order, highest first: ring_top_,
     * ring_top_+1, ..., num_slots-1, then 0 up to ring_top_-1. Every
     * rotation keeps the ring a rotation of the slots, so its
     * offset is the whole of it.
     */
    int ring_top_ = 0;
    bool rotate_requested_ = false;
    RotationMode rotation_mode_;
    int rotation_interval_;

    Cycle last_activity_ = 0;
    /** Last completed cycle; run loops execute cycle now_ + 1. */
    Cycle now_ = 0;
    bool finished_ = false;
    std::vector<int> ready_fifo_;   ///< Ready contexts, FIFO order

    RunStats stats_;
    stats::Group detail_{"core"};

    /** Armed execution trace for replay mode (not owned). */
    const ExecTrace *replay_ = nullptr;

    /** Inter-core timing model for remote accesses (not owned);
     *  nullptr = the fixed-latency RemoteRegion stub. */
    RemoteTimingModel *remote_model_ = nullptr;

    obs::EventSink *sink_ = nullptr;
    /** Emit a state snapshot at the next run()/runUntil() entry. */
    bool snapshot_pending_ = false;

    // ----- derived state (rebuilt on restore, docs/PERF.md) -------
    SlotMasks masks_;
    /** Frames Ready, Running or WaitRemote: the run is not done. */
    int open_frames_ = 0;
    /** Earliest pending queue-register push. */
    Cycle push_next_ = kNeverCycle;
    /** Earliest ready_at over the WaitRemote frames. */
    Cycle remote_next_ = kNeverCycle;
    /** Earliest schedule-unit event (latch or grant). */
    Cycle units_next_ = kNeverCycle;
    /** Sleeping slots, whose Slot sleep fields hold their attempt.
     *  Not state either: a restore wakes every slot. */
    std::uint64_t asleep_ = 0;
    /** At or before every sleeper's wake_at: decodePhase scans the
     *  sleepers only once it is due. */
    Cycle wake_next_ = kNeverCycle;

    /**
     * Issue-path stall counters, indexed by Stall, resolved once at
     * construction; detail_'s string-keyed export surface is
     * unchanged (std::map node references are stable).
     */
    std::array<std::uint64_t *, kNumStalls> stall_{};
    /** Stall increments of the current run call, by Stall;
     *  publishStalls() moves them to stall_ before it returns. */
    std::array<std::uint64_t, kNumStalls> stalls_{};

    /** Emit the synthetic machine-state events a fresh stream
     *  needs to be self-contained (snapshot, ring, binds, queue
     *  depths, parked ops). */
    void emitStateSnapshot();
    /** Emit the current priority-ring order at cycle @p c. */
    void emitRing(Cycle c);

    /** The one checkpoint transfer (core/checkpoint.cc): writes
     *  SMTCKPT1 with Self = const MultithreadedProcessor, restores
     *  it with Self = MultithreadedProcessor. */
    template <class Ar, class Self>
    static void transfer(Ar &ar, Self &cpu);
};

} // namespace smtsim

#endif // SMTSIM_CORE_PROCESSOR_HH
