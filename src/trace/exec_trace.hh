/**
 * @file
 * In-memory execution traces for verified replay of the detailed
 * core (docs/PERF.md section 4).
 *
 * The fast engine records, per thread, exactly the data-dependent
 * decisions a timing model cannot recompute without architectural
 * values:
 *
 *  - every *resolved* branch outcome (conditional branches and the
 *    register-indirect JR/JALR; J/JAL targets are static),
 *  - every memory-access effective address, in program order,
 *  - every queue-register push with its value (informational; the
 *    timing models re-derive queue occupancy structurally).
 */

#ifndef SMTSIM_TRACE_EXEC_TRACE_HH
#define SMTSIM_TRACE_EXEC_TRACE_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "base/types.hh"

namespace smtsim
{

/**
 * Thrown by a trace-driven timing run when the machine's execution
 * departs from the recorded trace (wrong pc on a record, stream
 * exhausted, or records left over at completion). Replay callers
 * catch this and fall back to execute mode — the trace-recording
 * contract (docs/PERF.md) says when it cannot happen.
 */
struct ReplayDivergence : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** One resolved control transfer (conditional or indirect). */
struct BranchRec
{
    Addr pc = 0;    ///< branch instruction address
    Addr next = 0;  ///< resolved next pc (pc+4 when untaken)

    bool operator==(const BranchRec &) const = default;
};

/** One memory access (loads and stores alike). */
struct MemRec
{
    Addr pc = 0;    ///< memory instruction address
    Addr addr = 0;  ///< effective address

    bool operator==(const MemRec &) const = default;
};

/** One queue-register push (raw 64-bit payload). */
struct QueueRec
{
    Addr pc = 0;
    std::uint64_t value = 0;

    bool operator==(const QueueRec &) const = default;
};

/** Per-thread record streams, each in program order. */
struct ThreadTrace
{
    std::vector<BranchRec> branches;
    std::vector<MemRec> mems;
    std::vector<QueueRec> queue_pushes;
    /** Instructions the thread executed (all of them, not just the
     *  recorded ones). */
    std::uint64_t insns = 0;

    bool operator==(const ThreadTrace &) const = default;
};

/** A full recorded execution: one ThreadTrace per logical
 *  processor, indexed by engine thread id. */
struct ExecTrace
{
    Addr entry = 0;
    std::vector<ThreadTrace> threads;

    bool operator==(const ExecTrace &) const = default;
};

/**
 * Sink interface the fast engine records through; one callback per
 * record kind, invoked in per-thread program order.
 */
class TraceRecorder
{
  public:
    virtual ~TraceRecorder() = default;
    virtual void onBranch(int tid, Addr pc, Addr next) = 0;
    virtual void onMem(int tid, Addr pc, Addr addr) = 0;
    virtual void onQueuePush(int tid, Addr pc,
                             std::uint64_t value) = 0;
};

/** Recorder that assembles an ExecTrace in memory. */
class TraceBuilder final : public TraceRecorder
{
  public:
    explicit TraceBuilder(int num_threads)
    {
        trace_.threads.resize(
            static_cast<std::size_t>(num_threads));
    }

    void
    onBranch(int tid, Addr pc, Addr next) override
    {
        trace_.threads[static_cast<std::size_t>(tid)]
            .branches.push_back(BranchRec{pc, next});
    }

    void
    onMem(int tid, Addr pc, Addr addr) override
    {
        trace_.threads[static_cast<std::size_t>(tid)]
            .mems.push_back(MemRec{pc, addr});
    }

    void
    onQueuePush(int tid, Addr pc, std::uint64_t value) override
    {
        trace_.threads[static_cast<std::size_t>(tid)]
            .queue_pushes.push_back(QueueRec{pc, value});
    }

    /** The assembled trace (entry/insns filled by the caller). */
    ExecTrace &trace() { return trace_; }

  private:
    ExecTrace trace_;
};

} // namespace smtsim

#endif // SMTSIM_TRACE_EXEC_TRACE_HH
