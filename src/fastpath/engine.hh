/**
 * @file
 * Threaded-code functional engine: the one architectural model of
 * the ISA (docs/PERF.md section 4).
 *
 * FastEngine executes programs architecturally, with full support
 * for the multithreading primitives (fast-fork, queue registers,
 * priority rotation, kill-threads, priority stores), but without
 * any timing. Both pipeline models are validated against it: for
 * every workload, final memory contents and halted-register state
 * must match.
 *
 * Every instruction can go through one generic step function that
 * schedules round-robin (one step per running thread per round)
 * and applies the blocking rules. runReference() uses nothing
 * else; it is the golden model. run() adds the speed:
 *  - the text segment is predecoded into a dense array of
 *    handler-dispatched ops with per-format fields resolved
 *    (destination register, zero-extended immediates, static
 *    branch targets),
 *  - while exactly one thread is running with no queue-register
 *    mappings (the whole run for single-threaded programs, the
 *    pre-fork prologue otherwise) execution drops into a tight
 *    threaded-code loop — computed goto on GCC/Clang, a switch
 *    elsewhere — with no scheduling, blocking or mapping checks.
 * The two must agree bit for bit: step counts, per-thread counts,
 * registers, memory, completion and errors (tests/test_interp.cc,
 * tests/test_fastpath.cc and the fuzzer's interp-vs-fast cells).
 *
 * run() optionally records an execution trace (exec_trace.hh): the
 * resolved outcome of every data-dependent control transfer, every
 * memory effective address and every queue push — what verified
 * replay of the detailed core needs.
 */

#ifndef SMTSIM_FASTPATH_ENGINE_HH
#define SMTSIM_FASTPATH_ENGINE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "asmr/program.hh"
#include "base/types.hh"
#include "isa/insn.hh"
#include "mem/memory.hh"
#include "trace/exec_trace.hh"

namespace smtsim
{

/** Functional-engine configuration. */
struct InterpConfig
{
    /** Number of logical processors (thread slots). */
    int num_threads = 1;
    /** Queue-register FIFO depth (paper's Figure 5 shows 4). */
    int queue_depth = 4;
    /** Step budget; exceeding it is reported as a failure. */
    std::uint64_t max_steps = 500'000'000;
};

/** Outcome of a functional run. */
struct InterpResult
{
    bool completed = false;     ///< every thread halted or was killed
    std::uint64_t steps = 0;    ///< total instructions executed
    std::vector<std::uint64_t> per_thread_steps;
};

} // namespace smtsim

namespace smtsim::fastpath
{

/** The functional engine. Single-shot: construct, run() or
 *  runReference() once, then read registers. */
class FastEngine
{
  public:
    FastEngine(const Program &prog, MainMemory &mem,
               const InterpConfig &cfg = {});

    /**
     * Run until all threads finish, optionally recording an
     * execution trace through @p rec. Throws FatalError on an
     * architectural deadlock, reports budget exhaustion via
     * InterpResult::completed.
     */
    InterpResult run(TraceRecorder *rec = nullptr);

    /** run() with the chunk loop switched off: the reference every
     *  faster path is checked against. Same contract as run(). */
    InterpResult runReference();

    /** Architectural integer register of a thread (post-run). */
    std::uint32_t intReg(int thread, RegIndex idx) const;
    /** Architectural FP register of a thread (post-run). */
    double fpReg(int thread, RegIndex idx) const;

  private:
    enum class ThreadState
    {
        Inactive,
        Running,
        Halted,
        Killed
    };

    /** Index of the scratch register that swallows writes whose
     *  architectural destination is r0. */
    static constexpr int kSinkReg = kNumRegs;

    struct Thread
    {
        ThreadState state = ThreadState::Inactive;
        Addr pc = 0;
        /** [kSinkReg] is the r0 write sink; r0 itself stays 0. */
        std::array<std::uint32_t, kNumRegs + 1> iregs{};
        std::array<double, kNumRegs> fregs{};
        std::optional<RegIndex> q_read_int, q_write_int;
        std::optional<RegIndex> q_read_fp, q_write_fp;
        std::uint64_t steps = 0;
    };

    /** One predecoded instruction, fields resolved per format. */
    struct FastOp
    {
        Op op = Op::NOP;
        /** Integer destination, r0 remapped to kSinkReg. */
        std::uint8_t dst = kSinkReg;
        RegIndex rd = 0, rs = 0, rt = 0;
        std::int32_t imm = 0;
        /** Pre-shifted LUI value / zero-extended imm16 / shamt. */
        std::uint32_t uimm = 0;
        /** Static target: J/JAL absolute, conditional taken pc. */
        Addr target = 0;
    };

    /** Why the tight loop handed control back. */
    enum class ChunkExit
    {
        Budget,     ///< max_steps reached
        Halted,     ///< executed HALT
        Forked,     ///< FASTFORK activated sibling threads
        Mapped      ///< QEN/QENF installed a queue mapping
    };

    InterpResult runLoop(TraceRecorder *rec, bool chunked);

    template <bool Traced>
    ChunkExit runChunk(int tid, std::uint64_t &total,
                       TraceRecorder *rec);

    /**
     * One architectural step of thread @p tid.
     * @return true if the thread made progress (false = blocked).
     */
    bool stepGeneric(int tid, TraceRecorder *rec);

    /** The sole running thread if it is chunk-eligible (no queue
     *  mappings), else -1. */
    int soleRunner() const;

    bool hasTopPriority(int tid) const;
    void rotatePriority();
    void removeFromRing(int tid);
    /** Queue from LP @p src to its ring successor. */
    std::deque<std::uint64_t> &queueFrom(int src);
    std::deque<std::uint64_t> &queueInto(int dst);

    /** Read an int source, honoring queue-register mappings. */
    bool readInt(Thread &t, int tid, RegIndex idx,
                 std::uint32_t &out);
    bool readFp(Thread &t, int tid, RegIndex idx, double &out);
    bool writeInt(Thread &t, int tid, Addr pc, RegIndex idx,
                  std::uint32_t value, TraceRecorder *rec);
    bool writeFp(Thread &t, int tid, Addr pc, RegIndex idx,
                 double value, TraceRecorder *rec);

    const Program &prog_;
    MainMemory &mem_;
    InterpConfig cfg_;
    PredecodedText text_;

    /** Dense op array parallel to the text segment. */
    std::vector<FastOp> ops_;
    Addr text_base_ = 0;
    Addr text_bytes_ = 0;

    std::vector<Thread> threads_;
    /** Per-link FIFO: queues_[i] carries LP i -> LP i+1 data. */
    std::vector<std::deque<std::uint64_t>> queues_;
    /** Priority ring, highest priority first (alive threads only). */
    std::vector<int> ring_;
};

/** A recorded run: functional outcome + execution trace. */
struct TracedRun
{
    InterpResult result;
    ExecTrace trace;
};

/** Run the fast engine once, assembling the trace in memory. */
TracedRun recordTrace(const Program &prog, MainMemory &mem,
                      const InterpConfig &cfg = {});

} // namespace smtsim::fastpath

#endif // SMTSIM_FASTPATH_ENGINE_HH
