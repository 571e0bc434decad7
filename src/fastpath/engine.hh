/**
 * @file
 * Threaded-code functional engine (the fast half of the
 * functional-first pipeline, docs/PERF.md).
 *
 * FastEngine is a drop-in replacement for the reference
 * Interpreter: same constructor shape, same InterpConfig /
 * InterpResult types, and bit-identical results — scheduling
 * (round-robin, one step per running thread per round), blocking
 * rules, error behaviour, step counts, registers and memory all
 * match the golden model exactly (tests/test_fastpath.cc and the
 * fuzzer's `fast` oracle cells enforce this).
 *
 * The speed comes from three things:
 *  - the text segment is predecoded into a dense array of
 *    handler-dispatched ops with per-format fields resolved
 *    (destination register, zero-extended immediates, static
 *    branch targets),
 *  - while exactly one thread is running with no queue-register
 *    mappings (the whole run for single-threaded programs, the
 *    pre-fork prologue otherwise) execution drops into a tight
 *    threaded-code loop — computed goto on GCC/Clang, a switch
 *    elsewhere — with no scheduling, blocking or mapping checks,
 *  - memory accesses go through MainMemory's one-entry page cache
 *    (every engine's) instead of a hash lookup per access.
 *
 * run() optionally records an execution trace (exec_trace.hh): the
 * resolved outcome of every data-dependent control transfer, every
 * memory effective address and every queue push — exactly what
 * trace-driven replay of the timing models needs.
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
#include "interp/interpreter.hh"
#include "isa/insn.hh"
#include "mem/memory.hh"
#include "trace/exec_trace.hh"

namespace smtsim::fastpath
{

/** The threaded-code functional engine. Single-shot: construct,
 *  run() once, then read registers. */
class FastEngine
{
  public:
    FastEngine(const Program &prog, MainMemory &mem,
               const InterpConfig &cfg = {});

    /**
     * Run until all threads finish, optionally recording an
     * execution trace through @p rec. Same contract as
     * Interpreter::run(): throws FatalError on an architectural
     * deadlock, reports budget exhaustion via
     * InterpResult::completed.
     */
    InterpResult run(TraceRecorder *rec = nullptr);

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

    template <bool Traced>
    ChunkExit runChunk(int tid, std::uint64_t &total,
                       TraceRecorder *rec);

    /** One architectural step, faithful to Interpreter::step. */
    bool stepGeneric(int tid, TraceRecorder *rec);

    /** The sole running thread if it is chunk-eligible (no queue
     *  mappings), else -1. */
    int soleRunner() const;

    bool hasTopPriority(int tid) const;
    void rotatePriority();
    void removeFromRing(int tid);
    std::deque<std::uint64_t> &queueFrom(int src);
    std::deque<std::uint64_t> &queueInto(int dst);

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
    std::vector<std::deque<std::uint64_t>> queues_;
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

/**
 * Same result, produced pipeline-style: the engine runs on its own
 * host thread streaming records through a bounded SPSC ring
 * (trace/spsc.hh) while the calling thread assembles the trace —
 * the deployment shape of the functional-first pipeline, where the
 * consumer is a timing model.
 */
TracedRun recordTraceStreaming(const Program &prog, MainMemory &mem,
                               const InterpConfig &cfg = {});

} // namespace smtsim::fastpath

#endif // SMTSIM_FASTPATH_ENGINE_HH
