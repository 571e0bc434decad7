/**
 * @file
 * The conventional RISC processor of Figure 3(b): the sequential
 * machine every speed-up ratio in the paper is measured against.
 *
 * Pipeline contract (section 2.1.2):
 *  - dependent instructions whose producer has result latency L are
 *    separated by L+1 cycles (scoreboard interlock);
 *  - any branch costs a 4-cycle gap between its issue and the issue
 *    of the next instruction (no delay slots, no prediction);
 *  - functional units accept a new instruction every issue-latency
 *    cycles (load/store: 2).
 *
 * The same model doubles as the (D,1)-processor of Table 3: with
 * width > 1 it issues up to D independent instructions per cycle
 * from an instruction window that is refilled every cycle.
 */

#ifndef SMTSIM_BASELINE_BASELINE_HH
#define SMTSIM_BASELINE_BASELINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "asmr/program.hh"
#include "base/types.hh"
#include "isa/insn.hh"
#include "machine/fu_pool.hh"
#include "machine/run_stats.hh"
#include "mem/memory.hh"
#include "obs/event.hh"

namespace smtsim
{

/** Configuration of the baseline processor. */
struct BaselineConfig
{
    /** Superscalar issue width D (Table 3's (D,1) processors). */
    int width = 1;
    /** Functional-unit inventory. */
    FuPoolConfig fus;
    /** Issue-to-issue gap after any branch (paper: 4 cycles). */
    int branch_gap = 4;
    /**
     * Skip cycles that provably issue nothing (branch-gap bubbles,
     * scoreboard/FU waits) by jumping to the next cycle a hazard
     * comparison can flip. Cycle counts and statistics are
     * bit-identical either way; off = naive-loop oracle.
     */
    bool fast_forward = true;
    /** Simulation budget. */
    std::uint64_t max_cycles = 2'000'000'000ull;

    /** Field list (base/fields.hh) of the lab's config JSON. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &s)
    {
        ar("width", s.width);
        ar("fus", s.fus);
        ar("branch_gap", s.branch_gap);
        ar("fast_forward", s.fast_forward);
        ar("max_cycles", s.max_cycles);
    }
};

/**
 * Cycle-accurate single-thread RISC model. Thread-control
 * instructions degenerate gracefully (fast-fork is a no-op, TID
 * reads 0, priority stores behave as plain stores) so the sequential
 * versions of all workloads run unchanged.
 */
class BaselineProcessor
{
  public:
    BaselineProcessor(const Program &prog, MainMemory &mem,
                      const BaselineConfig &cfg = {});

    /** Run to completion (HALT) or until the cycle budget runs out. */
    RunStats run();

    /** Architectural register state (post-run, for checking). */
    std::uint32_t intReg(RegIndex idx) const { return iregs_[idx]; }
    double fpReg(RegIndex idx) const { return fregs_[idx]; }

    /**
     * Attach a structured event sink (same schema as the
     * multithreaded core, on one thread slot: data/memory ops
     * appear as Grant events, control ops as Issue events with
     * fu == -1, so smtsim-scope counts retirements identically for
     * both models). Pass nullptr to disable (the default); the sink
     * is not owned.
     */
    void setEventSink(obs::EventSink *sink);

  private:
    struct WindowEntry
    {
        const CoreOp *op = nullptr;
        Addr pc = 0;
    };

    /** True iff every source of @p op is readable in cycle @p c and
     *  none is written by an older waiting entry. */
    bool srcsReady(const CoreOp &op, Cycle c,
                   std::uint64_t pending_writes) const;

    /** Find a unit of @p cls free in cycle @p c (or -1). */
    int freeUnit(FuClass cls, Cycle c) const;

    void issueDataOp(const CoreOp &op, Cycle c, int unit);
    void issueMemOp(const CoreOp &op, Cycle c, int unit);
    /** @return new next-PC after the branch. */
    Addr resolveBranch(const Insn &insn, Addr pc, Cycle c);

    void refillWindow();

    /**
     * Earliest cycle after @p c at which any issue-blocking
     * comparison (clear cycle of a register the window names, FU
     * free cycle) can change its outcome; kNeverCycle when nothing
     * is pending. Only valid right after a cycle that issued
     * nothing: until that cycle, the window contents and all hazard
     * state are frozen.
     */
    Cycle nextIssueEventCycle(Cycle c) const;

    const Program &prog_;
    MainMemory &mem_;
    BaselineConfig cfg_;
    /** Text segment decoded once; refillWindow indexes it. */
    PredecodedText text_;

    std::array<std::uint32_t, kNumRegs> iregs_{};
    std::array<double, kNumRegs> fregs_{};
    /** Result-clear cycle per register, indexed by flatReg()
     *  (integer r0, hardwired, stays 0). */
    std::array<Cycle, 2 * kNumRegs> clear_{};

    /** Per-class, per-unit earliest cycle the unit accepts again. */
    std::array<std::vector<Cycle>, kNumFuClasses> fu_free_;

    std::vector<WindowEntry> window_;
    Addr fetch_pc_ = 0;
    Cycle stall_until_ = 0;
    Cycle last_activity_ = 0;
    bool running_ = true;

    RunStats stats_;

    obs::EventSink *sink_ = nullptr;

    /** Emit the synthetic stream prologue (snapshot, ring, bind). */
    void emitStreamPrologue();
    void emitSimple(obs::EventKind kind, Cycle c, Addr pc,
                    const Insn &insn, std::uint64_t a = 0);
};

} // namespace smtsim

#endif // SMTSIM_BASELINE_BASELINE_HH
