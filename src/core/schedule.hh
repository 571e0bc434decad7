/**
 * @file
 * Instruction schedule units and standby stations (sections 2.1.1
 * and 2.2).
 *
 * One ScheduleUnit manages every functional unit of a class. Each
 * cycle it selects, in rotating thread-priority order, up to as many
 * waiting instructions as units can accept. Losers stay in their
 * depth-1 standby station (one per functional-unit class per thread
 * slot), which lets the owning decode unit keep issuing instructions
 * bound for *other* units — the paper's bounded out-of-order
 * execution.
 */

#ifndef SMTSIM_CORE_SCHEDULE_HH
#define SMTSIM_CORE_SCHEDULE_HH

#include <optional>
#include <span>
#include <vector>

#include "base/types.hh"
#include "isa/dataop.hh"
#include "isa/insn.hh"
#include "obs/event.hh"

namespace smtsim
{

class PredecodedText;

/** An instruction in flight between decode (D2) and execution. */
struct IssuedOp
{
    Insn insn;
    /** insn.dst(), resolved at issue so the grant never re-derives
     *  it. */
    RegRef dst;
    Addr pc = 0;
    int slot = -1;
    /** Operand values captured at issue (register-read model). */
    OperandValues ops;
    /** Cycle the op reaches the schedule (S) stage. */
    Cycle arrive = 0;
    /** Destination is a queue-register mapping (push, not write). */
    bool queue_write = false;

    /** Checkpoint field list (base/serial.hh); dst is re-derived
     *  from the instruction on restore. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &op)
    {
        ar("insn", op.insn);
        ar("pc", op.pc);
        ar("slot", op.slot);
        ar("rs_i", op.ops.rs_i);
        ar("rt_i", op.ops.rt_i);
        ar("rs_f", op.ops.rs_f);
        ar("rt_f", op.ops.rt_f);
        ar("arrive", op.arrive);
        ar("queue_write", op.queue_write);
    }
};

/** One granted instruction with its assigned functional unit. */
struct Grant
{
    IssuedOp op;
    int unit = 0;
};

/** Schedule unit for one functional-unit class. */
class ScheduleUnit
{
  public:
    ScheduleUnit(FuClass cls, int num_units, int num_slots);

    /** True while @p slot has an instruction waiting here. */
    bool slotBusy(int slot) const;

    /** Accept an instruction issued by a decode unit. */
    void submit(IssuedOp op);

    /**
     * Run the selection for cycle @p c. @p priority_order lists the
     * thread slots from highest to lowest priority. Grants are
     * written to the front of @p out, which must hold numUnits()
     * of them (one cycle grants each unit at most once); returns
     * the written prefix.
     */
    std::span<Grant> select(Cycle c, std::span<const int> priority_order,
                            std::span<Grant> out);

    /** Functional units of this class. */
    int numUnits() const { return static_cast<int>(units_.size()); }

    /**
     * Earliest cycle at which this unit can act on its current
     * contents — an incoming instruction latching into its standby
     * station, or a waiting instruction being granted once a unit
     * frees up. kNeverCycle when empty. select() for an earlier
     * cycle is a no-op, so the per-cycle schedule phase skips it;
     * the idle-cycle fast-forward clamps it to "next cycle". Kept
     * up to date by every mutator, so reading it is O(1).
     */
    Cycle nextEventCycle() const { return next_event_; }

    /** Discard any waiting instruction of @p slot (thread killed). */
    void flushSlot(int slot);

    /** Call @p f on every instruction waiting here, in standby or
     *  incoming. */
    template <class F>
    void
    forEachOp(F f) const
    {
        for (const std::optional<IssuedOp> &op : standby_) {
            if (op)
                f(*op);
        }
        for (const IssuedOp &op : incoming_)
            f(op);
    }

    /** Do the occupied-station count and nextEventCycle() agree
     *  with the contents? */
    bool
    consistent() const
    {
        return standby_occupied_ == countOccupied() &&
               next_event_ == computeNextEvent();
    }

    FuClass fuClass() const { return cls_; }

    /** Attach/detach the event sink (Park events from select()). */
    void setSink(obs::EventSink *sink) { sink_ = sink; }

    /** Emit Park events for every occupied standby station, part
     *  of the processor's state snapshot at trace start. */
    void snapshotTo(obs::EventSink &sink, Cycle c) const;

    /**
     * Checkpoint transfer (base/serial.hh, docs/OBSERVABILITY.md),
     * either direction. A reader rejects a unit or station count
     * that differs from this unit's, an op outside its slot's
     * station or the slot range, two ops bound for one station, and
     * an op whose instruction is not @p text's at its pc.
     */
    template <class Ar, class Self>
    static void transfer(Ar &ar, Self &su, const PredecodedText &text);

  private:
    FuClass cls_;
    obs::EventSink *sink_ = nullptr;
    /** Earliest cycle each unit accepts a new instruction. */
    std::vector<Cycle> units_;
    /** Standby stations, one per thread slot, depth 1. */
    std::vector<std::optional<IssuedOp>> standby_;
    /** Count of occupied standby stations. */
    int standby_occupied_ = 0;
    /** standby_occupied_ recounted from the stations. */
    int countOccupied() const;
    /** Instructions issued this cycle, arriving at S next cycle. */
    std::vector<IssuedOp> incoming_;
    /** nextEventCycle()'s value. */
    Cycle next_event_ = kNeverCycle;

    /** nextEventCycle() recomputed from the units and stations. */
    Cycle computeNextEvent() const;
    void updateNextEvent() { next_event_ = computeNextEvent(); }
};

} // namespace smtsim

#endif // SMTSIM_CORE_SCHEDULE_HH
