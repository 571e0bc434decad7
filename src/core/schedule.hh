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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hh"
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

/**
 * Schedule unit for one functional-unit class.
 *
 * An op stays in its slot's standby station from issue to grant:
 * the decode unit writes it into station(slot) and submit()s it,
 * which marks the station arriving; select() in the arrival cycle
 * parks it, and grants it from there. Slot sets are 64-bit masks,
 * and a priority order is the ring's rotation offset: the order
 * top, top+1, ..., then from slot 0 up to top-1.
 */
class ScheduleUnit
{
  public:
    ScheduleUnit(FuClass cls, int num_units, int num_slots);

    /** True while @p slot has an instruction here, arriving or
     *  parked. */
    bool
    slotBusy(int slot) const
    {
        return (((parked_ | arriving_) >> slot) & 1) != 0;
    }

    /** @p slot's standby station: the decode unit writes its op
     *  here, then submit()s it. */
    IssuedOp &station(int slot) { return stations_[slot]; }

    /**
     * Submit the op written into @p slot's station; it reaches S
     * at its arrive cycle, which every op still arriving shares:
     * they all come from one decode phase, which visits the slots
     * in the ring order from @p order_top. That is their arrival
     * order.
     */
    void
    submit(int slot, int order_top)
    {
        SMTSIM_ASSERT(!slotBusy(slot),
                      "double submit to one standby station");
        arriving_ |= std::uint64_t{1} << slot;
        arrival_top_ = order_top;
        arrive_at_ = stations_[slot].arrive;
        next_event_ = std::min(next_event_, arrive_at_);
    }

    /**
     * Run the selection for cycle @p c in the priority order of
     * the ring rotated to @p top: park the arriving ops, then grant
     * parked ops while units can accept, calling
     * @p grant(const IssuedOp &, unit) for each, highest priority
     * first. The op stays in its station during the call.
     */
    template <class Grant>
    void select(Cycle c, int top, Grant grant);

    /**
     * Earliest cycle at which this unit can act on its current
     * contents — arriving instructions latching into their standby
     * stations, or a parked instruction being granted once a unit
     * frees up. kNeverCycle when empty. select() for an earlier
     * cycle is a no-op, so the per-cycle schedule phase skips it;
     * the idle-cycle fast-forward clamps it to "next cycle". Kept
     * up to date by every mutator, so reading it is O(1).
     */
    Cycle nextEventCycle() const { return next_event_; }

    /** Discard any waiting instruction of @p slot (thread killed). */
    void flushSlot(int slot);

    /** Call @p f on every instruction waiting here: the parked ones
     *  in slot order, then the arriving ones in arrival order. */
    template <class F>
    void
    forEachOp(F f) const
    {
        for (std::uint64_t m = parked_; m != 0; m &= m - 1)
            f(stations_[std::countr_zero(m)]);
        forEachSlot(arriving_, arrival_top_,
                    [&](int s) { f(stations_[s]); });
    }

    /** "" when the masks, the arrival order and nextEventCycle()
     *  agree with the stations and, between cycles @p now and
     *  now+1, every parked op has arrived and every arriving one
     *  arrives in now+1; else the first disagreement. */
    std::string consistency(Cycle now) const;

    FuClass fuClass() const { return cls_; }

    /** Attach/detach the event sink (Park events from select()). */
    void setSink(obs::EventSink *sink) { sink_ = sink; }

    /** Emit Park events for every occupied standby station, part
     *  of the processor's state snapshot at trace start. */
    void snapshotTo(obs::EventSink &sink, Cycle c) const;

    /**
     * Checkpoint transfer (base/serial.hh, docs/OBSERVABILITY.md),
     * either direction: the parked ops by station, then the
     * arriving ones in arrival order. A reader rejects a unit or
     * station count that differs from this unit's, an op outside
     * its slot's station or the slot range, two ops bound for one
     * station, arriving ops out of ring order, and an op whose
     * instruction is not @p text's at its pc.
     */
    template <class Ar, class Self>
    static void transfer(Ar &ar, Self &su, const PredecodedText &text);

    /** Call @p f(slot) for each slot of @p mask in the ring order
     *  rotated to @p top. */
    template <class F>
    static void
    forEachSlot(std::uint64_t mask, int top, F f)
    {
        for (std::uint64_t m = std::rotr(mask, top); m != 0; m &= m - 1)
            f((std::countr_zero(m) + top) & 63);
    }

  private:
    FuClass cls_;
    /** The ring offset of the decode phase the arriving ops came
     *  from: their arrival order. */
    int arrival_top_ = 0;
    obs::EventSink *sink_ = nullptr;
    /** Earliest cycle each unit accepts a new instruction. */
    std::vector<Cycle> units_;
    /** Standby stations, one per thread slot, depth 1. */
    std::vector<IssuedOp> stations_;
    /** Stations holding an op latched at S, waiting for a unit. */
    std::uint64_t parked_ = 0;
    /** Stations holding an op that reaches S in arrive_at_. */
    std::uint64_t arriving_ = 0;
    Cycle arrive_at_ = 0;
    /** nextEventCycle()'s value. */
    Cycle next_event_ = kNeverCycle;

    /** nextEventCycle() recomputed from the units and stations. */
    Cycle computeNextEvent() const;
    void emitPark(obs::EventSink &sink, int slot, Cycle c) const;
};

template <class Grant>
void
ScheduleUnit::select(Cycle c, int top, Grant grant)
{
    // Latch the arriving instructions into their standby stations.
    if (arriving_ != 0 && arrive_at_ <= c) {
        if (sink_) {
            forEachSlot(arriving_, arrival_top_,
                        [&](int s) { emitPark(*sink_, s, c); });
        }
        parked_ |= arriving_;
        arriving_ = 0;
    }

    // Grant in priority order while units can accept.
    for (std::uint64_t m = std::rotr(parked_, top); m != 0; m &= m - 1) {
        std::size_t unit = 0;
        while (unit < units_.size() && units_[unit] > c)
            ++unit;
        if (unit == units_.size())
            break;      // every unit busy: lower priorities wait too
        const int s = (std::countr_zero(m) + top) & 63;
        const IssuedOp &op = stations_[s];
        units_[unit] =
            c + static_cast<Cycle>(opMeta(op.insn.op).issue_latency);
        parked_ &= ~(std::uint64_t{1} << s);
        grant(op, static_cast<int>(unit));
    }
    next_event_ = computeNextEvent();
}

} // namespace smtsim

#endif // SMTSIM_CORE_SCHEDULE_HH
