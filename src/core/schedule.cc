#include "schedule.hh"

#include <algorithm>

#include "asmr/program.hh"
#include "base/logging.hh"
#include "base/serial.hh"

namespace smtsim
{

ScheduleUnit::ScheduleUnit(FuClass cls, int num_units, int num_slots)
    : cls_(cls), units_(static_cast<size_t>(num_units), 0),
      standby_(static_cast<size_t>(num_slots))
{
}

bool
ScheduleUnit::slotBusy(int slot) const
{
    if (standby_[slot].has_value())
        return true;
    for (const IssuedOp &op : incoming_) {
        if (op.slot == slot)
            return true;
    }
    return false;
}

void
ScheduleUnit::submit(IssuedOp op)
{
    SMTSIM_ASSERT(!slotBusy(op.slot),
                  "double submit to one standby station");
    next_event_ = std::min(next_event_, op.arrive);
    incoming_.push_back(std::move(op));
}

std::span<Grant>
ScheduleUnit::select(Cycle c, std::span<const int> priority_order,
                     std::span<Grant> out)
{
    SMTSIM_ASSERT(out.size() >= units_.size(),
                  "grant buffer smaller than the unit count");
    std::size_t granted = 0;

    // Latch newly arriving instructions into their standby stations
    // (the rest keep their order).
    std::size_t keep = 0;
    for (IssuedOp &op : incoming_) {
        if (op.arrive > c) {
            incoming_[keep++] = std::move(op);
            continue;
        }
        SMTSIM_ASSERT(!standby_[op.slot].has_value(),
                      "standby station collision");
        if (sink_) {
            obs::Event ev;
            ev.cycle = c;
            ev.kind = obs::EventKind::Park;
            ev.slot = static_cast<std::int8_t>(op.slot);
            ev.fu = static_cast<std::int8_t>(cls_);
            ev.pc = op.pc;
            ev.insn = encode(op.insn);
            sink_->event(ev);
        }
        standby_[op.slot] = std::move(op);
        ++standby_occupied_;
    }
    incoming_.resize(keep);

    // Grant in priority order while units can accept.
    for (int slot : priority_order) {
        if (standby_occupied_ == 0)
            break;
        if (!standby_[slot].has_value())
            continue;
        int unit = -1;
        for (size_t u = 0; u < units_.size(); ++u) {
            if (units_[u] <= c) {
                unit = static_cast<int>(u);
                break;
            }
        }
        if (unit < 0)
            break;      // every unit busy: lower priorities wait too
        IssuedOp op = std::move(*standby_[slot]);
        standby_[slot].reset();
        --standby_occupied_;
        units_[unit] =
            c + static_cast<Cycle>(opMeta(op.insn.op).issue_latency);
        out[granted++] = Grant{std::move(op), unit};
    }
    updateNextEvent();
    return out.first(granted);
}

Cycle
ScheduleUnit::computeNextEvent() const
{
    Cycle ev = kNeverCycle;
    if (standby_occupied_ > 0) {
        // A waiting instruction is granted as soon as any unit
        // frees up (select() never leaves a unit idle while a
        // standby station is occupied, so the free times here are
        // all in the future).
        for (Cycle u : units_)
            ev = std::min(ev, u);
    }
    // Arrival latches an instruction into its standby station.
    for (const IssuedOp &op : incoming_)
        ev = std::min(ev, op.arrive);
    return ev;
}

int
ScheduleUnit::countOccupied() const
{
    return static_cast<int>(
        std::count_if(standby_.begin(), standby_.end(),
                      [](const auto &op) { return op.has_value(); }));
}

void
ScheduleUnit::snapshotTo(obs::EventSink &sink, Cycle c) const
{
    for (std::size_t s = 0; s < standby_.size(); ++s) {
        if (!standby_[s].has_value())
            continue;
        obs::Event ev;
        ev.cycle = c;
        ev.kind = obs::EventKind::Park;
        ev.slot = static_cast<std::int8_t>(s);
        ev.fu = static_cast<std::int8_t>(cls_);
        ev.pc = standby_[s]->pc;
        ev.insn = encode(standby_[s]->insn);
        sink.event(ev);
    }
}

template <class Ar, class Self>
void
ScheduleUnit::transfer(Ar &ar, Self &su, const PredecodedText &text)
{
    const int nslots = static_cast<int>(su.standby_.size());
    // Slots holding an op, to reject a second op bound for one
    // station.
    std::vector<bool> busy(su.standby_.size());
    auto issued = [&](auto &op) {
        ar("op", op);
        if constexpr (Ar::kLoading) {
            const CoreOp *c = text.find(op.pc);
            ar.check(c != nullptr && c->insn == op.insn,
                     "issued op does not match the program text");
            ar.check(op.slot >= 0 && op.slot < nslots &&
                         !busy[op.slot],
                     "issued op in a bad or busy slot");
            busy[op.slot] = true;
            op.dst = c->dst;
        }
    };

    ar.shape("schedule-unit unit", su.units_,
             [&](auto &free_at) { ar("free_at", free_at); });
    int station = 0;
    ar.shape("standby station", su.standby_, [&](auto &op) {
        bool occupied = op.has_value();
        ar("occupied", occupied);
        if constexpr (Ar::kLoading) {
            op.reset();
            if (occupied)
                op.emplace();
        }
        if (occupied) {
            issued(*op);
            ar.check(op->slot == station,
                     "standby op in another slot's station");
        }
        ++station;
    });
    ar.list("incoming op", su.incoming_, issued);
    if constexpr (Ar::kLoading) {
        su.standby_occupied_ = su.countOccupied();
        su.updateNextEvent();
    }
}

template void ScheduleUnit::transfer(SaveArchive &, const ScheduleUnit &,
                                     const PredecodedText &);
template void ScheduleUnit::transfer(LoadArchive &, ScheduleUnit &,
                                     const PredecodedText &);

void
ScheduleUnit::flushSlot(int slot)
{
    if (standby_[slot].has_value())
        --standby_occupied_;
    standby_[slot].reset();
    for (auto it = incoming_.begin(); it != incoming_.end();) {
        if (it->slot == slot)
            it = incoming_.erase(it);
        else
            ++it;
    }
    updateNextEvent();
}

} // namespace smtsim
