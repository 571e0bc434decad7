#include "schedule.hh"

#include <algorithm>

#include "asmr/program.hh"
#include "base/serial.hh"

namespace smtsim
{

ScheduleUnit::ScheduleUnit(FuClass cls, int num_units, int num_slots)
    : cls_(cls), units_(static_cast<size_t>(num_units), 0),
      stations_(static_cast<size_t>(num_slots))
{
    SMTSIM_ASSERT(num_slots <= 64, "slot sets are 64-bit masks");
}

Cycle
ScheduleUnit::computeNextEvent() const
{
    Cycle ev = kNeverCycle;
    if (parked_ != 0) {
        // A parked instruction is granted as soon as any unit frees
        // up (select() never leaves a unit idle while a station is
        // parked, so the free times here are all in the future).
        for (Cycle u : units_)
            ev = std::min(ev, u);
    }
    // Arrival latches the arriving instructions into their stations.
    if (arriving_ != 0)
        ev = std::min(ev, arrive_at_);
    return ev;
}

std::string
ScheduleUnit::consistency(Cycle now) const
{
    const std::uint64_t all = ~std::uint64_t{0} >> (64 - stations_.size());
    if ((parked_ & arriving_) != 0 || ((parked_ | arriving_) & ~all) != 0)
        return "station both parked and arriving, or out of range";
    if (arrival_top_ < 0 ||
        arrival_top_ >= static_cast<int>(stations_.size()))
        return "arrival order out of range";
    std::string why;
    for (std::uint64_t m = parked_ | arriving_; m != 0; m &= m - 1) {
        const int s = std::countr_zero(m);
        const IssuedOp &op = stations_[s];
        const bool arriving = (arriving_ >> s) & 1;
        if (op.slot != s)
            why = "station " + std::to_string(s) + " holds slot " +
                  std::to_string(op.slot) + "'s op";
        else if (arriving ? op.arrive != arrive_at_ || op.arrive != now + 1
                          : op.arrive > now)
            why = "slot " + std::to_string(s) + "'s op arrives at " +
                  std::to_string(op.arrive) + " but is " +
                  (arriving ? "arriving" : "parked");
        if (!why.empty())
            return why;
    }
    if (next_event_ != computeNextEvent())
        return "next event out of date";
    return why;
}

void
ScheduleUnit::emitPark(obs::EventSink &sink, int slot, Cycle c) const
{
    obs::Event ev;
    ev.cycle = c;
    ev.kind = obs::EventKind::Park;
    ev.slot = static_cast<std::int8_t>(slot);
    ev.fu = static_cast<std::int8_t>(cls_);
    ev.pc = stations_[slot].pc;
    ev.insn = encode(stations_[slot].insn);
    sink.event(ev);
}

void
ScheduleUnit::snapshotTo(obs::EventSink &sink, Cycle c) const
{
    for (std::uint64_t m = parked_; m != 0; m &= m - 1)
        emitPark(sink, std::countr_zero(m), c);
}

template <class Ar, class Self>
void
ScheduleUnit::transfer(Ar &ar, Self &su, const PredecodedText &text)
{
    const int nslots = static_cast<int>(su.stations_.size());
    // An op read back must be the program's own instruction, in a
    // slot with no op yet.
    std::uint64_t busy = 0;
    auto issued = [&](auto &op) {
        ar("op", op);
        if constexpr (Ar::kLoading) {
            const CoreOp *c = text.find(op.pc);
            ar.check(c != nullptr && c->insn == op.insn,
                     "issued op does not match the program text");
            ar.check(op.slot >= 0 && op.slot < nslots &&
                         !((busy >> op.slot) & 1),
                     "issued op in a bad or busy slot");
            busy |= std::uint64_t{1} << op.slot;
            op.dst = c->dst;
        }
    };

    ar.shape("schedule-unit unit", su.units_,
             [&](auto &free_at) { ar("free_at", free_at); });
    if constexpr (Ar::kLoading) {
        su.parked_ = 0;
        su.arriving_ = 0;
    }
    int station = 0;
    ar.shape("standby station", su.stations_, [&](auto &op) {
        bool occupied = (su.parked_ >> station) & 1;
        ar("occupied", occupied);
        if (occupied) {
            issued(op);
            ar.check(op.slot == station,
                     "standby op in another slot's station");
            if constexpr (Ar::kLoading)
                su.parked_ |= std::uint64_t{1} << station;
        }
        ++station;
    });

    // The arriving ops, in arrival order: ring order from the first.
    std::vector<IssuedOp> incoming;
    if constexpr (!Ar::kLoading) {
        forEachSlot(su.arriving_, su.arrival_top_,
                    [&](int s) { incoming.push_back(su.stations_[s]); });
    }
    int rank = -1;  // ring distance of the last from the first
    ar.list("incoming op", incoming, [&](auto &op) {
        issued(op);
        if constexpr (Ar::kLoading) {
            const int first = incoming.front().slot;
            const int at = (op.slot - first + nslots) % nslots;
            ar.check(at > rank, "incoming ops out of ring order");
            rank = at;
            su.arrival_top_ = first;
            su.arrive_at_ = op.arrive;
            su.arriving_ |= std::uint64_t{1} << op.slot;
            su.stations_[op.slot] = op;
        }
    });
    if constexpr (Ar::kLoading)
        su.next_event_ = su.computeNextEvent();
}

template void ScheduleUnit::transfer(SaveArchive &, const ScheduleUnit &,
                                     const PredecodedText &);
template void ScheduleUnit::transfer(LoadArchive &, ScheduleUnit &,
                                     const PredecodedText &);

void
ScheduleUnit::flushSlot(int slot)
{
    const std::uint64_t keep = ~(std::uint64_t{1} << slot);
    parked_ &= keep;
    arriving_ &= keep;
    next_event_ = computeNextEvent();
}

} // namespace smtsim
