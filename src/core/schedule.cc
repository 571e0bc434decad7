#include "schedule.hh"

#include <algorithm>
#include <stdexcept>

#include "base/logging.hh"

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

std::vector<Grant>
ScheduleUnit::select(Cycle c, const std::vector<int> &priority_order)
{
    std::vector<Grant> grants;
    select(c, priority_order, grants);
    return grants;
}

void
ScheduleUnit::select(Cycle c, const std::vector<int> &priority_order,
                     std::vector<Grant> &grants)
{
    grants.clear();

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
        grants.push_back(Grant{std::move(op), unit});
    }
    updateNextEvent();
}

void
ScheduleUnit::updateNextEvent()
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
    next_event_ = ev;
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

namespace
{

void
writeIssuedOp(obs::ByteWriter &w, const IssuedOp &op)
{
    // Insn fields are written directly (not via encode()) so the
    // checkpoint never depends on an encode/decode round trip.
    w.u16(static_cast<std::uint16_t>(op.insn.op));
    w.u8(op.insn.rd);
    w.u8(op.insn.rs);
    w.u8(op.insn.rt);
    w.i32(op.insn.imm);
    w.u32(op.pc);
    w.i32(op.slot);
    w.u32(op.ops.rs_i);
    w.u32(op.ops.rt_i);
    w.f64(op.ops.rs_f);
    w.f64(op.ops.rt_f);
    w.u64(op.arrive);
    w.b(op.queue_write);
}

IssuedOp
readIssuedOp(obs::ByteReader &r)
{
    IssuedOp op;
    const std::uint16_t opcode = r.u16();
    if (opcode >= kNumOps)
        throw std::runtime_error("checkpoint: bad issued opcode");
    op.insn.op = static_cast<Op>(opcode);
    op.insn.rd = r.u8();
    op.insn.rs = r.u8();
    op.insn.rt = r.u8();
    op.insn.imm = r.i32();
    op.dst = op.insn.dst();
    op.pc = r.u32();
    op.slot = r.i32();
    op.ops.rs_i = r.u32();
    op.ops.rt_i = r.u32();
    op.ops.rs_f = r.f64();
    op.ops.rt_f = r.f64();
    op.arrive = r.u64();
    op.queue_write = r.b();
    return op;
}

} // namespace

void
ScheduleUnit::serialize(obs::ByteWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(units_.size()));
    for (Cycle u : units_)
        w.u64(u);
    w.u32(static_cast<std::uint32_t>(standby_.size()));
    for (const auto &station : standby_) {
        w.b(station.has_value());
        if (station.has_value())
            writeIssuedOp(w, *station);
    }
    w.u32(static_cast<std::uint32_t>(incoming_.size()));
    for (const IssuedOp &op : incoming_)
        writeIssuedOp(w, op);
}

void
ScheduleUnit::deserialize(obs::ByteReader &r)
{
    const std::uint32_t nu = r.u32();
    SMTSIM_ASSERT(nu == units_.size(),
                  "checkpoint schedule-unit shape mismatch");
    for (Cycle &u : units_)
        u = r.u64();
    const std::uint32_t ns = r.u32();
    SMTSIM_ASSERT(ns == standby_.size(),
                  "checkpoint standby shape mismatch");
    standby_occupied_ = 0;
    for (auto &station : standby_) {
        station.reset();
        if (r.b()) {
            station = readIssuedOp(r);
            ++standby_occupied_;
        }
    }
    incoming_.clear();
    const std::uint32_t ni = r.u32();
    for (std::uint32_t i = 0; i < ni; ++i)
        incoming_.push_back(readIssuedOp(r));
    updateNextEvent();
}

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
