/**
 * @file
 * The core's state invariants (docs/OBSERVABILITY.md): derive()
 * recomputes the derived fields from the primary state, restore
 * rebuilds them from it, and checkInvariants() compares the live
 * fields with it and checks the primary state a run can reach.
 */

#include <algorithm>
#include <bit>
#include <sstream>

#include "core/processor.hh"
#include "machine/fu_pool.hh"

namespace smtsim
{

MultithreadedProcessor::Derived
MultithreadedProcessor::derive() const
{
    const std::size_t n = slots_.size();
    Derived d{std::vector<std::uint8_t>(n), std::vector<int>(n),
              std::vector<int>(n)};
    for (const ScheduleUnit &su : sched_units_) {
        su.forEachOp([&](const IssuedOp &op) {
            d.ungranted[op.slot] |= static_cast<std::uint8_t>(
                1u << static_cast<int>(su.fuClass()));
            d.reserved[op.slot] += op.queue_write;
        });
    }
    for (const PendingPush &push : pending_pushes_)
        ++d.reserved[push.slot];
    for (const FetchPort &port : ports_) {
        for (const FetchOp &op : port.inflight)
            ++d.fetches[op.slot];
    }
    return d;
}

void
MultithreadedProcessor::rebuildDerived()
{
    const Derived d = derive();
    for (int s = 0; s < cfg_.num_slots; ++s) {
        slots_[s].ungranted = d.ungranted[s];
        for (int k = 0; k < d.reserved[s] && ring_regs_.canReserve(s);
             ++k)
            ring_regs_.reserve(s);
    }
}

std::string
MultithreadedProcessor::checkInvariants() const
{
    // Every check runs; the first violation is the one reported.
    std::string why;
    auto check = [&why](bool ok, const auto &...what) {
        if (!ok && why.empty()) {
            std::ostringstream os;
            (os << ... << what);
            why = os.str();
        }
    };
    const Derived d = derive();

    // Registers each slot's ungranted ops will write.
    std::vector<std::uint64_t> writes(slots_.size());
    for (const ScheduleUnit &su : sched_units_) {
        const char *cls = fuClassName(su.fuClass());
        check(su.consistent(), "schedule unit ", cls,
              ": next event out of date");
        su.forEachOp([&](const IssuedOp &op) {
            const CoreOp &cop = text_.op(op.pc);
            check(cop.fu == su.fuClass(), "schedule unit ", cls,
                  " holds a ", fuClassName(cop.fu), " op");
            if (!op.queue_write)
                writes[op.slot] |= cop.dsts;
        });
    }
    // A port is busy until its last fetch lands (fetchPhase starts
    // fetches only on an idle port).
    for (std::size_t pi = 0; pi < ports_.size(); ++pi) {
        for (const FetchOp &op : ports_[pi].inflight) {
            check(static_cast<int>(pi) ==
                      (cfg_.private_icache ? op.slot : 0),
                  "slot ", op.slot,
                  ": fetch in flight on another slot's port");
            check(op.done_at <= ports_[pi].free_at, "fetch port ", pi,
                  ": free before its fetch for slot ", op.slot, " lands");
        }
    }

    for (int s = 0; s < cfg_.num_slots; ++s) {
        const Slot &slot = slots_[s];
        // The lowest class whose bit differs (kNumFuClasses: none).
        const int c = std::countr_zero(
            (slot.ungranted ^ d.ungranted[s]) | (1u << kNumFuClasses));
        check(c == kNumFuClasses, "slot ", s, ", class ",
              fuClassName(static_cast<FuClass>(c)), ": mask bit ",
              (slot.ungranted >> c) & 1, " but the schedule unit holds ",
              (d.ungranted[s] >> c) & 1 ? "an op" : "none");
        check(cfg_.standby_enabled || std::popcount(d.ungranted[s]) < 2,
              "slot ", s, ": ungranted ops of two classes without "
              "standby stations");
        check(d.fetches[s] < 2, "slot ", s, ": ", d.fetches[s],
              " fetches in flight");
        // One queue write in flight per link keeps deposits in
        // issue order.
        check(d.reserved[s] < 2 &&
                  ring_regs_.sizeOf(s) + d.reserved[s] <=
                      ring_regs_.depth(),
              "queue link ", s, ": ", d.reserved[s],
              " queue writes in flight beside ", ring_regs_.sizeOf(s),
              " values");
        check(ring_regs_.reserved(s) == d.reserved[s], "queue link ", s,
              ": ", ring_regs_.reserved(s), " reservations for ",
              d.reserved[s], " queue writes in flight");
        check(!slot.asleep || (slot.frame >= 0 && !slot.trap_pending &&
                               !slot.window.empty() && cfg_.fast_forward),
              "slot ", s, ": asleep without a window to retry");
        check(slot.asleep || slot.slept == 0, "slot ", s,
              ": uncredited attempts while awake");

        const bool fetched = !slot.window.empty() ||
                             !slot.iqueue.empty() || d.fetches[s] > 0;
        if (slot.frame < 0) {
            check(!slot.trap_pending && !fetched && d.ungranted[s] == 0,
                  "slot ", s, ": unbound but holds in-flight work");
        } else if (slot.trap_pending) {
            // A drain only waits for its ungranted ops.
            check(!fetched, "slot ", s,
                  ": draining but holds fetched work");
            check(contexts_[slot.frame].state != CtxState::Unused,
                  "slot ", s, ": draining unused frame ", slot.frame);
        } else {
            check(contexts_[slot.frame].state == CtxState::Running,
                  "slot ", s, ": bound to frame ", slot.frame,
                  ", which is not running");
            std::uint64_t waiting = 0;
            for (std::size_t r = 0; r < slot.sb.size(); ++r)
                waiting |= std::uint64_t{slot.sb[r] == kNeverCycle} << r;
            check(waiting == writes[s], "slot ", s,
                  ": scoreboard waits on registers no ungranted op "
                  "writes");
        }
    }

    for (int f = 0; f < cfg_.frames(); ++f) {
        const CtxState state = contexts_[f].state;
        const auto running = std::count_if(
            slots_.begin(), slots_.end(), [f](const Slot &slot) {
                return slot.frame == f && !slot.trap_pending;
            });
        check(state != CtxState::Running || running == 1, "frame ", f,
              ": running on ", running, " slots");
        const auto queued =
            std::count(ready_fifo_.begin(), ready_fifo_.end(), f);
        check(queued == (state == CtxState::Ready), "frame ", f, ": ",
              queued, " ready-FIFO entries in state ",
              static_cast<int>(state));
    }
    return why;
}

} // namespace smtsim
