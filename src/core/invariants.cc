/**
 * @file
 * The core's state invariants (docs/OBSERVABILITY.md): derive()
 * recomputes the derived fields from the primary state, restore
 * rebuilds them from it, and checkInvariants() compares the live
 * fields with it and checks the primary state a run can reach.
 * derive() also keeps the full next-event scan that the run loop's
 * maintained event sources replace (docs/PERF.md).
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
    Derived d;
    d.ungranted.resize(n);
    d.fetches.resize(n);
    d.reserved.resize(n);
    for (const ScheduleUnit &su : sched_units_) {
        su.forEachOp([&](const IssuedOp &op) {
            d.ungranted[op.slot] |= static_cast<std::uint8_t>(
                1u << static_cast<int>(su.fuClass()));
            d.reserved[op.slot] += op.queue_write;
        });
    }
    for (const PendingPush &push : pending_pushes_) {
        ++d.reserved[push.slot];
        d.push_next = std::min(d.push_next, push.at);
    }
    for (const FetchPort &port : ports_) {
        for (const FetchOp &op : port.inflight)
            ++d.fetches[op.slot];
    }
    for (int s = 0; s < cfg_.num_slots; ++s) {
        const SlotMasks m = slotMasks(s);
        d.masks.live |= m.live;
        d.masks.draining |= m.draining;
        d.masks.wants_fetch |= m.wants_fetch;
    }
    for (const Context &ctx : contexts_) {
        d.open_frames += ctx.state != CtxState::Unused &&
                         ctx.state != CtxState::Finished;
        if (ctx.state == CtxState::WaitRemote)
            d.remote_next = std::min(d.remote_next, ctx.ready_at);
    }
    d.units_next = unitsNext();
    for (std::uint64_t m = asleep_; m != 0; m &= m - 1)
        d.wake_next = std::min(d.wake_next, slots_[std::countr_zero(m)].wake_at);

    // The full scan nextEventCycle(now_, sleep_aware) equals.
    const Cycle c = now_;
    auto scan = [&](bool sleep_aware) {
        Cycle ev = kNeverCycle;
        const Addr end = prog_.textEnd();
        for (const FetchPort &port : ports_) {
            for (const FetchOp &op : port.inflight)
                ev = std::min(ev, op.done_at);
        }
        bool free_slot = false;
        for (int s = 0; s < cfg_.num_slots; ++s) {
            const Slot &slot = slots_[s];
            if (slot.frame < 0) {
                free_slot = true;
                continue;
            }
            if (slot.trap_pending) {
                if (slot.ungranted == 0)
                    return c + 1;
                continue;
            }
            if (slot.iqueue.space() > 0 && slot.fetch_addr < end) {
                const FetchPort &port =
                    ports_[cfg_.private_icache ? s : 0];
                ev = std::min(ev, std::max(c + 1, port.free_at));
            }
            if (!slot.window.empty()) {
                const Cycle attempt = sleep_aware && asleep(s)
                                          ? slot.wake_at
                                          : slot.d2_allowed;
                ev = std::min(ev, std::max(c + 1, attempt));
            }
            if (static_cast<int>(slot.window.size()) < cfg_.width &&
                !slot.iqueue.empty()) {
                return c + 1;
            }
        }
        for (const PendingPush &push : pending_pushes_)
            ev = std::min(ev, push.at);
        for (const ScheduleUnit &su : sched_units_)
            ev = std::min(ev, su.nextEventCycle());
        if (free_slot && !ready_fifo_.empty())
            return c + 1;
        for (const Context &ctx : contexts_) {
            if (ctx.state == CtxState::WaitRemote)
                ev = std::min(ev, ctx.ready_at);
        }
        return std::max(ev, c + 1);
    };
    d.next_event = scan(false);
    d.next_event_asleep = scan(true);
    return d;
}

void
MultithreadedProcessor::rebuildDerived()
{
    const Derived d = derive();
    masks_ = d.masks;
    open_frames_ = d.open_frames;
    push_next_ = d.push_next;
    remote_next_ = d.remote_next;
    units_next_ = d.units_next;
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
        const std::string unit_why = su.consistency(now_);
        check(unit_why.empty(), "schedule unit ", cls, ": ", unit_why);
        su.forEachOp([&](const IssuedOp &op) {
            const CoreOp &cop = text_.op(op.pc);
            check(cop.fu == su.fuClass(), "schedule unit ", cls,
                  " holds a ", fuClassName(cop.fu), " op");
            if (!op.queue_write)
                writes[op.slot] |= cop.dsts;
        });
    }
    // A port is busy until its last fetch lands (fetchPhase starts
    // fetches only on an idle port), and its fetches land in order.
    for (std::size_t pi = 0; pi < ports_.size(); ++pi) {
        Cycle prev = 0;
        for (const FetchOp &op : ports_[pi].inflight) {
            check(static_cast<int>(pi) ==
                      (cfg_.private_icache ? op.slot : 0),
                  "slot ", op.slot,
                  ": fetch in flight on another slot's port");
            check(op.done_at <= ports_[pi].free_at, "fetch port ", pi,
                  ": free before its fetch for slot ", op.slot, " lands");
            check(op.done_at >= prev, "fetch port ", pi, ": fetch for slot ",
                  op.slot, " lands at ", op.done_at, ", before ", prev);
            prev = op.done_at;
        }
    }

    // The slot masks: the lowest slot whose bit differs, per mask.
    auto maskCheck = [&](const char *name, std::uint64_t kept,
                         std::uint64_t want) {
        const std::uint64_t diff = kept ^ want;
        if (diff == 0)
            return;
        const int s = std::countr_zero(diff);
        check(false, "slot ", s, ": ", name, " mask bit ",
              (kept >> s) & 1, " but its state says ", (want >> s) & 1);
    };
    maskCheck("live", masks_.live, d.masks.live);
    maskCheck("draining", masks_.draining, d.masks.draining);
    maskCheck("wants-fetch", masks_.wants_fetch, d.masks.wants_fetch);
    // A sleeper is a live slot of a fast-forwarding core.
    maskCheck("asleep", asleep_,
              cfg_.fast_forward ? asleep_ & masks_.live : 0);
    for (int k = 0; k < kNumStalls; ++k) {
        check(stalls_[k] == 0, "stall counter ", k, ": ", stalls_[k],
              " increments not published");
    }

    // Each event source's maintained next event, then the minimum
    // over them against the full scan.
    check(open_frames_ == d.open_frames, "open frames: ", open_frames_,
          " counted but ", d.open_frames, " are ready, running or waiting");
    check(push_next_ == d.push_next, "pending pushes: next event ",
          push_next_, " but the earliest lands at ", d.push_next);
    check(remote_next_ == d.remote_next, "remote wake-ups: next event ",
          remote_next_, " but the earliest ready_at is ", d.remote_next);
    check(units_next_ == d.units_next, "schedule units: next event ",
          units_next_, " but the earliest is ", d.units_next);
    check(wake_next_ <= d.wake_next, "sleepers: wake bound ",
          wake_next_, " but the earliest wake_at is ", d.wake_next);
    check(nextEventCycle(now_) == d.next_event, "next event ",
          nextEventCycle(now_), " but the full scan finds ", d.next_event);
    check(nextEventCycle(now_, true) == d.next_event_asleep,
          "sleep-aware next event ", nextEventCycle(now_, true),
          " but the full scan finds ", d.next_event_asleep);

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
        check(!asleep(s) || slot.slept_through == now_, "slot ", s,
              ": attempts after cycle ", slot.slept_through,
              " not credited");

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
            // D1 ran in the slot's last decode turn (a sleeping
            // slot's deliveries wake it), so it has no refill due.
            check(static_cast<int>(slot.window.size()) >= cfg_.width ||
                      slot.iqueue.empty(),
                  "slot ", s, ": window has room while the instruction "
                  "queue holds ", slot.iqueue.size(), " words");
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
