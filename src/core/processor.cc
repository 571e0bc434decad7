#include "processor.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "base/logging.hh"
#include "isa/semantics.hh"

namespace smtsim
{

namespace
{

/** The integer register file's flatReg() bits; the FP file's are
 *  the rest. */
constexpr std::uint64_t kIntRegBits = 0xffffffffu;

} // namespace

MultithreadedProcessor::MultithreadedProcessor(const Program &prog,
                                               MainMemory &mem,
                                               const CoreConfig &cfg)
    : prog_(prog), mem_(mem), cfg_(cfg), text_(prog),
      ring_regs_(cfg.num_slots, cfg.queue_reg_depth),
      rotation_mode_(cfg.rotation_mode),
      rotation_interval_(cfg.rotation_interval)
{
    static constexpr const char *kStallNames[kNumStalls] = {
        "stall.branch_operands", "stall.priority",
        "stall.waw",             "stall.standby",
        "stall.no_standby",      "stall.memorder",
        "stall.operands",        "stall.queue_full"};
    for (int k = 0; k < kNumStalls; ++k)
        stall_[k] = &detail_.counter(kStallNames[k]);

    if (cfg_.num_slots > kMaxSlots) {
        throw std::invalid_argument(
            "core: " + std::to_string(cfg_.num_slots) +
            " thread slots exceed the limit of " +
            std::to_string(kMaxSlots));
    }
    SMTSIM_ASSERT(cfg_.num_slots >= 1, "need at least one slot");
    SMTSIM_ASSERT(cfg_.frames() >= cfg_.num_slots,
                  "need at least one frame per slot");
    SMTSIM_ASSERT(cfg_.width >= 1, "width must be positive");

    contexts_.resize(cfg_.frames());
    slots_.resize(cfg_.num_slots);
    for (int s = 0; s < cfg_.num_slots; ++s)
        slots_[s].iqueue.init(cfg_.iqueueWords());

    for (int cls = 0; cls < kNumFuClasses; ++cls) {
        const FuClass fc = static_cast<FuClass>(cls);
        if (fc == FuClass::None)
            continue;
        sched_units_.emplace_back(fc, cfg_.fus.count(fc),
                                  cfg_.num_slots);
        stats_.unit_busy[cls].assign(cfg_.fus.count(fc), 0);
    }

    ports_.resize(cfg_.private_icache ? cfg_.num_slots : 1);

    if (cfg_.dcache.enabled())
        dcache_.emplace(cfg_.dcache);
    if (cfg_.icache.enabled())
        icache_.emplace(cfg_.icache);

    // The entry thread occupies context frame 0 and thread slot 0.
    contexts_[0].state = CtxState::Ready;
    contexts_[0].resume_pc = prog_.entry;
    open_frames_ = 1;
    bindContext(0, 0, 0);
}

void
MultithreadedProcessor::setReplayTrace(const ExecTrace *trace)
{
    replay_ = trace;
    if (!trace)
        return;
    SMTSIM_ASSERT(now_ == 0,
                  "replay must be armed before the first cycle");
    for (int f = 1; f < cfg_.frames(); ++f) {
        SMTSIM_ASSERT(contexts_[f].state == CtxState::Unused,
                      "replay is incompatible with spawnContext");
    }
    contexts_[0].trace_tid = 0;
    contexts_[0].next_branch = 0;
    contexts_[0].next_mem = 0;
}

void
MultithreadedProcessor::setRemoteModel(RemoteTimingModel *model)
{
    SMTSIM_ASSERT(now_ == 0,
                  "remote model must be attached before the first "
                  "cycle");
    remote_model_ = model;
}

void
MultithreadedProcessor::completeRemote(int frame, Cycle ready_at)
{
    SMTSIM_ASSERT(remote_model_ != nullptr,
                  "completeRemote without an attached remote model");
    SMTSIM_ASSERT(frame >= 0 && frame < cfg_.frames(),
                  "completeRemote: bad frame");
    Context &ctx = contexts_[static_cast<std::size_t>(frame)];
    SMTSIM_ASSERT(ctx.state == CtxState::WaitRemote,
                  "completeRemote: frame is not waiting on a remote "
                  "access");
    SMTSIM_ASSERT(ctx.ready_at == kNeverCycle,
                  "completeRemote: frame's access already resolved");
    SMTSIM_ASSERT(ready_at > now_,
                  "completeRemote: completion not in the future");
    ctx.ready_at = ready_at;
    remote_next_ = std::min(remote_next_, ready_at);
    last_activity_ = std::max(last_activity_, ready_at);
}

void
MultithreadedProcessor::replayBranch(Context &ctx, Addr pc,
                                     Addr evaluated)
{
    if (ctx.trace_tid < 0 ||
        static_cast<std::size_t>(ctx.trace_tid) >=
            replay_->threads.size()) {
        throw ReplayDivergence(
            "replay: branch on a thread the trace does not know");
    }
    const auto &recs =
        replay_->threads[static_cast<std::size_t>(ctx.trace_tid)]
            .branches;
    if (ctx.next_branch >= recs.size())
        throw ReplayDivergence("replay: branch stream exhausted");
    const BranchRec &rec = recs[ctx.next_branch];
    if (rec.pc != pc)
        throw ReplayDivergence("replay: branch pc mismatch");
    if (rec.next != evaluated) {
        throw ReplayDivergence(
            "replay: branch outcome diverged from recording");
    }
    ++ctx.next_branch;
}

void
MultithreadedProcessor::replayMemAddr(const Context &ctx, Addr pc,
                                      Addr addr) const
{
    if (ctx.trace_tid < 0 ||
        static_cast<std::size_t>(ctx.trace_tid) >=
            replay_->threads.size()) {
        throw ReplayDivergence(
            "replay: memory op on a thread the trace does not know");
    }
    const auto &recs =
        replay_->threads[static_cast<std::size_t>(ctx.trace_tid)]
            .mems;
    if (ctx.next_mem >= recs.size())
        throw ReplayDivergence("replay: memory stream exhausted");
    const MemRec &rec = recs[ctx.next_mem];
    if (rec.pc != pc)
        throw ReplayDivergence("replay: memory pc mismatch");
    if (rec.addr != addr) {
        throw ReplayDivergence(
            "replay: memory address diverged from recording");
    }
}

void
MultithreadedProcessor::checkReplayDrained() const
{
    for (std::size_t tid = 0; tid < replay_->threads.size();
         ++tid) {
        const ThreadTrace &tt = replay_->threads[tid];
        const Context *claimed = nullptr;
        for (const Context &ctx : contexts_) {
            if (ctx.trace_tid == static_cast<int>(tid)) {
                claimed = &ctx;
                break;
            }
        }
        if (!claimed) {
            if (!tt.branches.empty() || !tt.mems.empty())
                throw ReplayDivergence(
                    "replay: recorded thread never started");
            continue;
        }
        if (claimed->next_branch != tt.branches.size() ||
            claimed->next_mem != tt.mems.size()) {
            throw ReplayDivergence(
                "replay: records left over at completion");
        }
    }
}

int
MultithreadedProcessor::spawnContext(
    Addr entry, const std::array<std::uint32_t, kNumRegs> &iregs,
    const std::array<double, kNumRegs> &fregs)
{
    if (replay_)
        fatal("spawnContext: unsupported in replay mode");
    for (int f = 0; f < cfg_.frames(); ++f) {
        if (contexts_[f].state == CtxState::Unused) {
            contexts_[f].state = CtxState::Ready;
            contexts_[f].resume_pc = entry;
            contexts_[f].iregs = iregs;
            contexts_[f].fregs = fregs;
            ready_fifo_.push_back(f);
            ++open_frames_;
            return f;
        }
    }
    fatal("spawnContext: no free context frame");
}

std::uint32_t
MultithreadedProcessor::intReg(int frame, RegIndex idx) const
{
    return contexts_.at(frame).iregs[idx];
}

double
MultithreadedProcessor::fpReg(int frame, RegIndex idx) const
{
    return contexts_.at(frame).fregs[idx];
}

MultithreadedProcessor::SlotMasks
MultithreadedProcessor::slotMasks(int s) const
{
    const Slot &slot = slots_[s];
    const std::uint64_t bit = std::uint64_t{1} << s;
    const bool live = slot.frame >= 0 && !slot.trap_pending;
    SlotMasks m;
    m.live = live ? bit : 0;
    m.draining = slot.frame >= 0 && slot.trap_pending ? bit : 0;
    m.wants_fetch = live && slot.iqueue.space() > 0 &&
                            slot.fetch_addr < prog_.textEnd()
                        ? bit
                        : 0;
    return m;
}

void
MultithreadedProcessor::refreshSlot(int s)
{
    const std::uint64_t keep = ~(std::uint64_t{1} << s);
    const SlotMasks m = slotMasks(s);
    masks_.live = (masks_.live & keep) | m.live;
    masks_.draining = (masks_.draining & keep) | m.draining;
    masks_.wants_fetch = (masks_.wants_fetch & keep) | m.wants_fetch;
}

// ---------------------------------------------------------------
// Priority handling
// ---------------------------------------------------------------

bool
MultithreadedProcessor::hasTopPriority(int slot_id) const
{
    // The first live slot in ring order (a live slot's context is
    // running, checkInvariants()).
    const std::uint64_t order = std::rotr(masks_.live, ring_top_);
    return order != 0 &&
           ((std::countr_zero(order) + ring_top_) & 63) == slot_id;
}

void
MultithreadedProcessor::rotateRing(std::uint64_t by)
{
    // The old top drops to the bottom: slot top+by leads.
    ring_top_ = static_cast<int>(
        (static_cast<std::uint64_t>(ring_top_) + by) %
        static_cast<std::uint64_t>(cfg_.num_slots));
}

// ---------------------------------------------------------------
// Scoreboard
// ---------------------------------------------------------------

bool
MultithreadedProcessor::operandsReady(int slot_id, const Context &ctx,
                                      const CoreOp &op, Cycle c,
                                      std::uint64_t pending_writes) const
{
    // Queue-mapped sources pop the FIFO instead of reading the
    // scoreboarded register.
    std::uint64_t regs = op.srcs;
    int pops = 0;
    if (ctx.q_reads != 0) {
        pops = queuePopCount(ctx, op);
        regs &= ~ctx.q_reads;
    }
    if (regs & pending_writes)
        return false;
    const Slot &slot = slots_[slot_id];
    for (; regs != 0; regs &= regs - 1) {
        if (slot.sb[std::countr_zero(regs)] > c)
            return false;
    }
    // The slot that issued this instruction is the consumer side of
    // its incoming queue link.
    return pops == 0 || ring_regs_.canPop(slot_id, pops);
}

int
MultithreadedProcessor::queuePopCount(const Context &ctx,
                                      const CoreOp &op) const
{
    int pops = 0;
    for (int i = 0; i < op.nsrc; ++i)
        pops += static_cast<int>((ctx.q_reads >> flatReg(op.src[i])) & 1);
    return pops;
}

OperandValues
MultithreadedProcessor::readOperands(int slot_id, Context &ctx,
                                     const Insn &insn)
{
    auto q_pop = [&]() -> std::uint64_t {
        const std::uint64_t v = ring_regs_.pop(slot_id);
        if (sink_) {
            obs::Event ev;
            ev.cycle = now_;
            ev.kind = obs::EventKind::QueuePop;
            ev.slot = static_cast<std::int8_t>(slot_id);
            ev.a = v;
            sink_->event(ev);
        }
        return v;
    };
    auto rd_int = [&](RegIndex r) -> std::uint32_t {
        if ((ctx.q_reads >> r) & 1)
            return static_cast<std::uint32_t>(q_pop());
        return r == 0 ? 0 : ctx.iregs[r];
    };
    auto rd_fp = [&](RegIndex r) -> double {
        if ((ctx.q_reads >> (r + kNumRegs)) & 1)
            return std::bit_cast<double>(q_pop());
        return ctx.fregs[r];
    };

    OperandValues ops;
    switch (opMeta(insn.op).format) {
      case Format::R3:
        ops.rs_i = rd_int(insn.rs);
        ops.rt_i = rd_int(insn.rt);
        break;
      case Format::R2:
      case Format::SHI:
      case Format::I:
        ops.rs_i = rd_int(insn.rs);
        break;
      case Format::LUIF:
        break;
      case Format::FR3:
      case Format::FCMP:
        ops.rs_f = rd_fp(insn.rs);
        ops.rt_f = rd_fp(insn.rt);
        break;
      case Format::FR2:
      case Format::FTOIF:
        ops.rs_f = rd_fp(insn.rs);
        break;
      case Format::ITOFF:
        ops.rs_i = rd_int(insn.rs);
        break;
      case Format::MEM:
        ops.rs_i = rd_int(insn.rs);
        if (isStoreOp(insn.op)) {
            if (isFpFormatOp(insn.op))
                ops.rt_f = rd_fp(insn.rt);
            else
                ops.rt_i = rd_int(insn.rt);
        }
        break;
      case Format::BR2:
        ops.rs_i = rd_int(insn.rs);
        ops.rt_i = rd_int(insn.rt);
        break;
      case Format::BR1:
      case Format::JRF:
      case Format::JALRF:
        ops.rs_i = rd_int(insn.rs);
        break;
      default:
        break;
    }
    return ops;
}

// ---------------------------------------------------------------
// Fetch engine
// ---------------------------------------------------------------

MultithreadedProcessor::FetchPort &
MultithreadedProcessor::portOf(int slot_id)
{
    return ports_[cfg_.private_icache ? slot_id : 0];
}

Cycle
MultithreadedProcessor::icacheDelay(Addr addr, int words)
{
    if (!icache_ || words <= 0)
        return 0;
    Cycle delay = 0;
    const Addr line = cfg_.icache.line_bytes;
    const Addr first = addr & ~(line - 1);
    const Addr last =
        (addr + static_cast<Addr>(words) * kInsnBytes - 1) &
        ~(line - 1);
    for (Addr a = first; a <= last; a += line) {
        if (icache_->access(a)) {
            ++stats_.icache_hits;
        } else {
            ++stats_.icache_misses;
            delay += cfg_.icache.miss_penalty;
        }
    }
    return delay;
}

void
MultithreadedProcessor::cancelFetches(int slot_id)
{
    FetchPort &port = portOf(slot_id);
    bool removed = false;
    for (auto it = port.inflight.begin();
         it != port.inflight.end();) {
        if (it->slot == slot_id) {
            it = port.inflight.erase(it);
            removed = true;
        } else {
            ++it;
        }
    }
    if (removed) {
        Cycle free_at = 0;
        for (const FetchOp &op : port.inflight)
            free_at = std::max(free_at, op.done_at);
        port.free_at = free_at;
    }
}

Cycle
MultithreadedProcessor::scheduleRedirect(int slot_id, Addr target,
                                         Cycle earliest)
{
    cancelFetches(slot_id);
    FetchPort &port = portOf(slot_id);
    const Cycle s = std::max(earliest, port.free_at);
    const Cycle cache = static_cast<Cycle>(cfg_.icache_cycles);

    FetchOp op;
    op.slot = slot_id;
    op.addr = target;
    const Addr end = prog_.textEnd();
    const int avail =
        target < end ? static_cast<int>((end - target) / kInsnBytes)
                     : 0;
    op.words = std::min(cfg_.fetchBlockWords(), avail);
    op.redirect = true;
    const Cycle miss_delay = icacheDelay(target, op.words);
    op.done_at = s + cache + miss_delay;
    // No earlier than the port's other fetches: the list stays
    // ordered by done_at.
    port.inflight.push_back(op);
    port.free_at = s + cache + miss_delay;
    // Subsequent sequential refills continue past this block.
    slots_[slot_id].fetch_addr =
        target + static_cast<Addr>(op.words) * kInsnBytes;
    refreshSlot(slot_id);
    return s;
}

void
MultithreadedProcessor::fetchPhase(Cycle c)
{
    const Addr end = prog_.textEnd();

    // Deliveries: each port's fetches land in done_at order.
    for (FetchPort &port : ports_) {
        auto it = port.inflight.begin();
        for (; it != port.inflight.end() && it->done_at <= c; ++it) {
            Slot &slot = slots_[it->slot];
            if (!((masks_.live >> it->slot) & 1))
                continue;
            // New words reach a sleeping slot's window only through
            // free window space.
            if (static_cast<int>(slot.window.size()) < cfg_.width)
                wakeSlot(it->slot);
            const int n = std::min(slot.iqueue.space(), it->words);
            for (int k = 0; k < n; ++k) {
                const Addr a =
                    it->addr + static_cast<Addr>(k) * kInsnBytes;
                if (a < end)
                    slot.iqueue.push(a);
            }
            if (sink_ && n > 0) {
                obs::Event ev;
                ev.cycle = c;
                ev.kind = obs::EventKind::Fetch;
                ev.slot = static_cast<std::int8_t>(it->slot);
                ev.pc = it->addr;
                ev.a = static_cast<std::uint64_t>(n);
                sink_->event(ev);
            }
            // Words that did not fit are refetched: the stream
            // position rewinds to the first undelivered word.
            if (n < it->words && !it->redirect) {
                slot.fetch_addr =
                    it->addr + static_cast<Addr>(n) * kInsnBytes;
            }
            refreshFetch(it->slot);
        }
        port.inflight.erase(port.inflight.begin(), it);
    }

    // Start a new fetch on an idle port: a private port serves its
    // own slot, the shared one the slots that want a fetch,
    // round-robin from rr_next. An idle port has delivered every
    // fetch (its free_at is the latest done_at), so no slot has one
    // in flight.
    if (cfg_.private_icache) {
        for (std::uint64_t m = masks_.wants_fetch; m != 0; m &= m - 1) {
            const int s = std::countr_zero(m);
            if (ports_[s].free_at <= c)
                startFetch(s, c);
        }
    } else if (masks_.wants_fetch != 0 && ports_[0].free_at <= c) {
        const std::uint64_t later =
            masks_.wants_fetch & (~std::uint64_t{0} << ports_[0].rr_next);
        startFetch(std::countr_zero(later != 0 ? later
                                               : masks_.wants_fetch),
                   c);
    }
}

void
MultithreadedProcessor::startFetch(int slot_id, Cycle c)
{
    const Addr end = prog_.textEnd();
    Slot &slot = slots_[slot_id];
    FetchPort &port = portOf(slot_id);
    FetchOp op;
    op.slot = slot_id;
    op.addr = slot.fetch_addr;
    op.words = std::min(
        cfg_.fetchBlockWords(),
        static_cast<int>((end - slot.fetch_addr) / kInsnBytes));
    op.redirect = false;
    op.done_at = c + static_cast<Cycle>(cfg_.icache_cycles) +
                 icacheDelay(op.addr, op.words);
    slot.fetch_addr += static_cast<Addr>(op.words) * kInsnBytes;
    port.inflight.push_back(op);
    port.free_at = op.done_at;
    port.rr_next = (slot_id + 1) % cfg_.num_slots;
    refreshFetch(slot_id);
}

// ---------------------------------------------------------------
// Thread management
// ---------------------------------------------------------------

void
MultithreadedProcessor::flushFrontEnd(int slot_id)
{
    Slot &slot = slots_[slot_id];
    wakeSlot(slot_id);
    slot.iqueue.clear();
    slot.window.clear();
    cancelFetches(slot_id);
    refreshSlot(slot_id);
}

void
MultithreadedProcessor::bindContext(int frame, int slot_id, Cycle c)
{
    Slot &slot = slots_[slot_id];
    SMTSIM_ASSERT(slot.frame < 0, "binding to an occupied slot");
    Context &ctx = contexts_[frame];

    wakeSlot(slot_id);
    slot.frame = frame;
    slot.trap_pending = false;
    slot.iqueue.clear();
    slot.window.clear();
    slot.sb.fill(0);
    slot.wb_ring.fill({});

    ctx.state = CtxState::Running;

    // Access-requirement-buffer entries are re-decoded first.
    for (const ReplayEntry &e : ctx.replay)
        slot.window.push_back(WindowEntry{&text_.op(e.pc), e.pc, true});
    ctx.replay.clear();

    if (sink_) {
        obs::Event ev;
        ev.cycle = c;
        ev.kind = obs::EventKind::SlotBind;
        ev.slot = static_cast<std::int8_t>(slot_id);
        ev.unit = static_cast<std::int16_t>(frame);
        ev.pc = ctx.resume_pc;
        sink_->event(ev);
    }
    slot.fetch_addr = ctx.resume_pc;
    // Refreshes the slot's mask bits too.
    const Cycle s = scheduleRedirect(slot_id, ctx.resume_pc, c + 1);
    slot.d2_allowed =
        std::max(s + static_cast<Cycle>(cfg_.branch_gap),
                 c + 1 + static_cast<Cycle>(
                             cfg_.context_switch_cycles));
}

void
MultithreadedProcessor::unbindSlot(int slot_id)
{
    Slot &slot = slots_[slot_id];
    if (sink_) {
        obs::Event ev;
        ev.cycle = now_;
        ev.kind = obs::EventKind::SlotUnbind;
        ev.slot = static_cast<std::int8_t>(slot_id);
        ev.unit = static_cast<std::int16_t>(slot.frame);
        sink_->event(ev);
    }
    flushFrontEnd(slot_id);
    slot.frame = -1;
    slot.trap_pending = false;
    refreshSlot(slot_id);
}

Addr
MultithreadedProcessor::nextUnissuedPc(int slot_id) const
{
    const Slot &slot = slots_[slot_id];
    if (!slot.window.empty())
        return slot.window.front().pc;
    if (!slot.iqueue.empty())
        return slot.iqueue.front();
    // fetch_addr has already advanced past any in-flight fetch
    // block; resuming there would skip the block's instructions
    // once the switch-out cancels the fetch.
    for (const FetchOp &op :
         ports_[cfg_.private_icache ? slot_id : 0].inflight) {
        if (op.slot == slot_id)
            return op.addr;
    }
    return slot.fetch_addr;
}

void
MultithreadedProcessor::killOtherThreads(int killer_slot)
{
    const int killer_frame = slots_[killer_slot].frame;
    for (int f = 0; f < cfg_.frames(); ++f) {
        Context &ctx = contexts_[f];
        if (f == killer_frame || ctx.state == CtxState::Unused ||
            ctx.state == CtxState::Finished) {
            continue;
        }
        ctx.state = CtxState::Finished;
        --open_frames_;
    }
    const std::uint64_t victims =
        (masks_.live | masks_.draining) &
        ~(std::uint64_t{1} << killer_slot);
    for (std::uint64_t m = victims; m != 0; m &= m - 1) {
        const int s = std::countr_zero(m);
        for (ScheduleUnit &su : sched_units_)
            su.flushSlot(s);
        slots_[s].ungranted = 0;
        unbindSlot(s);
    }
    units_next_ = unitsNext();
    // Kill-threads resets the queue-register network; no frame but
    // the killer's is left to wake.
    ring_regs_.clear();
    pending_pushes_.clear();
    push_next_ = kNeverCycle;
    remote_next_ = kNeverCycle;
    ready_fifo_.clear();
    if (sink_) {
        for (int l = 0; l < ring_regs_.numLinks(); ++l) {
            obs::Event ev;
            ev.cycle = now_;
            ev.kind = obs::EventKind::QueueState;
            ev.slot = static_cast<std::int8_t>(l);
            ev.a = 0;
            sink_->event(ev);
        }
    }
}

// ---------------------------------------------------------------
// Grant-time execution
// ---------------------------------------------------------------

void
MultithreadedProcessor::writeResult(Slot &slot, Context &ctx,
                                    const IssuedOp &op, bool is_fp,
                                    std::uint32_t ival, double fval,
                                    Cycle clear_at)
{
    if (op.queue_write) {
        PendingPush push;
        push.at = clear_at;
        push.slot = op.slot;
        push.value = is_fp ? std::bit_cast<std::uint64_t>(fval)
                           : std::uint64_t{ival};
        pending_pushes_.push_back(push);
        push_next_ = std::min(push_next_, clear_at);
    } else if (op.dst.file == RF::Int && op.dst.idx == 0) {
        // Writes to r0 vanish; no write port needed.
    } else {
        const RegRef dst = op.dst;
        SMTSIM_ASSERT(dst.valid(), "writeResult without destination");
        if (dst.file == RF::Fp)
            ctx.fregs[dst.idx] = fval;
        else
            ctx.iregs[dst.idx] = ival;
        const int reg = flatReg(dst);
        slot.sb[reg] = clear_at;
        if (asleep(op.slot) && ((slot.watched >> reg) & 1)) {
            slot.wake_at = std::min(slot.wake_at, clear_at);
            wake_next_ = std::min(wake_next_, clear_at);
        }

        // Each register bank has one write port; two results
        // retiring in the same cycle for one slot is a structural
        // conflict (reported as a statistic; the paper leaves its
        // resolution open).
        Slot::WbBin &bin =
            slot.wb_ring[clear_at % slot.wb_ring.size()];
        if (bin.at == clear_at) {
            if (++bin.count > 1)
                ++stats_.writeback_conflicts;
        } else {
            bin.at = clear_at;
            bin.count = 1;
        }
    }
    last_activity_ = std::max(last_activity_, clear_at);
}

void
MultithreadedProcessor::takeRemoteTrap(const IssuedOp &op, Cycle c,
                                       Addr addr)
{
    Slot &slot = slots_[op.slot];
    Context &ctx = contexts_[slot.frame];
    SMTSIM_ASSERT(!op.queue_write,
                  "remote access with queue-register destination");

    ++stats_.context_switches;
    if (sink_) {
        obs::Event ev;
        ev.cycle = c;
        ev.kind = obs::EventKind::Trap;
        ev.slot = static_cast<std::int8_t>(op.slot);
        ev.pc = addr;
        ev.insn = encode(op.insn);
        ev.a = remote_model_ ? 0 : cfg_.remote.latency;
        sink_->event(ev);
    }
    ctx.state = CtxState::WaitRemote;
    if (remote_model_) {
        // Completion depends on machine-wide interconnect state the
        // core cannot see; park the context unwakeably and let the
        // machine resolve it at its next quantum barrier.
        ctx.ready_at = kNeverCycle;
        remote_model_->request(slot.frame, addr, c);
    } else {
        ctx.ready_at = c + cfg_.remote.latency;
        remote_next_ = std::min(remote_next_, ctx.ready_at);
    }
    ctx.satisfied_addr = addr;
    ctx.replay.push_back(ReplayEntry{op.insn, op.pc});
    ctx.resume_pc = nextUnissuedPc(op.slot);

    flushFrontEnd(op.slot);
    slot.trap_pending = true;
    refreshSlot(op.slot);
}

void
MultithreadedProcessor::performGrant(const IssuedOp &op, int unit,
                                     Cycle c)
{
    Slot &slot = slots_[op.slot];
    const OpMeta &meta = opMeta(op.insn.op);
    const int cls = static_cast<int>(meta.fu);

    if (slot.wake_on_grant)
        wakeSlot(op.slot);
    slot.ungranted &= static_cast<std::uint8_t>(~(1u << cls));

    ++stats_.fu_grants[cls];
    stats_.fu_busy[cls] += meta.issue_latency;
    stats_.unit_busy[cls][unit] += meta.issue_latency;

    if (sink_) {
        obs::Event ev;
        ev.cycle = c;
        ev.kind = obs::EventKind::Grant;
        ev.slot = static_cast<std::int8_t>(op.slot);
        ev.fu = static_cast<std::int8_t>(cls);
        ev.unit = static_cast<std::int16_t>(unit);
        ev.pc = op.pc;
        ev.insn = encode(op.insn);
        sink_->event(ev);
    }

    // A slot holding an ungranted op is bound (checkInvariants()).
    Context &ctx = contexts_[slot.frame];

    if (op.insn.isMem()) {
        const Addr addr =
            op.ops.rs_i + static_cast<std::uint32_t>(op.insn.imm);
        // Replay mode checks the address against the recording; the
        // record is consumed only once the access completes, so a
        // trapped op re-checks the same record when it resumes.
        if (replay_)
            replayMemAddr(ctx, op.pc, addr);
        Cycle result_lat =
            static_cast<Cycle>(meta.result_latency);

        const bool satisfied =
            ctx.satisfied_addr && *ctx.satisfied_addr == addr;
        if (cfg_.remote.contains(addr) && !satisfied) {
            if (rotation_mode_ == RotationMode::Implicit) {
                takeRemoteTrap(op, c, addr);
                return;
            }
            // Explicit-rotation mode suppresses data-absence
            // context switches (section 2.3.1); the thread simply
            // waits out the latency. Under a machine-level model the
            // wait charges the uncontended topology latency — known
            // at grant time, unlike bank contention.
            result_lat = remote_model_
                             ? remote_model_->uncontendedLatency(addr)
                             : cfg_.remote.latency;
        }
        if (replay_)
            ++ctx.next_mem;
        if (satisfied)
            ctx.satisfied_addr.reset();

        // Finite data cache: a miss lengthens the access latency
        // (non-blocking; the unit keeps accepting work).
        if (dcache_) {
            if (dcache_->access(addr)) {
                ++stats_.dcache_hits;
            } else {
                ++stats_.dcache_misses;
                result_lat += cfg_.dcache.miss_penalty;
            }
        }

        switch (op.insn.op) {
          case Op::LW:
            writeResult(slot, ctx, op, false, mem_.read32(addr), 0.0,
                        c + result_lat);
            ++stats_.loads;
            break;
          case Op::LF:
            writeResult(slot, ctx, op, true, 0, mem_.readDouble(addr),
                        c + result_lat);
            ++stats_.loads;
            break;
          case Op::SW:
          case Op::PSTW:
            mem_.write32(addr, op.ops.rt_i);
            ++stats_.stores;
            last_activity_ =
                std::max(last_activity_, c + result_lat);
            break;
          case Op::SF:
          case Op::PSTF:
            mem_.writeDouble(addr, op.ops.rt_f);
            ++stats_.stores;
            last_activity_ =
                std::max(last_activity_, c + result_lat);
            break;
          default:
            panic("performGrant: unexpected memory op");
        }
    } else {
        const DataResult r = execDataOp(op.insn, op.ops);
        writeResult(slot, ctx, op, r.is_fp, r.ival, r.fval,
                    c + static_cast<Cycle>(meta.result_latency));
    }

    ++ctx.insns;
    ++stats_.instructions;
}

void
MultithreadedProcessor::schedulePhase(Cycle c)
{
    // Queue-register deposits land at the producer's write-back,
    // in the order they were granted.
    if (push_next_ <= c) {
        push_next_ = kNeverCycle;
        std::size_t keep = 0;
        for (const PendingPush &push : pending_pushes_) {
            if (push.at > c) {
                push_next_ = std::min(push_next_, push.at);
                pending_pushes_[keep++] = push;
                continue;
            }
            ring_regs_.push(push.slot, push.value);
            if (sink_) {
                obs::Event ev;
                ev.cycle = c;
                ev.kind = obs::EventKind::QueuePush;
                ev.slot = static_cast<std::int8_t>(push.slot);
                ev.a = push.value;
                sink_->event(ev);
            }
        }
        pending_pushes_.resize(keep);
    }

    if (units_next_ > c)
        return;
    // A grant changes no unit but its own, so one pass both selects
    // and finds the next event.
    Cycle next = kNeverCycle;
    for (ScheduleUnit &su : sched_units_) {
        // select() for an earlier cycle would latch and grant nothing.
        if (su.nextEventCycle() <= c) {
            su.select(c, ring_top_,
                      [this, c](const IssuedOp &op, int unit) {
                          performGrant(op, unit, c);
                      });
        }
        next = std::min(next, su.nextEventCycle());
    }
    units_next_ = next;
}

Cycle
MultithreadedProcessor::unitsNext() const
{
    Cycle ev = kNeverCycle;
    for (const ScheduleUnit &su : sched_units_)
        ev = std::min(ev, su.nextEventCycle());
    return ev;
}

// ---------------------------------------------------------------
// Context phase (concurrent multithreading)
// ---------------------------------------------------------------

void
MultithreadedProcessor::contextPhase(Cycle c)
{
    // Remote accesses that completed make their contexts ready, in
    // frame order (only remote memory switches contexts out).
    if (remote_next_ <= c) {
        remote_next_ = kNeverCycle;
        for (int f = 0; f < cfg_.frames(); ++f) {
            Context &ctx = contexts_[f];
            if (ctx.state != CtxState::WaitRemote)
                continue;
            if (ctx.ready_at <= c) {
                ctx.state = CtxState::Ready;
                ready_fifo_.push_back(f);
            } else {
                remote_next_ = std::min(remote_next_, ctx.ready_at);
            }
        }
    }

    // Switch-outs complete once every granted-op drain finishes.
    for (std::uint64_t m = masks_.draining; m != 0; m &= m - 1) {
        const int s = std::countr_zero(m);
        if (slots_[s].ungranted == 0)
            unbindSlot(s);
    }

    // Bind ready contexts to free slots, FIFO (the FIFO holds
    // exactly the Ready contexts; KILLT empties both).
    if (ready_fifo_.empty())
        return;
    for (std::uint64_t m = freeSlots(); m != 0 && !ready_fifo_.empty();
         m &= m - 1) {
        const int frame = ready_fifo_.front();
        ready_fifo_.erase(ready_fifo_.begin());
        bindContext(frame, std::countr_zero(m), c);
    }
}

// ---------------------------------------------------------------
// Decode phase
// ---------------------------------------------------------------

MultithreadedProcessor::ControlOutcome
MultithreadedProcessor::handleControl(int slot_id, Context &ctx,
                                      const WindowEntry &entry,
                                      Cycle c, StallCounts &stalls)
{
    Slot &slot = slots_[slot_id];
    const CoreOp &cop = *entry.op;
    const Insn &insn = cop.insn;

    if (cop.branch) {
        if (!operandsReady(slot_id, ctx, cop, c, 0)) {
            countStall(stalls, StallBranchOperands);
            return ControlOutcome::Blocked;
        }
        // Link-writing jumps (JAL, JALR rd) respect the
        // write-after-write interlock on their destination.
        if (cop.dsts && slot.sb[flatReg(cop.dst)] > c)
            return ControlOutcome::Blocked;
        const OperandValues ops = readOperands(slot_id, ctx, insn);
        Addr next = entry.pc + kInsnBytes;
        switch (insn.op) {
          case Op::J:
            next = (entry.pc & 0xf0000000u) |
                   (static_cast<std::uint32_t>(insn.imm) << 2);
            break;
          case Op::JAL:
            ctx.iregs[31] = entry.pc + kInsnBytes;
            slot.sb[31] = c;
            next = (entry.pc & 0xf0000000u) |
                   (static_cast<std::uint32_t>(insn.imm) << 2);
            break;
          case Op::JR:
            next = ops.rs_i;
            if (replay_)
                replayBranch(ctx, entry.pc, next);
            break;
          case Op::JALR:
            if (insn.rd != 0) {
                ctx.iregs[insn.rd] = entry.pc + kInsnBytes;
                slot.sb[insn.rd] = c;
            }
            next = ops.rs_i;
            if (replay_)
                replayBranch(ctx, entry.pc, next);
            break;
          default:
            if (evalBranch(insn.op, ops.rs_i, ops.rt_i)) {
                next = entry.pc + kInsnBytes +
                       static_cast<Addr>(insn.imm * 4);
            }
            if (replay_)
                replayBranch(ctx, entry.pc, next);
            break;
        }
        ++stats_.branches;
        ++stats_.instructions;
        ++ctx.insns;
        if (sink_) {
            obs::Event ev;
            ev.cycle = c;
            ev.kind = obs::EventKind::Issue;
            ev.slot = static_cast<std::int8_t>(slot_id);
            ev.pc = entry.pc;
            ev.insn = encode(insn);
            sink_->event(ev);
        }

        // Untaken conditional branches keep the sequential stream:
        // the fetch request sent at the end of D1 was already
        // fetching fall-through instructions (predict-not-taken).
        // Taken branches flush and redirect, paying the 5-cycle
        // gap of section 2.1.2 (plus fetch-unit contention).
        if (next == entry.pc + kInsnBytes)
            return ControlOutcome::Issued;

        if (sink_) {
            obs::Event ev;
            ev.cycle = c;
            ev.kind = obs::EventKind::Branch;
            ev.slot = static_cast<std::int8_t>(slot_id);
            ev.pc = entry.pc;
            ev.insn = encode(insn);
            ev.a = next;
            sink_->event(ev);
        }
        flushFrontEnd(slot_id);
        slot.fetch_addr = next;
        const Cycle s = scheduleRedirect(slot_id, next, c);
        slot.d2_allowed =
            s + static_cast<Cycle>(cfg_.branch_gap);
        return ControlOutcome::Flushed;
    }

    // Thread-control instruction.
    switch (insn.op) {
      case Op::NOP:
        break;
      case Op::HALT:
        ++stats_.instructions;
        ++ctx.insns;
        if (sink_) {
            obs::Event ev;
            ev.cycle = c;
            ev.kind = obs::EventKind::Issue;
            ev.slot = static_cast<std::int8_t>(slot_id);
            ev.pc = entry.pc;
            ev.insn = encode(insn);
            sink_->event(ev);
            ev.kind = obs::EventKind::Halt;
            sink_->event(ev);
        }
        ctx.state = CtxState::Finished;
        --open_frames_;
        flushFrontEnd(slot_id);
        slot.trap_pending = true;   // drain, then unbind
        refreshSlot(slot_id);
        return ControlOutcome::Flushed;
      case Op::FASTFORK: {
        for (int j = 0; j < cfg_.num_slots; ++j) {
            if (j == slot_id || slots_[j].frame >= 0)
                continue;
            int frame = -1;
            for (int f = 0; f < cfg_.frames(); ++f) {
                if (contexts_[f].state == CtxState::Unused) {
                    frame = f;
                    break;
                }
            }
            if (frame < 0)
                break;
            contexts_[frame].iregs = ctx.iregs;
            contexts_[frame].fregs = ctx.fregs;
            contexts_[frame].q_reads = ctx.q_reads;
            contexts_[frame].q_writes = ctx.q_writes;
            contexts_[frame].resume_pc = entry.pc + kInsnBytes;
            contexts_[frame].state = CtxState::Ready;
            ++open_frames_;
            // Thread i of the recording engine starts on slot i
            // (the FASTFORK convention), so the forked context
            // plays back trace thread j.
            if (replay_) {
                contexts_[frame].trace_tid = j;
                contexts_[frame].next_branch = 0;
                contexts_[frame].next_mem = 0;
            }
            bindContext(frame, j, c);
        }
        break;
      }
      case Op::CHGPRI:
        if (!hasTopPriority(slot_id)) {
            countStall(stalls, StallPriority);
            return ControlOutcome::Blocked;
        }
        rotate_requested_ = true;
        break;
      case Op::KILLT:
        if (!hasTopPriority(slot_id)) {
            countStall(stalls, StallPriority);
            return ControlOutcome::Blocked;
        }
        // The kill point is timing-dependent: the victims' record
        // streams cannot be lined up with a functional recording,
        // so KILLT programs are not replayable.
        if (replay_)
            throw ReplayDivergence("replay: KILLT is not "
                                   "replayable (timing-dependent "
                                   "kill point)");
        killOtherThreads(slot_id);
        break;
      case Op::TID:
      case Op::NSLOT:
        // The mask is empty for r0, whose writes vanish.
        if (cop.dsts) {
            Cycle &sb = slot.sb[flatReg(cop.dst)];
            if (sb > c) {
                countStall(stalls, StallWaw);
                return ControlOutcome::Blocked;
            }
            ctx.iregs[cop.dst.idx] =
                insn.op == Op::TID
                    ? static_cast<std::uint32_t>(slot_id)
                    : static_cast<std::uint32_t>(cfg_.num_slots);
            sb = c;
        }
        break;
      case Op::QEN:
        if (insn.rs == 0 || insn.rt == 0 || insn.rs == insn.rt)
            fatal("qen: bad register pair");
        ctx.q_reads = (ctx.q_reads & ~kIntRegBits) |
                      std::uint64_t{1} << insn.rs;
        ctx.q_writes = (ctx.q_writes & ~kIntRegBits) |
                       std::uint64_t{1} << insn.rt;
        break;
      case Op::QENF:
        if (insn.rs == insn.rt)
            fatal("qenf: read and write register identical");
        ctx.q_reads = (ctx.q_reads & kIntRegBits) |
                      std::uint64_t{1} << (insn.rs + kNumRegs);
        ctx.q_writes = (ctx.q_writes & kIntRegBits) |
                       std::uint64_t{1} << (insn.rt + kNumRegs);
        break;
      case Op::QDIS:
        ctx.q_reads = 0;
        ctx.q_writes = 0;
        break;
      case Op::SETRMODE:
        rotation_mode_ = insn.rt == 1 ? RotationMode::Explicit
                                      : RotationMode::Implicit;
        if (insn.imm > 0)
            rotation_interval_ = insn.imm;
        break;
      default:
        panic("handleControl: unexpected op ",
              opMeta(insn.op).mnemonic);
    }
    ++stats_.instructions;
    ++ctx.insns;
    if (sink_) {
        obs::Event ev;
        ev.cycle = c;
        ev.kind = obs::EventKind::Issue;
        ev.slot = static_cast<std::int8_t>(slot_id);
        ev.pc = entry.pc;
        ev.insn = encode(insn);
        sink_->event(ev);
    }
    return ControlOutcome::Issued;
}

void
MultithreadedProcessor::addStalls(StallCounts stalls, std::uint64_t times)
{
    for (; stalls != 0; stalls &= stalls - 1) {
        const int bit = std::countr_zero(stalls);
        stalls_[bit / 8] += (std::uint64_t{1} << (bit % 8)) * times;
    }
}

void
MultithreadedProcessor::publishStalls()
{
    for (int k = 0; k < kNumStalls; ++k)
        *stall_[k] += stalls_[k];
    stats_.standby_stalls +=
        stalls_[StallStandby] + stalls_[StallNoStandby];
    stalls_.fill(0);
}

void
MultithreadedProcessor::creditSleep(int slot_id)
{
    Slot &slot = slots_[slot_id];
    if (!asleep(slot_id) || slot.slept_through == now_)
        return;
    addStalls(slot.sleep_stalls, now_ - slot.slept_through);
    slot.slept_through = now_;
}

void
MultithreadedProcessor::wakeSleeper(int slot_id)
{
    // Every wake-up in cycle now_ comes before the slot's decode
    // turn (a KILLT victim ranks below the killer), so now_'s
    // attempt is not one of the skipped ones.
    const Slot &slot = slots_[slot_id];
    if (now_ - 1 > slot.slept_through)
        addStalls(slot.sleep_stalls, now_ - 1 - slot.slept_through);
    asleep_ &= ~(std::uint64_t{1} << slot_id);
}

void
MultithreadedProcessor::wakeDue(Cycle c)
{
    wake_next_ = kNeverCycle;
    for (std::uint64_t m = asleep_; m != 0; m &= m - 1) {
        const int s = std::countr_zero(m);
        const Cycle at = slots_[s].wake_at;
        if (at <= c)
            wakeSlot(s);
        else
            wake_next_ = std::min(wake_next_, at);
    }
}

bool
MultithreadedProcessor::issueWindow(int slot_id, Cycle c)
{
    Slot &slot = slots_[slot_id];
    // A live slot is bound (checkInvariants()).
    Context &ctx = contexts_[slot.frame];
    StallCounts stalls = 0;
    int issues = 0;
    bool blocked = false;       // an older entry stays in the window
    bool mem_blocked = false;
    bool priority = false;      // consulted the priority ring
    bool grant_dep = false;     // blocked by the class mask
    std::uint64_t pending_reads = 0, pending_writes = 0;
    // Registers whose scoreboard entries decided this attempt.
    std::uint64_t watched = 0;

    // Issued entries leave the window; the rest are compacted in
    // order as the scan goes.
    const std::size_t n = slot.window.size();
    std::size_t keep = 0;
    std::size_t i = 0;
    for (; i < n && issues < cfg_.width; ++i) {
        const WindowEntry entry = slot.window[i];
        const CoreOp &op = *entry.op;

        if (op.control) {
            if (blocked)
                break;
            // Control instructions also wait for the slot's own
            // in-flight instructions when they change global state
            // (fork, kill, priority, halt). CHGPRI drains too: an
            // iteration is acknowledged (and priority handed over)
            // only once its issued instructions have executed, which
            // keeps priority stores of successive iterations in
            // order.
            if (op.drains && slot.ungranted != 0) {
                grant_dep = true;
                break;
            }
            priority |= op.priority;
            watched |= op.srcs | op.dsts;
            const ControlOutcome outcome =
                handleControl(slot_id, ctx, entry, c, stalls);
            if (outcome == ControlOutcome::Blocked)
                break;
            ++issues;
            if (outcome == ControlOutcome::Flushed)
                return false;   // the flush emptied the window
            continue;
        }

        // ----- data / memory instruction -------------------------
        bool issuable = true;

        if (op.priority) {
            priority = true;
            if (!hasTopPriority(slot_id)) {
                countStall(stalls, StallPriority);
                issuable = false;
            }
        }

        // Every memory op is a load/store op, so this check also
        // keeps a memory op behind an ungranted one.
        const int cls = static_cast<int>(op.fu);
        if (issuable) {
            if (cfg_.standby_enabled) {
                if (slot.ungranted & (1u << cls)) {
                    countStall(stalls, StallStandby);
                    issuable = false;
                    grant_dep = true;
                }
            } else if (slot.ungranted != 0) {
                countStall(stalls, StallNoStandby);
                issuable = false;
                grant_dep = true;
            }
        }

        if (issuable && op.mem && mem_blocked) {
            countStall(stalls, StallMemorder);
            issuable = false;
        }

        // Queue-register reads dequeue, so they must stay in program
        // order: a younger pop may not overtake an older instruction
        // still waiting in the window.
        if (issuable && blocked && ctx.q_reads != 0 &&
            queuePopCount(ctx, op) > 0) {
            countStall(stalls, StallOperands);
            issuable = false;
        }

        if (issuable &&
            !operandsReady(slot_id, ctx, op, c, pending_writes)) {
            countStall(stalls, StallOperands);
            issuable = false;
        }

        const bool queue_write = (op.dsts & ctx.q_writes) != 0;
        if (issuable) {
            if (queue_write) {
                // One write in flight per link keeps deposits in
                // issue order.
                if (blocked || ring_regs_.reserved(slot_id) > 0 ||
                    !ring_regs_.canReserve(slot_id)) {
                    countStall(stalls, StallQueueFull);
                    issuable = false;
                }
            } else if ((op.dsts & (pending_reads | pending_writes)) ||
                       (op.dsts && slot.sb[flatReg(op.dst)] > c)) {
                countStall(stalls, StallWaw);
                issuable = false;
            }
        }

        if (!issuable) {
            // The entry stays; younger entries may not overtake its
            // register traffic, memory access or queue operations.
            pending_reads |= op.srcs;
            pending_writes |= op.dsts;
            mem_blocked |= op.mem;
            blocked = true;
            watched |= op.srcs | op.dsts;
            slot.window[keep++] = entry;
            continue;
        }

        // The op is written once, into its standby station.
        ScheduleUnit &su = sched_units_[cls];
        IssuedOp &issued = su.station(slot_id);
        issued.insn = op.insn;
        issued.dst = op.dst;
        issued.pc = entry.pc;
        issued.slot = slot_id;
        issued.ops = readOperands(slot_id, ctx, op.insn);
        issued.arrive = c + 1;
        issued.queue_write = queue_write;

        if (queue_write)
            ring_regs_.reserve(slot_id);
        else if (op.dsts)
            slot.sb[flatReg(op.dst)] = kNeverCycle;
        if (sink_) {
            obs::Event ev;
            ev.cycle = c;
            ev.kind = obs::EventKind::Issue;
            ev.slot = static_cast<std::int8_t>(slot_id);
            ev.fu = static_cast<std::int8_t>(cls);
            ev.pc = entry.pc;
            ev.insn = encode(op.insn);
            sink_->event(ev);
        }
        su.submit(slot_id, ring_top_);
        units_next_ = std::min(units_next_, c + 1);
        slot.ungranted |= static_cast<std::uint8_t>(1u << cls);
        ++issues;
    }
    for (; i < n; ++i)
        slot.window[keep++] = slot.window[i];
    slot.window.resize(keep);

    // A fruitless attempt changed nothing, so the next one repeats
    // it exactly until an input changes: a watched scoreboard entry
    // clears or is written by a grant, a grant clears a class-mask
    // bit (grant_dep), or the window is flushed, refilled or
    // rebound.
    // Queue mappings and the priority ring change without such an
    // event; slots reading them stay awake. So does a window too
    // large for the packed increments.
    if (issues > 0 || !cfg_.fast_forward || priority ||
        (ctx.q_reads | ctx.q_writes) != 0 || n > 255)
        return false;
    Cycle wake = kNeverCycle;
    for (std::uint64_t m = watched; m != 0; m &= m - 1) {
        const Cycle t = slot.sb[std::countr_zero(m)];
        if (t > c && t < wake)
            wake = t;
    }
    slot.wake_at = wake;
    slot.watched = watched;
    slot.wake_on_grant = grant_dep;
    slot.sleep_stalls = stalls;
    slot.slept_through = c;
    return true;
}

void
MultithreadedProcessor::decodeSlot(int slot_id, Cycle c)
{
    Slot &slot = slots_[slot_id];
    const bool fruitless = c >= slot.d2_allowed &&
                           !slot.window.empty() &&
                           issueWindow(slot_id, c);

    // D1: move instructions from the queue unit into the window.
    if (!((masks_.live >> slot_id) & 1))
        return;
    const int room = std::min(
        cfg_.width - static_cast<int>(slot.window.size()),
        slot.iqueue.size());
    if (room > 0) {
        for (int k = 0; k < room; ++k) {
            const Addr a = slot.iqueue.front();
            slot.iqueue.pop();
            slot.window.push_back(WindowEntry{&text_.op(a), a, false});
        }
        refreshFetch(slot_id);
    } else if (fruitless) {
        asleep_ |= std::uint64_t{1} << slot_id;
        wake_next_ = std::min(wake_next_, slot.wake_at);
    } else if (slot.window.empty() && cfg_.fast_forward) {
        // Window and queue are empty: nothing to decode until a
        // delivery, a flush or a bind wakes the slot, and no attempt
        // to credit meanwhile.
        slot.wake_at = kNeverCycle;
        slot.watched = 0;
        slot.wake_on_grant = false;
        slot.sleep_stalls = 0;
        slot.slept_through = c;
        asleep_ |= std::uint64_t{1} << slot_id;
    }
}

void
MultithreadedProcessor::decodePhase(Cycle c)
{
    // Decode the live slots in current priority order; determinism
    // matters for the queue-register network. Nothing in this phase
    // rotates the ring: CHGPRI only requests the rotation
    // rotationPhase makes. A sleeping slot's attempt would repeat
    // its last one exactly, so only the slots awake once the due
    // sleepers wake are visited. A KILLT victim is skipped by the
    // live test; a slot bound by an earlier one's FASTFORK is not
    // visited, and has nothing to do: its refill bubble runs into
    // the future and its instruction queue is empty.
    if (wake_next_ <= c)
        wakeDue(c);
    ScheduleUnit::forEachSlot(masks_.live & ~asleep_, ring_top_,
                              [&](int s) {
                                  if ((masks_.live >> s) & 1)
                                      decodeSlot(s, c);
                              });
}

void
MultithreadedProcessor::rotationPhase(Cycle c)
{
    const Cycle ival = static_cast<Cycle>(rotation_interval_);
    // Intervals are usually powers of two: mask instead of divide.
    const bool implicit =
        rotation_mode_ == RotationMode::Implicit && ival > 0 &&
        ((ival & (ival - 1)) == 0 ? (c & (ival - 1)) == 0
                                  : c % ival == 0);
    if (!implicit && !rotate_requested_)
        return;
    // One place each for the interval and for a CHGPRI request.
    rotateRing(std::uint64_t{implicit} + rotate_requested_);
    rotate_requested_ = false;
    if (sink_)
        emitRing(c);
}

bool
MultithreadedProcessor::allDone() const
{
    if (open_frames_ > 0)
        return false;
    for (std::uint64_t m = masks_.live | masks_.draining; m != 0;
         m &= m - 1) {
        if (slots_[std::countr_zero(m)].ungranted != 0)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------
// Idle-cycle fast-forward (docs/PERF.md)
// ---------------------------------------------------------------

Cycle
MultithreadedProcessor::nextEventCycle(Cycle c, bool sleep_aware) const
{
    const Cycle soon = c + 1;
    // Standby latches and grants, and queue-register deposits at the
    // producer's write-back; in a busy core one is nearly always due.
    if (units_next_ <= soon || push_next_ <= soon)
        return soon;
    Cycle ev = kNeverCycle;

    // A non-empty window is (re)examined by D2 once the refill
    // bubble expires — even a fruitless attempt bumps stall
    // counters, so it can never be skipped over. Only a sleeping
    // slot's attempts are known in advance: they repeat until
    // wake_at unless another event here intervenes. (D1 has no
    // event of its own: between cycles a live slot's window is full
    // or its instruction queue empty, checkInvariants().)
    for (std::uint64_t m = masks_.live; m != 0; m &= m - 1) {
        const Slot &slot = slots_[std::countr_zero(m)];
        if (slot.window.empty())
            continue;
        const Cycle attempt = sleep_aware && asleep(std::countr_zero(m))
                                  ? slot.wake_at
                                  : slot.d2_allowed;
        if (attempt <= soon)
            return soon;
        ev = std::min(ev, attempt);
    }
    // A drained switch-out unbinds in the next contextPhase; the
    // rest of a drain comes via grant events.
    for (std::uint64_t m = masks_.draining; m != 0; m &= m - 1) {
        if (slots_[std::countr_zero(m)].ungranted == 0)
            return soon;
    }
    // Binds.
    if (!ready_fifo_.empty() && freeSlots() != 0)
        return soon;

    // The rest of the schedule units' and deposits' events, and
    // context wake-ups.
    ev = std::min({ev, units_next_, push_next_, remote_next_});

    // Fetch deliveries land at their done_at, each port's in order.
    for (const FetchPort &port : ports_) {
        if (!port.inflight.empty())
            ev = std::min(ev, port.inflight.front().done_at);
    }
    // A new fetch starts once its port is idle (a slot with a fetch
    // in flight adds no earlier event: the port is busy until that
    // fetch lands).
    if (cfg_.private_icache) {
        for (std::uint64_t m = masks_.wants_fetch; m != 0; m &= m - 1) {
            ev = std::min(ev, std::max(soon,
                                       ports_[std::countr_zero(m)].free_at));
        }
    } else if (masks_.wants_fetch != 0) {
        ev = std::min(ev, std::max(soon, ports_[0].free_at));
    }
    return std::max(ev, soon);
}

void
MultithreadedProcessor::fastForward(Cycle stop)
{
    const Cycle next = nextEventCycle(now_, true);
    if (next <= now_ + 1)
        return;
    // Skip cycles now_+1 .. target-1; the run loop then steps the
    // event cycle (or stops at the stop cycle when nothing is
    // pending, matching the naive loop's budget exhaustion). The
    // clamp to `stop` keeps runUntil() bit-identical to run():
    // skipped cycles are no-ops and the batched rotation below is
    // linear in the cycle count, so splitting the jump at a
    // checkpoint boundary changes nothing. Sleeping slots count
    // their skipped attempts from slept_through.
    const Cycle target = std::min(next, stop + 1);
    if (rotation_mode_ == RotationMode::Implicit &&
        rotation_interval_ > 0 && cfg_.num_slots > 1) {
        // Batch-apply the implicit rotations the skipped cycles
        // would have performed: one per multiple of the interval.
        const Cycle ival = static_cast<Cycle>(rotation_interval_);
        const std::uint64_t rotations =
            (target - 1) / ival - now_ / ival;
        const std::uint64_t r =
            rotations % static_cast<std::uint64_t>(cfg_.num_slots);
        if (r > 0) {
            rotateRing(r);
            if (sink_)
                emitRing(target - 1);
        }
    }
    now_ = target - 1;
}

RunStats
MultithreadedProcessor::run()
{
    return runUntil(cfg_.max_cycles);
}

RunStats
MultithreadedProcessor::runUntil(Cycle stop)
{
    stop = std::min(stop, cfg_.max_cycles);
    if (finished_)
        return stats_;
    if (snapshot_pending_)
        emitStateSnapshot();

    // Fast-forward jumps before each step, so an idle cycle is never
    // stepped. With a sink attached the first cycle of a call is
    // stepped regardless: a jump over it would fold its implicit
    // rotation into the batch's one RingState event, and event
    // streams stay as they were.
    bool may_jump = cfg_.fast_forward && sink_ == nullptr;
    while (now_ < stop) {
        // A schedule-unit event or a deposit due in the next cycle
        // leaves nothing to skip; in a busy core one nearly always is.
        if (may_jump && units_next_ > now_ + 1 && push_next_ > now_ + 1) {
            fastForward(stop);
            if (now_ >= stop)
                break;
        }
        may_jump = cfg_.fast_forward;
        ++now_;
        fetchPhase(now_);
        schedulePhase(now_);
        contextPhase(now_);
        decodePhase(now_);
        rotationPhase(now_);
        if (allDone()) {
            // Replay sanity: a finished run must have consumed
            // every record of every claimed stream, or the timing
            // it produced came from the wrong dynamic path.
            if (replay_)
                checkReplayDrained();
            stats_.cycles = std::max(now_, last_activity_);
            stats_.finished = true;
            finished_ = true;
            if (sink_) {
                obs::Event ev;
                ev.cycle = stats_.cycles;
                ev.kind = obs::EventKind::RunEnd;
                ev.a = stats_.instructions;
                sink_->event(ev);
                sink_->flush();
            }
            break;
        }
    }
    // The counters returned must include the attempts sleeping
    // slots skipped so far (the slots themselves sleep on), and this
    // call's stall increments.
    for (std::uint64_t m = asleep_; m != 0; m &= m - 1)
        creditSleep(std::countr_zero(m));
    publishStalls();
    if (!finished_ && now_ >= cfg_.max_cycles) {
        stats_.cycles = cfg_.max_cycles;
        stats_.finished = false;
        if (sink_) {
            obs::Event ev;
            ev.cycle = stats_.cycles;
            ev.kind = obs::EventKind::RunEnd;
            ev.a = stats_.instructions;
            sink_->event(ev);
            sink_->flush();
        }
    }
    return stats_;
}

void
MultithreadedProcessor::setEventSink(obs::EventSink *sink)
{
    sink_ = sink;
    for (ScheduleUnit &su : sched_units_)
        su.setSink(sink_);
    snapshot_pending_ = sink_ != nullptr;
}

void
MultithreadedProcessor::emitRing(Cycle c)
{
    std::array<int, kMaxSlots> order;
    for (int i = 0; i < cfg_.num_slots; ++i)
        order[i] = (ring_top_ + i) % cfg_.num_slots;
    obs::Event ev;
    ev.cycle = c;
    ev.kind = obs::EventKind::RingState;
    ev.unit = static_cast<std::int16_t>(cfg_.num_slots);
    ev.a = obs::packRing(order.data(), cfg_.num_slots);
    sink_->event(ev);
}

void
MultithreadedProcessor::emitStateSnapshot()
{
    snapshot_pending_ = false;
    if (!sink_)
        return;

    obs::Event ev;
    ev.cycle = now_;
    ev.kind = obs::EventKind::Snapshot;
    ev.a = stats_.instructions;
    sink_->event(ev);

    emitRing(now_);

    for (int s = 0; s < cfg_.num_slots; ++s) {
        const Slot &slot = slots_[s];
        if (slot.frame < 0)
            continue;
        obs::Event bind;
        bind.cycle = now_;
        bind.kind = obs::EventKind::SlotBind;
        bind.slot = static_cast<std::int8_t>(s);
        bind.unit = static_cast<std::int16_t>(slot.frame);
        bind.pc = contexts_[slot.frame].resume_pc;
        sink_->event(bind);
    }

    for (int l = 0; l < ring_regs_.numLinks(); ++l) {
        obs::Event qs;
        qs.cycle = now_;
        qs.kind = obs::EventKind::QueueState;
        qs.slot = static_cast<std::int8_t>(l);
        qs.a = static_cast<std::uint64_t>(ring_regs_.sizeOf(l));
        sink_->event(qs);
    }

    for (const ScheduleUnit &su : sched_units_)
        su.snapshotTo(*sink_, now_);
}

} // namespace smtsim
