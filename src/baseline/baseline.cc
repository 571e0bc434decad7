#include "baseline.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"
#include "isa/dataop.hh"
#include "isa/semantics.hh"

namespace smtsim
{

BaselineProcessor::BaselineProcessor(const Program &prog,
                                     MainMemory &mem,
                                     const BaselineConfig &cfg)
    : prog_(prog), mem_(mem), cfg_(cfg), text_(prog)
{
    SMTSIM_ASSERT(cfg_.width >= 1, "width must be positive");
    for (int cls = 0; cls < kNumFuClasses; ++cls) {
        const FuClass fc = static_cast<FuClass>(cls);
        if (fc == FuClass::None)
            continue;
        fu_free_[cls].assign(cfg_.fus.count(fc), 0);
        stats_.unit_busy[cls].assign(cfg_.fus.count(fc), 0);
    }
    fetch_pc_ = prog_.entry;
}

void
BaselineProcessor::setEventSink(obs::EventSink *sink)
{
    sink_ = sink;
}

void
BaselineProcessor::emitStreamPrologue()
{
    obs::Event ev;
    ev.cycle = 0;
    ev.kind = obs::EventKind::Snapshot;
    ev.a = stats_.instructions;
    sink_->event(ev);

    ev = obs::Event{};
    ev.kind = obs::EventKind::RingState;
    ev.unit = 1;            // one thread slot
    const int order[1] = {0};
    ev.a = obs::packRing(order, 1);
    sink_->event(ev);

    ev = obs::Event{};
    ev.kind = obs::EventKind::SlotBind;
    ev.slot = 0;
    ev.unit = 0;            // context frame 0
    ev.pc = prog_.entry;
    sink_->event(ev);
}

void
BaselineProcessor::emitSimple(obs::EventKind kind, Cycle c, Addr pc,
                              const Insn &insn, std::uint64_t a)
{
    obs::Event ev;
    ev.cycle = c;
    ev.kind = kind;
    ev.slot = 0;
    ev.pc = pc;
    ev.insn = encode(insn);
    ev.a = a;
    sink_->event(ev);
}

bool
BaselineProcessor::srcsReady(const CoreOp &op, Cycle c,
                             std::uint64_t pending_writes) const
{
    if (op.srcs & pending_writes)
        return false;
    for (std::uint64_t m = op.srcs; m != 0; m &= m - 1) {
        if (clear_[std::countr_zero(m)] >= c)
            return false;
    }
    return true;
}

int
BaselineProcessor::freeUnit(FuClass cls, Cycle c) const
{
    const auto &units = fu_free_[static_cast<int>(cls)];
    for (size_t u = 0; u < units.size(); ++u) {
        if (units[u] <= c)
            return static_cast<int>(u);
    }
    return -1;
}

void
BaselineProcessor::issueDataOp(const CoreOp &op, Cycle c, int unit)
{
    const Insn &insn = op.insn;
    OperandValues ops;
    ops.rs_i = iregs_[insn.rs];
    ops.rt_i = iregs_[insn.rt];
    ops.rs_f = fregs_[insn.rs];
    ops.rt_f = fregs_[insn.rt];
    const DataResult r = execDataOp(insn, ops);

    if (op.dst.file == RF::Fp)
        fregs_[op.dst.idx] = r.fval;
    else if (op.dst.idx != 0)
        iregs_[op.dst.idx] = r.ival;
    const Cycle clear = c + op.result_latency;
    if (op.dsts)
        clear_[flatReg(op.dst)] = clear;
    last_activity_ = std::max(last_activity_, clear);

    const int cls = static_cast<int>(op.fu);
    fu_free_[cls][unit] = c + op.issue_latency;
    ++stats_.fu_grants[cls];
    stats_.fu_busy[cls] += op.issue_latency;
    stats_.unit_busy[cls][unit] += op.issue_latency;
}

void
BaselineProcessor::issueMemOp(const CoreOp &op, Cycle c, int unit)
{
    const Insn &insn = op.insn;
    const Addr addr =
        iregs_[insn.rs] + static_cast<std::uint32_t>(insn.imm);

    switch (insn.op) {
      case Op::LW:
        if (insn.rt != 0)
            iregs_[insn.rt] = mem_.read32(addr);
        ++stats_.loads;
        break;
      case Op::LF:
        fregs_[insn.rt] = mem_.readDouble(addr);
        ++stats_.loads;
        break;
      case Op::SW:
      case Op::PSTW:
        mem_.write32(addr, iregs_[insn.rt]);
        ++stats_.stores;
        break;
      case Op::SF:
      case Op::PSTF:
        mem_.writeDouble(addr, fregs_[insn.rt]);
        ++stats_.stores;
        break;
      default:
        panic("issueMemOp: not a memory op");
    }

    if (op.dst.valid()) {
        const Cycle clear = c + op.result_latency;
        if (op.dsts)
            clear_[flatReg(op.dst)] = clear;
        last_activity_ = std::max(last_activity_, clear);
    }

    const int cls = static_cast<int>(FuClass::LoadStore);
    fu_free_[cls][unit] = c + op.issue_latency;
    ++stats_.fu_grants[cls];
    stats_.fu_busy[cls] += op.issue_latency;
    stats_.unit_busy[cls][unit] += op.issue_latency;
}

Cycle
BaselineProcessor::nextIssueEventCycle(Cycle c) const
{
    // Only registers the frozen window names can flip a comparison.
    std::uint64_t regs = 0;
    for (const WindowEntry &e : window_)
        regs |= e.op->srcs | e.op->dsts;
    Cycle ev = kNeverCycle;
    for (; regs != 0; regs &= regs - 1) {
        const Cycle v = clear_[std::countr_zero(regs)];
        if (v >= c && v != kNeverCycle)
            ev = std::min(ev, v + 1);
    }
    for (const auto &units : fu_free_) {
        for (Cycle f : units) {
            if (f > c)
                ev = std::min(ev, f);
        }
    }
    return ev;
}

Addr
BaselineProcessor::resolveBranch(const Insn &insn, Addr pc, Cycle c)
{
    const std::uint32_t a = iregs_[insn.rs];
    const std::uint32_t b = iregs_[insn.rt];
    Addr next = pc + kInsnBytes;

    switch (insn.op) {
      case Op::J:
        next = (pc & 0xf0000000u) |
               (static_cast<std::uint32_t>(insn.imm) << 2);
        break;
      case Op::JAL:
        iregs_[31] = pc + kInsnBytes;
        clear_[31] = c;
        next = (pc & 0xf0000000u) |
               (static_cast<std::uint32_t>(insn.imm) << 2);
        break;
      case Op::JR:
        next = a;
        break;
      case Op::JALR:
        if (insn.rd != 0) {
            iregs_[insn.rd] = pc + kInsnBytes;
            clear_[insn.rd] = c;
        }
        next = a;
        break;
      default:
        if (evalBranch(insn.op, a, b))
            next = pc + kInsnBytes + static_cast<Addr>(insn.imm * 4);
        break;
    }
    ++stats_.branches;
    return next;
}

void
BaselineProcessor::refillWindow()
{
    while (static_cast<int>(window_.size()) < cfg_.width &&
           fetch_pc_ < prog_.textEnd()) {
        WindowEntry e;
        e.pc = fetch_pc_;
        e.op = &text_.op(fetch_pc_);
        fetch_pc_ += kInsnBytes;
        window_.push_back(e);
    }
}

RunStats
BaselineProcessor::run()
{
    if (sink_)
        emitStreamPrologue();
    for (Cycle c = 1; running_; ++c) {
        if (c > cfg_.max_cycles) {
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
            return stats_;
        }
        if (c < stall_until_) {
            // Branch-gap bubble: these iterations do literally
            // nothing, so the jump is trivially cycle-exact.
            if (cfg_.fast_forward)
                c = stall_until_ - 1;
            continue;
        }
        refillWindow();

        int issues = 0;
        bool mem_blocked = false;
        bool flushed = false;
        std::uint64_t pending_reads = 0, pending_writes = 0;
        // Issued entries leave the window; the rest are compacted
        // in order as the scan goes.
        const std::size_t n = window_.size();
        std::size_t keep = 0;
        std::size_t i = 0;

        for (; i < n && issues < cfg_.width; ++i) {
            const WindowEntry entry = window_[i];
            const CoreOp &op = *entry.op;
            const Insn &insn = op.insn;
            const bool front =
                pending_reads == 0 && pending_writes == 0 &&
                !mem_blocked;

            // Control instructions resolve in order, at the front
            // of the window only.
            if (op.control) {
                if (!front)
                    break;
                if (op.branch) {
                    if (!srcsReady(op, c, 0))
                        break;
                    const Addr target =
                        resolveBranch(insn, entry.pc, c);
                    ++stats_.instructions;
                    ++issues;
                    if (sink_) {
                        emitSimple(obs::EventKind::Issue, c,
                                   entry.pc, insn);
                    }
                    // Predict-not-taken: the sequential stream
                    // continues for free; a taken branch flushes
                    // and pays the 4-cycle gap.
                    if (target == entry.pc + kInsnBytes)
                        continue;
                    if (sink_) {
                        emitSimple(obs::EventKind::Branch, c,
                                   entry.pc, insn, target);
                    }
                    window_.clear();
                    fetch_pc_ = target;
                    stall_until_ =
                        c + static_cast<Cycle>(cfg_.branch_gap);
                    flushed = true;
                    break;
                }
                // Thread-control op.
                if (insn.op == Op::HALT) {
                    ++stats_.instructions;
                    running_ = false;
                    stats_.cycles = std::max(c, last_activity_);
                    stats_.finished = true;
                    if (sink_) {
                        emitSimple(obs::EventKind::Issue, c,
                                   entry.pc, insn);
                        emitSimple(obs::EventKind::Halt, c,
                                   entry.pc, insn);
                    }
                    break;
                }
                if ((insn.op == Op::TID || insn.op == Op::NSLOT) &&
                    op.dsts) {
                    Cycle &clear = clear_[flatReg(op.dst)];
                    if (clear >= c)
                        break;
                    iregs_[op.dst.idx] = insn.op == Op::NSLOT ? 1 : 0;
                    clear = c;
                }
                // FASTFORK/CHGPRI/KILLT/QEN/QDIS/SETRMODE/NOP are
                // no-ops on the sequential machine.
                ++stats_.instructions;
                ++issues;
                if (sink_) {
                    emitSimple(obs::EventKind::Issue, c, entry.pc,
                               insn);
                }
                continue;
            }

            // Data / memory instruction.
            bool issuable =
                srcsReady(op, c, pending_writes) &&
                !(op.dsts & (pending_reads | pending_writes)) &&
                !(op.dsts && clear_[flatReg(op.dst)] >= c) &&
                !(op.mem && mem_blocked);

            int unit = -1;
            if (issuable) {
                unit = freeUnit(op.fu, c);
                issuable = unit >= 0;
            }

            if (issuable) {
                if (op.mem)
                    issueMemOp(op, c, unit);
                else
                    issueDataOp(op, c, unit);
                ++stats_.instructions;
                ++issues;
                if (sink_) {
                    obs::Event ev;
                    ev.cycle = c;
                    ev.kind = obs::EventKind::Grant;
                    ev.slot = 0;
                    ev.fu = static_cast<std::int8_t>(op.fu);
                    ev.unit = static_cast<std::int16_t>(unit);
                    ev.pc = entry.pc;
                    ev.insn = encode(insn);
                    sink_->event(ev);
                }
            } else {
                // Entry stays; record its hazards for later entries.
                pending_reads |= op.srcs;
                pending_writes |= op.dsts;
                mem_blocked |= op.mem;
                window_[keep++] = entry;
            }
        }

        if (!flushed && running_) {
            // Keep unissued entries (and the unexamined tail) in
            // order.
            for (; i < n; ++i)
                window_[keep++] = window_[i];
            window_.resize(keep);
        }

        if (cfg_.fast_forward && running_ && !flushed && issues == 0) {
            // Nothing issued and nothing flushed: the window and all
            // hazard state are frozen, and every blocking comparison
            // (clear_ >= c, fu_free <= c) is monotonic in c,
            // so the cycles up to the earliest flip point replay this
            // one exactly. An exhausted window never issues again:
            // jump straight to the budget, matching the naive spin.
            const Cycle next = nextIssueEventCycle(c);
            if (next > c + 1)
                c = std::min(next, cfg_.max_cycles + 1) - 1;
        }
    }

    if (sink_) {
        obs::Event ev;
        ev.cycle = stats_.cycles;
        ev.kind = obs::EventKind::RunEnd;
        ev.a = stats_.instructions;
        sink_->event(ev);
        sink_->flush();
    }
    return stats_;
}

} // namespace smtsim
