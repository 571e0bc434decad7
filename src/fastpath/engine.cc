#include "engine.hh"

#include <bit>
#include <cmath>
#include <utility>

#include "base/logging.hh"
#include "isa/semantics.hh"

// Computed goto is a GNU extension; everything else gets the
// equivalent switch-based dispatch.
#if defined(__GNUC__) || defined(__clang__)
#define SMTSIM_FASTPATH_CGOTO 1
#endif

namespace smtsim::fastpath
{

namespace
{

std::int32_t
asSigned(std::uint32_t v)
{
    return static_cast<std::int32_t>(v);
}

} // namespace

/** Every Op, in exact enum order — the dispatch-table generator.
 *  (A wrong order would misdispatch every program; the fuzzer's
 *  fast-vs-reference differential cells would catch it instantly.) */
#define SMTSIM_FAST_OPS(X)                                           \
    X(ADD) X(SUB) X(AND_) X(OR_) X(XOR_) X(NOR_) X(SLT) X(SLTU)      \
    X(ADDI) X(SLTI) X(ANDI) X(ORI) X(XORI) X(LUI)                    \
    X(SLL) X(SRL) X(SRA) X(SLLV) X(SRLV) X(SRAV)                     \
    X(MUL) X(DIVQ) X(REMQ)                                           \
    X(FADD) X(FSUB) X(FABS) X(FNEG) X(FMOV)                          \
    X(FCMPLT) X(FCMPLE) X(FCMPEQ)                                    \
    X(ITOF) X(FTOI)                                                  \
    X(FMUL)                                                          \
    X(FDIV) X(FSQRT)                                                 \
    X(LW) X(SW) X(LF) X(SF)                                          \
    X(PSTW) X(PSTF)                                                  \
    X(BEQ) X(BNE) X(BLEZ) X(BGTZ) X(BLTZ) X(BGEZ)                    \
    X(J) X(JAL) X(JR) X(JALR)                                        \
    X(NOP) X(HALT)                                                   \
    X(FASTFORK) X(CHGPRI) X(KILLT) X(TID) X(NSLOT)                   \
    X(QEN) X(QENF) X(QDIS)                                           \
    X(SETRMODE)

FastEngine::FastEngine(const Program &prog, MainMemory &mem,
                       const InterpConfig &cfg)
    : prog_(prog), mem_(mem), cfg_(cfg), text_(prog)
{
    SMTSIM_ASSERT(cfg_.num_threads >= 1, "need at least one thread");
    threads_.resize(static_cast<std::size_t>(cfg_.num_threads));
    queues_.resize(static_cast<std::size_t>(cfg_.num_threads));

    threads_[0].state = ThreadState::Running;
    threads_[0].pc = prog_.entry;
    ring_.push_back(0);

    text_base_ = prog_.text_base;
    text_bytes_ =
        static_cast<Addr>(prog_.text.size()) * kInsnBytes;

    // Predecode: resolve per-format fields once so handlers touch
    // no metadata tables at run time.
    ops_.reserve(prog_.text.size());
    for (std::size_t i = 0; i < prog_.text.size(); ++i) {
        const Addr pc =
            text_base_ + static_cast<Addr>(i) * kInsnBytes;
        const Insn &insn = text_.at(pc);
        FastOp fo;
        fo.op = insn.op;
        fo.rd = insn.rd;
        fo.rs = insn.rs;
        fo.rt = insn.rt;
        fo.imm = insn.imm;
        const RegRef d = insn.dst();
        if (d.file == RF::Int)
            fo.dst = d.idx == 0 ? kSinkReg : d.idx;
        switch (insn.op) {
          case Op::ANDI:
          case Op::ORI:
          case Op::XORI:
            fo.uimm = static_cast<std::uint32_t>(insn.imm) & 0xffffu;
            break;
          case Op::LUI:
            fo.uimm = (static_cast<std::uint32_t>(insn.imm) &
                       0xffffu)
                      << 16;
            break;
          case Op::SLL:
          case Op::SRL:
          case Op::SRA:
            fo.uimm = static_cast<std::uint32_t>(insn.imm) & 31u;
            break;
          case Op::J:
          case Op::JAL:
            fo.target =
                (pc & 0xf0000000u) |
                (static_cast<std::uint32_t>(insn.imm) << 2);
            break;
          case Op::BEQ:
          case Op::BNE:
          case Op::BLEZ:
          case Op::BGTZ:
          case Op::BLTZ:
          case Op::BGEZ:
            fo.target =
                pc + kInsnBytes + static_cast<Addr>(insn.imm * 4);
            break;
          default:
            break;
        }
        ops_.push_back(fo);
    }
}

std::uint32_t
FastEngine::intReg(int thread, RegIndex idx) const
{
    return threads_.at(static_cast<std::size_t>(thread)).iregs[idx];
}

double
FastEngine::fpReg(int thread, RegIndex idx) const
{
    return threads_.at(static_cast<std::size_t>(thread)).fregs[idx];
}

bool
FastEngine::hasTopPriority(int tid) const
{
    return !ring_.empty() && ring_.front() == tid;
}

void
FastEngine::rotatePriority()
{
    if (ring_.size() > 1) {
        ring_.push_back(ring_.front());
        ring_.erase(ring_.begin());
    }
}

void
FastEngine::removeFromRing(int tid)
{
    for (auto it = ring_.begin(); it != ring_.end(); ++it) {
        if (*it == tid) {
            ring_.erase(it);
            return;
        }
    }
}

std::deque<std::uint64_t> &
FastEngine::queueFrom(int src)
{
    return queues_[static_cast<std::size_t>(src)];
}

std::deque<std::uint64_t> &
FastEngine::queueInto(int dst)
{
    return queues_[static_cast<std::size_t>(
        (dst + cfg_.num_threads - 1) % cfg_.num_threads)];
}

// ---------------------------------------------------------------
// Queue-aware register access (generic path), plus queue-push trace
// recording.

bool
FastEngine::readInt(Thread &t, int tid, RegIndex idx,
                    std::uint32_t &out)
{
    if (t.q_read_int && *t.q_read_int == idx) {
        auto &q = queueInto(tid);
        if (q.empty())
            return false;
        out = static_cast<std::uint32_t>(q.front());
        q.pop_front();
        return true;
    }
    out = idx == 0 ? 0 : t.iregs[idx];
    return true;
}

bool
FastEngine::readFp(Thread &t, int tid, RegIndex idx, double &out)
{
    if (t.q_read_fp && *t.q_read_fp == idx) {
        auto &q = queueInto(tid);
        if (q.empty())
            return false;
        out = std::bit_cast<double>(q.front());
        q.pop_front();
        return true;
    }
    out = t.fregs[idx];
    return true;
}

bool
FastEngine::writeInt(Thread &t, int tid, Addr pc, RegIndex idx,
                     std::uint32_t value, TraceRecorder *rec)
{
    if (t.q_write_int && *t.q_write_int == idx) {
        auto &q = queueFrom(tid);
        if (static_cast<int>(q.size()) >= cfg_.queue_depth)
            return false;
        q.push_back(value);
        if (rec)
            rec->onQueuePush(tid, pc, value);
        return true;
    }
    if (idx != 0)
        t.iregs[idx] = value;
    return true;
}

bool
FastEngine::writeFp(Thread &t, int tid, Addr pc, RegIndex idx,
                    double value, TraceRecorder *rec)
{
    if (t.q_write_fp && *t.q_write_fp == idx) {
        auto &q = queueFrom(tid);
        if (static_cast<int>(q.size()) >= cfg_.queue_depth)
            return false;
        q.push_back(std::bit_cast<std::uint64_t>(value));
        if (rec)
            rec->onQueuePush(tid, pc,
                             std::bit_cast<std::uint64_t>(value));
        return true;
    }
    t.fregs[idx] = value;
    return true;
}

int
FastEngine::soleRunner() const
{
    int solo = -1;
    for (int tid = 0; tid < cfg_.num_threads; ++tid) {
        if (threads_[static_cast<std::size_t>(tid)].state !=
            ThreadState::Running) {
            continue;
        }
        if (solo >= 0)
            return -1;
        solo = tid;
    }
    if (solo < 0)
        return -1;
    const Thread &t = threads_[static_cast<std::size_t>(solo)];
    if (t.q_read_int || t.q_write_int || t.q_read_fp || t.q_write_fp)
        return -1;
    return solo;
}

// ---------------------------------------------------------------
// The tight loop. Preconditions (checked by soleRunner): @p tid is
// the only running thread and has no queue-register mappings, so
// no instruction can block, priority-gated ops always pass (the
// ring is exactly [tid]), and KILLT/CHGPRI are no-ops. The loop
// exits on HALT, on a FASTFORK that activated siblings, on
// QEN/QENF (mappings from then on), or when the step budget runs
// out; QDIS and a childless FASTFORK stay in the loop.

template <bool Traced>
FastEngine::ChunkExit
FastEngine::runChunk(int tid, std::uint64_t &total,
                     TraceRecorder *rec)
{
    Thread &t = threads_[static_cast<std::size_t>(tid)];
    std::uint32_t *const R = t.iregs.data();
    double *const F = t.fregs.data();
    const FastOp *const ops = ops_.data();

    Addr pc = t.pc;
    std::uint64_t remaining = cfg_.max_steps - total;
    const std::uint64_t budget = remaining;
    ChunkExit exit_reason = ChunkExit::Budget;
    const FastOp *fo = nullptr;

#ifdef SMTSIM_FASTPATH_CGOTO
#define SMTSIM_TABLE_ENTRY(n) &&L_##n,
    static const void *const kTable[] = {
        SMTSIM_FAST_OPS(SMTSIM_TABLE_ENTRY)};
    static_assert(sizeof(kTable) / sizeof(kTable[0]) ==
                  static_cast<std::size_t>(kNumOps));
#define SMTSIM_DISPATCH_OP() goto *kTable[static_cast<int>(fo->op)]
#else
#define SMTSIM_CASE_GOTO(n)                                          \
  case Op::n:                                                        \
    goto L_##n;
#define SMTSIM_DISPATCH_OP()                                         \
    switch (fo->op) {                                                \
        SMTSIM_FAST_OPS(SMTSIM_CASE_GOTO)                            \
      default:                                                       \
        panic("fastpath: bad opcode");                               \
    }
#endif

#define DISPATCH()                                                   \
    do {                                                             \
        if (remaining == 0)                                          \
            goto done;                                               \
        {                                                            \
            const Addr off = pc - text_base_;                        \
            if (off >= text_bytes_ || (off & 3u) != 0)               \
                (void)text_.at(pc); /* throws the standard          \
                                       stray-fetch FatalError */     \
            fo = &ops[off / kInsnBytes];                             \
        }                                                            \
        SMTSIM_DISPATCH_OP();                                        \
    } while (0)

#define NEXT()                                                       \
    do {                                                             \
        pc += kInsnBytes;                                            \
        --remaining;                                                 \
        DISPATCH();                                                  \
    } while (0)

#define NEXT_AT(a)                                                   \
    do {                                                             \
        pc = (a);                                                    \
        --remaining;                                                 \
        DISPATCH();                                                  \
    } while (0)

    DISPATCH();

    // Integer ALU.
L_ADD:
    R[fo->dst] = R[fo->rs] + R[fo->rt];
    NEXT();
L_SUB:
    R[fo->dst] = R[fo->rs] - R[fo->rt];
    NEXT();
L_AND_:
    R[fo->dst] = R[fo->rs] & R[fo->rt];
    NEXT();
L_OR_:
    R[fo->dst] = R[fo->rs] | R[fo->rt];
    NEXT();
L_XOR_:
    R[fo->dst] = R[fo->rs] ^ R[fo->rt];
    NEXT();
L_NOR_:
    R[fo->dst] = ~(R[fo->rs] | R[fo->rt]);
    NEXT();
L_SLT:
    R[fo->dst] =
        asSigned(R[fo->rs]) < asSigned(R[fo->rt]) ? 1u : 0u;
    NEXT();
L_SLTU:
    R[fo->dst] = R[fo->rs] < R[fo->rt] ? 1u : 0u;
    NEXT();
L_ADDI:
    R[fo->dst] =
        R[fo->rs] + static_cast<std::uint32_t>(fo->imm);
    NEXT();
L_SLTI:
    R[fo->dst] = asSigned(R[fo->rs]) < fo->imm ? 1u : 0u;
    NEXT();
L_ANDI:
    R[fo->dst] = R[fo->rs] & fo->uimm;
    NEXT();
L_ORI:
    R[fo->dst] = R[fo->rs] | fo->uimm;
    NEXT();
L_XORI:
    R[fo->dst] = R[fo->rs] ^ fo->uimm;
    NEXT();
L_LUI:
    R[fo->dst] = fo->uimm; // pre-shifted at predecode
    NEXT();

    // Shifter.
L_SLL:
    R[fo->dst] = R[fo->rs] << fo->uimm;
    NEXT();
L_SRL:
    R[fo->dst] = R[fo->rs] >> fo->uimm;
    NEXT();
L_SRA:
    R[fo->dst] = static_cast<std::uint32_t>(
        asSigned(R[fo->rs]) >> fo->uimm);
    NEXT();
L_SLLV:
    R[fo->dst] = R[fo->rs] << (R[fo->rt] & 31u);
    NEXT();
L_SRLV:
    R[fo->dst] = R[fo->rs] >> (R[fo->rt] & 31u);
    NEXT();
L_SRAV:
    R[fo->dst] = static_cast<std::uint32_t>(
        asSigned(R[fo->rs]) >> (R[fo->rt] & 31u));
    NEXT();

    // Multiplier (semantics identical to execIntOp, including the
    // architecturally defined divide-by-zero and overflow cases).
L_MUL:
    R[fo->dst] = static_cast<std::uint32_t>(
        asSigned(R[fo->rs]) * std::int64_t{asSigned(R[fo->rt])});
    NEXT();
L_DIVQ: {
    const std::uint32_t a = R[fo->rs], b = R[fo->rt];
    std::uint32_t r;
    if (b == 0)
        r = 0;
    else if (a == 0x80000000u && b == 0xffffffffu)
        r = 0x80000000u;
    else
        r = static_cast<std::uint32_t>(asSigned(a) / asSigned(b));
    R[fo->dst] = r;
    NEXT();
}
L_REMQ: {
    const std::uint32_t a = R[fo->rs], b = R[fo->rt];
    std::uint32_t r;
    if (b == 0 || (a == 0x80000000u && b == 0xffffffffu))
        r = 0;
    else
        r = static_cast<std::uint32_t>(asSigned(a) % asSigned(b));
    R[fo->dst] = r;
    NEXT();
}

    // FP adder / multiplier / divider.
L_FADD:
    F[fo->rd] = F[fo->rs] + F[fo->rt];
    NEXT();
L_FSUB:
    F[fo->rd] = F[fo->rs] - F[fo->rt];
    NEXT();
L_FABS:
    F[fo->rd] = std::fabs(F[fo->rs]);
    NEXT();
L_FNEG:
    F[fo->rd] = -F[fo->rs];
    NEXT();
L_FMOV:
    F[fo->rd] = F[fo->rs];
    NEXT();
L_FCMPLT:
    R[fo->dst] = F[fo->rs] < F[fo->rt] ? 1u : 0u;
    NEXT();
L_FCMPLE:
    R[fo->dst] = F[fo->rs] <= F[fo->rt] ? 1u : 0u;
    NEXT();
L_FCMPEQ:
    R[fo->dst] = F[fo->rs] == F[fo->rt] ? 1u : 0u;
    NEXT();
L_ITOF:
    F[fo->rd] = static_cast<double>(asSigned(R[fo->rs]));
    NEXT();
L_FTOI: {
    const double a = F[fo->rs];
    std::uint32_t r;
    if (std::isnan(a))
        r = 0;
    else if (a >= 2147483648.0)
        r = 0x7fffffffu;
    else if (a < -2147483648.0)
        r = 0x80000000u;
    else
        r = static_cast<std::uint32_t>(static_cast<std::int32_t>(a));
    R[fo->dst] = r;
    NEXT();
}
L_FMUL:
    F[fo->rd] = F[fo->rs] * F[fo->rt];
    NEXT();
L_FDIV:
    F[fo->rd] = F[fo->rs] / F[fo->rt];
    NEXT();
L_FSQRT:
    F[fo->rd] = std::sqrt(F[fo->rs]);
    NEXT();

    // Load/store. Priority stores need top priority, which the
    // sole running thread always holds.
L_LW: {
    const Addr a = R[fo->rs] + static_cast<std::uint32_t>(fo->imm);
    if constexpr (Traced)
        rec->onMem(tid, pc, a);
    R[fo->dst] = mem_.read32(a);
    NEXT();
}
L_SW:
L_PSTW: {
    const Addr a = R[fo->rs] + static_cast<std::uint32_t>(fo->imm);
    if constexpr (Traced)
        rec->onMem(tid, pc, a);
    mem_.write32(a, R[fo->rt]);
    NEXT();
}
L_LF: {
    const Addr a = R[fo->rs] + static_cast<std::uint32_t>(fo->imm);
    if constexpr (Traced)
        rec->onMem(tid, pc, a);
    F[fo->rt] = mem_.readDouble(a);
    NEXT();
}
L_SF:
L_PSTF: {
    const Addr a = R[fo->rs] + static_cast<std::uint32_t>(fo->imm);
    if constexpr (Traced)
        rec->onMem(tid, pc, a);
    mem_.writeDouble(a, F[fo->rt]);
    NEXT();
}

    // Branches. Conditional and indirect outcomes are recorded
    // (replay needs them); J/JAL targets are static.
L_BEQ: {
    const Addr nxt =
        R[fo->rs] == R[fo->rt] ? fo->target : pc + kInsnBytes;
    if constexpr (Traced)
        rec->onBranch(tid, pc, nxt);
    NEXT_AT(nxt);
}
L_BNE: {
    const Addr nxt =
        R[fo->rs] != R[fo->rt] ? fo->target : pc + kInsnBytes;
    if constexpr (Traced)
        rec->onBranch(tid, pc, nxt);
    NEXT_AT(nxt);
}
L_BLEZ: {
    const Addr nxt =
        asSigned(R[fo->rs]) <= 0 ? fo->target : pc + kInsnBytes;
    if constexpr (Traced)
        rec->onBranch(tid, pc, nxt);
    NEXT_AT(nxt);
}
L_BGTZ: {
    const Addr nxt =
        asSigned(R[fo->rs]) > 0 ? fo->target : pc + kInsnBytes;
    if constexpr (Traced)
        rec->onBranch(tid, pc, nxt);
    NEXT_AT(nxt);
}
L_BLTZ: {
    const Addr nxt =
        asSigned(R[fo->rs]) < 0 ? fo->target : pc + kInsnBytes;
    if constexpr (Traced)
        rec->onBranch(tid, pc, nxt);
    NEXT_AT(nxt);
}
L_BGEZ: {
    const Addr nxt =
        asSigned(R[fo->rs]) >= 0 ? fo->target : pc + kInsnBytes;
    if constexpr (Traced)
        rec->onBranch(tid, pc, nxt);
    NEXT_AT(nxt);
}
L_J:
    NEXT_AT(fo->target);
L_JAL:
    R[31] = pc + kInsnBytes;
    NEXT_AT(fo->target);
L_JR: {
    const Addr nxt = R[fo->rs];
    if constexpr (Traced)
        rec->onBranch(tid, pc, nxt);
    NEXT_AT(nxt);
}
L_JALR: {
    const Addr nxt = R[fo->rs]; // read rs before a same-reg link
    R[fo->dst] = pc + kInsnBytes;
    if constexpr (Traced)
        rec->onBranch(tid, pc, nxt);
    NEXT_AT(nxt);
}

    // Thread control.
L_NOP:
L_SETRMODE:
    NEXT();
L_CHGPRI:  // ring is [tid]: rotation is a no-op
L_KILLT:   // no sibling is running
    NEXT();
L_TID:
    R[fo->dst] = static_cast<std::uint32_t>(tid);
    NEXT();
L_NSLOT:
    R[fo->dst] = static_cast<std::uint32_t>(cfg_.num_threads);
    NEXT();
L_QDIS:
    // No mappings installed (chunk precondition): nothing to clear.
    NEXT();
L_HALT:
    t.state = ThreadState::Halted;
    removeFromRing(tid);
    --remaining;
    exit_reason = ChunkExit::Halted;
    goto done; // pc stays at the HALT, like the generic step
L_FASTFORK: {
    bool forked = false;
    for (int j = 0; j < cfg_.num_threads; ++j) {
        Thread &nj = threads_[static_cast<std::size_t>(j)];
        if (j == tid || nj.state != ThreadState::Inactive)
            continue;
        nj = t; // registers; pc/steps/state overridden below
        nj.state = ThreadState::Running;
        nj.pc = pc + kInsnBytes;
        nj.steps = 0;
        ring_.push_back(j);
        forked = true;
    }
    if (!forked)
        NEXT();
    pc += kInsnBytes;
    --remaining;
    exit_reason = ChunkExit::Forked;
    goto done;
}
L_QEN:
    if (fo->rs == 0 || fo->rt == 0 || fo->rs == fo->rt)
        fatal("qen: bad register pair");
    t.q_read_int = fo->rs;
    t.q_write_int = fo->rt;
    pc += kInsnBytes;
    --remaining;
    exit_reason = ChunkExit::Mapped;
    goto done;
L_QENF:
    if (fo->rs == fo->rt)
        fatal("qenf: read and write register identical");
    t.q_read_fp = fo->rs;
    t.q_write_fp = fo->rt;
    pc += kInsnBytes;
    --remaining;
    exit_reason = ChunkExit::Mapped;
    goto done;

done: {
    const std::uint64_t executed = budget - remaining;
    t.steps += executed;
    total += executed;
    t.pc = pc;
    return exit_reason;
}

#undef NEXT_AT
#undef NEXT
#undef DISPATCH
#undef SMTSIM_DISPATCH_OP
#ifdef SMTSIM_FASTPATH_CGOTO
#undef SMTSIM_TABLE_ENTRY
#else
#undef SMTSIM_CASE_GOTO
#endif
}

// ---------------------------------------------------------------
// Generic path: one architectural step. Multi-thread scheduling,
// queue blocking and every error go through here; the chunk loop
// above must reproduce its effect for the single-runner case.

bool
FastEngine::stepGeneric(int tid, TraceRecorder *rec)
{
    Thread &t = threads_[static_cast<std::size_t>(tid)];
    const Addr insn_pc = t.pc;
    const Insn &insn = text_.at(insn_pc);
    const Op op = insn.op;

    // Blocking pre-checks: an instruction executes completely or
    // not at all, so queue availability is verified before any
    // FIFO is mutated.
    {
        RegRef srcs[3];
        const int n = insn.srcs(srcs);
        int need_from_queue = 0;
        for (int i = 0; i < n; ++i) {
            const bool mapped =
                (srcs[i].file == RF::Int && t.q_read_int &&
                 *t.q_read_int == srcs[i].idx) ||
                (srcs[i].file == RF::Fp && t.q_read_fp &&
                 *t.q_read_fp == srcs[i].idx);
            if (mapped)
                ++need_from_queue;
        }
        if (need_from_queue >
            static_cast<int>(queueInto(tid).size())) {
            return false;
        }
        const RegRef dst = insn.dst();
        const bool dst_mapped =
            (dst.file == RF::Int && t.q_write_int &&
             *t.q_write_int == dst.idx) ||
            (dst.file == RF::Fp && t.q_write_fp &&
             *t.q_write_fp == dst.idx);
        if (dst_mapped && static_cast<int>(queueFrom(tid).size()) >=
                              cfg_.queue_depth) {
            return false;
        }
    }

    if ((op == Op::CHGPRI || op == Op::KILLT ||
         isPriorityStoreOp(op)) &&
        !hasTopPriority(tid)) {
        return false;
    }

    Addr next_pc = t.pc + kInsnBytes;

    if (isThreadCtlOp(op)) {
        switch (op) {
          case Op::NOP:
          case Op::SETRMODE:
            break;
          case Op::HALT:
            t.state = ThreadState::Halted;
            removeFromRing(tid);
            break;
          case Op::FASTFORK:
            for (int j = 0; j < cfg_.num_threads; ++j) {
                Thread &nj = threads_[static_cast<std::size_t>(j)];
                if (j == tid || nj.state != ThreadState::Inactive)
                    continue;
                nj = t;
                nj.state = ThreadState::Running;
                nj.pc = next_pc;
                nj.steps = 0;
                ring_.push_back(j);
            }
            break;
          case Op::CHGPRI:
            rotatePriority();
            break;
          case Op::KILLT:
            for (int j = 0; j < cfg_.num_threads; ++j) {
                if (j != tid &&
                    threads_[static_cast<std::size_t>(j)].state ==
                        ThreadState::Running) {
                    threads_[static_cast<std::size_t>(j)].state =
                        ThreadState::Killed;
                    removeFromRing(j);
                }
            }
            break;
          case Op::TID:
            if (insn.rd != 0)
                t.iregs[insn.rd] = static_cast<std::uint32_t>(tid);
            break;
          case Op::NSLOT:
            if (insn.rd != 0)
                t.iregs[insn.rd] =
                    static_cast<std::uint32_t>(cfg_.num_threads);
            break;
          case Op::QEN:
            if (insn.rs == 0 || insn.rt == 0 || insn.rs == insn.rt)
                fatal("qen: bad register pair");
            t.q_read_int = insn.rs;
            t.q_write_int = insn.rt;
            break;
          case Op::QENF:
            if (insn.rs == insn.rt)
                fatal("qenf: read and write register identical");
            t.q_read_fp = insn.rs;
            t.q_write_fp = insn.rt;
            break;
          case Op::QDIS:
            t.q_read_int.reset();
            t.q_write_int.reset();
            t.q_read_fp.reset();
            t.q_write_fp.reset();
            break;
          default:
            panic("unhandled thread-control op");
        }
    } else if (insn.isBranch()) {
        std::uint32_t a = 0, b = 0;
        if (op != Op::J && op != Op::JAL) {
            if (!readInt(t, tid, insn.rs, a))
                panic("queue precheck missed a branch source");
        }
        if (op == Op::BEQ || op == Op::BNE) {
            if (!readInt(t, tid, insn.rt, b))
                panic("queue precheck missed a branch source");
        }
        switch (op) {
          case Op::J:
            next_pc = (t.pc & 0xf0000000u) |
                      (static_cast<std::uint32_t>(insn.imm) << 2);
            break;
          case Op::JAL:
            t.iregs[31] = t.pc + kInsnBytes;
            next_pc = (t.pc & 0xf0000000u) |
                      (static_cast<std::uint32_t>(insn.imm) << 2);
            break;
          case Op::JR:
            next_pc = a;
            if (rec)
                rec->onBranch(tid, insn_pc, next_pc);
            break;
          case Op::JALR:
            if (insn.rd != 0)
                t.iregs[insn.rd] = t.pc + kInsnBytes;
            next_pc = a;
            if (rec)
                rec->onBranch(tid, insn_pc, next_pc);
            break;
          default:
            if (evalBranch(op, a, b)) {
                next_pc = t.pc + kInsnBytes +
                          static_cast<Addr>(insn.imm * 4);
            }
            if (rec)
                rec->onBranch(tid, insn_pc, next_pc);
            break;
        }
    } else if (insn.isMem()) {
        std::uint32_t base = 0;
        if (!readInt(t, tid, insn.rs, base))
            panic("queue precheck missed a base register");
        const Addr addr =
            base + static_cast<std::uint32_t>(insn.imm);
        if (rec)
            rec->onMem(tid, insn_pc, addr);
        switch (op) {
          case Op::LW: {
            if (!writeInt(t, tid, insn_pc, insn.rt,
                          mem_.read32(addr), rec))
                panic("queue precheck missed a load destination");
            break;
          }
          case Op::LF: {
            if (!writeFp(t, tid, insn_pc, insn.rt,
                         mem_.readDouble(addr), rec))
                panic("queue precheck missed a load destination");
            break;
          }
          case Op::SW:
          case Op::PSTW: {
            std::uint32_t v = 0;
            if (!readInt(t, tid, insn.rt, v))
                panic("queue precheck missed a store source");
            mem_.write32(addr, v);
            break;
          }
          case Op::SF:
          case Op::PSTF: {
            double v = 0;
            if (!readFp(t, tid, insn.rt, v))
                panic("queue precheck missed a store source");
            mem_.writeDouble(addr, v);
            break;
          }
          default:
            panic("unhandled memory op");
        }
    } else if (isFpFormatOp(op) || op == Op::FCMPLT ||
               op == Op::FCMPLE || op == Op::FCMPEQ ||
               op == Op::FTOI) {
        switch (opMeta(op).format) {
          case Format::FR3: {
            double a = 0, b = 0;
            if (!readFp(t, tid, insn.rs, a) ||
                !readFp(t, tid, insn.rt, b)) {
                panic("queue precheck missed an FP source");
            }
            if (!writeFp(t, tid, insn_pc, insn.rd,
                         execFpOp(op, a, b), rec))
                panic("queue precheck missed an FP destination");
            break;
          }
          case Format::FR2: {
            double a = 0;
            if (!readFp(t, tid, insn.rs, a))
                panic("queue precheck missed an FP source");
            if (!writeFp(t, tid, insn_pc, insn.rd,
                         execFpOp(op, a, 0.0), rec))
                panic("queue precheck missed an FP destination");
            break;
          }
          case Format::FCMP: {
            double a = 0, b = 0;
            if (!readFp(t, tid, insn.rs, a) ||
                !readFp(t, tid, insn.rt, b)) {
                panic("queue precheck missed an FP source");
            }
            if (!writeInt(t, tid, insn_pc, insn.rd,
                          execFpToIntOp(op, a, b), rec)) {
                panic("queue precheck missed a cmp destination");
            }
            break;
          }
          case Format::ITOFF: {
            std::uint32_t a = 0;
            if (!readInt(t, tid, insn.rs, a))
                panic("queue precheck missed an itof source");
            const double v =
                static_cast<double>(static_cast<std::int32_t>(a));
            if (!writeFp(t, tid, insn_pc, insn.rd, v, rec))
                panic("queue precheck missed an itof destination");
            break;
          }
          case Format::FTOIF: {
            double a = 0;
            if (!readFp(t, tid, insn.rs, a))
                panic("queue precheck missed an ftoi source");
            if (!writeInt(t, tid, insn_pc, insn.rd,
                          execFpToIntOp(op, a, 0.0), rec)) {
                panic("queue precheck missed an ftoi destination");
            }
            break;
          }
          default:
            panic("unhandled FP format");
        }
    } else {
        // Integer ALU / shifter / multiplier.
        std::uint32_t a = 0, b = 0;
        if (!readInt(t, tid, insn.rs, a))
            panic("queue precheck missed an int source");
        const Format fmt = opMeta(op).format;
        if (fmt == Format::R3) {
            if (!readInt(t, tid, insn.rt, b))
                panic("queue precheck missed an int source");
        }
        const std::uint32_t result = execIntOp(insn, a, b);
        const RegRef dst = insn.dst();
        if (!writeInt(t, tid, insn_pc, dst.idx, result, rec))
            panic("queue precheck missed an int destination");
    }

    if (t.state == ThreadState::Running)
        t.pc = next_pc;
    ++t.steps;
    return true;
}

InterpResult
FastEngine::run(TraceRecorder *rec)
{
    return runLoop(rec, true);
}

InterpResult
FastEngine::runReference()
{
    return runLoop(nullptr, false);
}

InterpResult
FastEngine::runLoop(TraceRecorder *rec, bool chunked)
{
    InterpResult result;
    std::uint64_t total = 0;

    while (total < cfg_.max_steps) {
        const int solo = chunked ? soleRunner() : -1;
        if (solo >= 0) {
            const ChunkExit e =
                rec ? runChunk<true>(solo, total, rec)
                    : runChunk<false>(solo, total, rec);
            if (e == ChunkExit::Forked) {
                // The fork happened mid-round: the reference
                // steps the higher-numbered (just-activated)
                // threads once before the next round starts.
                for (int tid = solo + 1;
                     tid < cfg_.num_threads &&
                     total < cfg_.max_steps;
                     ++tid) {
                    if (threads_[static_cast<std::size_t>(tid)]
                            .state != ThreadState::Running)
                        continue;
                    if (stepGeneric(tid, rec))
                        ++total;
                }
            }
            continue;
        }

        bool any_running = false;
        bool progressed = false;
        for (int tid = 0; tid < cfg_.num_threads; ++tid) {
            if (threads_[static_cast<std::size_t>(tid)].state !=
                ThreadState::Running)
                continue;
            any_running = true;
            if (stepGeneric(tid, rec)) {
                progressed = true;
                ++total;
            }
            if (total >= cfg_.max_steps)
                break;
        }
        if (!any_running)
            break;
        if (!progressed)
            fatal("interpreter deadlock: all running threads "
                  "blocked");
    }

    result.completed = true;
    for (const Thread &t : threads_) {
        if (t.state == ThreadState::Running)
            result.completed = false;
        result.per_thread_steps.push_back(t.steps);
    }
    result.steps = total;
    return result;
}

TracedRun
recordTrace(const Program &prog, MainMemory &mem,
            const InterpConfig &cfg)
{
    FastEngine engine(prog, mem, cfg);
    TraceBuilder builder(cfg.num_threads);
    TracedRun out;
    out.result = engine.run(&builder);
    ExecTrace &trace = builder.trace();
    trace.entry = prog.entry;
    for (std::size_t i = 0; i < trace.threads.size(); ++i)
        trace.threads[i].insns = out.result.per_thread_steps[i];
    out.trace = std::move(trace);
    return out;
}

} // namespace smtsim::fastpath
