/**
 * @file
 * Full machine checkpoints for the multithreaded core: every piece
 * of state that run()/runUntil() reads — contexts, thread slots,
 * fetch ports, schedule units + standby stations, the queue-register
 * ring, caches, statistics and the backing memory image — is
 * serialized so a restored processor continues bit-identically (the
 * determinism tests compare final statistics, registers and memory
 * against an unsnapshotted run).
 *
 * One transfer function writes and reads the format, so the byte
 * layout is its field order (docs/OBSERVABILITY.md). Only primary
 * state is written: restore rebuilds the derived fields (slot class
 * masks, queue link reservations, the slot masks, the open-frame
 * count and each event source's next event)
 * and then requires checkInvariants() to pass. Restore also checks every
 * field the run loop indexes with: slots, frames, the priority ring
 * and every in-flight instruction must be ones this program and
 * configuration could have produced. Bump kCheckpointVersion on any
 * layout change.
 */

#include <bit>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/hash.hh"
#include "base/serial.hh"
#include "core/processor.hh"

namespace smtsim
{

namespace
{

/** "SMTCKPT1" read as a little-endian u64. */
constexpr std::uint64_t kCheckpointMagic = 0x3154504b43544d53ull;
constexpr std::uint32_t kCheckpointVersion = 2;

/**
 * The memory image, as pages keyed by byte base address: sorted, so
 * identical states serialize to identical bytes (the page table
 * iterates in unordered_map order). A reader takes whole, aligned
 * pages only.
 */
template <class Ar>
void
transferMemory(Ar &ar, MainMemory &mem)
{
    std::map<Addr, MainMemory::Page> pages;
    if constexpr (!Ar::kLoading) {
        for (const auto &[index, page] : mem.pages())
            pages.emplace(index * MainMemory::kPageBytes, page);
    }
    ar("pages", pages);
    if constexpr (Ar::kLoading) {
        mem.reset();
        for (const auto &[base, bytes] : pages) {
            ar.check(base % MainMemory::kPageBytes == 0 &&
                         bytes.size() == MainMemory::kPageBytes,
                     "bad memory page");
            mem.loadBytes(base, bytes);
        }
    }
}

} // namespace

std::uint64_t
MultithreadedProcessor::checkpointFingerprint() const
{
    Fnv1a h;
    auto add = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            const unsigned char byte =
                static_cast<unsigned char>(v >> (8 * i));
            h.add(&byte, 1);
        }
    };
    h.add("smtsim-ckpt-fp-v1");

    // Program image: a checkpoint is only meaningful against the
    // exact text/data it was taken from.
    add(prog_.text_base);
    add(prog_.text.size());
    for (std::uint32_t word : prog_.text)
        add(word);
    add(prog_.data_base);
    add(prog_.data.size());
    if (!prog_.data.empty())
        h.add(prog_.data.data(), prog_.data.size());
    add(prog_.entry);

    // Every configuration field that shapes the machine state or
    // its timing (max_cycles and fast_forward are excluded: both
    // are bit-identical knobs of the same trajectory).
    add(static_cast<std::uint64_t>(cfg_.num_slots));
    add(static_cast<std::uint64_t>(cfg_.frames()));
    add(static_cast<std::uint64_t>(cfg_.width));
    add(static_cast<std::uint64_t>(cfg_.fus.int_alu));
    add(static_cast<std::uint64_t>(cfg_.fus.shifter));
    add(static_cast<std::uint64_t>(cfg_.fus.int_mul));
    add(static_cast<std::uint64_t>(cfg_.fus.fp_add));
    add(static_cast<std::uint64_t>(cfg_.fus.fp_mul));
    add(static_cast<std::uint64_t>(cfg_.fus.fp_div));
    add(static_cast<std::uint64_t>(cfg_.fus.load_store));
    add(cfg_.standby_enabled ? 1 : 0);
    add(static_cast<std::uint64_t>(cfg_.rotation_mode));
    add(static_cast<std::uint64_t>(cfg_.rotation_interval));
    add(cfg_.private_icache ? 1 : 0);
    add(static_cast<std::uint64_t>(cfg_.icache_cycles));
    add(static_cast<std::uint64_t>(cfg_.iqueueWords()));
    add(static_cast<std::uint64_t>(cfg_.queue_reg_depth));
    add(static_cast<std::uint64_t>(cfg_.branch_gap));
    add(static_cast<std::uint64_t>(cfg_.context_switch_cycles));
    add(cfg_.remote.base);
    add(cfg_.remote.size);
    add(cfg_.remote.latency);
    for (const CacheConfig *cc : {&cfg_.dcache, &cfg_.icache}) {
        add(cc->size_bytes);
        add(cc->line_bytes);
        add(static_cast<std::uint64_t>(cc->ways));
        add(cc->miss_penalty);
    }
    return h.digest();
}

template <class Ar, class Self>
void
MultithreadedProcessor::transfer(Ar &ar, Self &cpu)
{
    const int nslots = cpu.cfg_.num_slots;
    const int nframes = cpu.cfg_.frames();
    // An op in flight must be the program's own instruction at its
    // pc; restore points the entry at the predecoded op.
    auto textOp = [&](const Insn &insn, Addr pc) {
        const CoreOp *op = cpu.text_.find(pc);
        ar.check(op != nullptr && op->insn == insn,
                 "instruction does not match the program text");
        return op;
    };
    // A queue mapping travels as an optional register: one file's
    // half of the context's mask (flatReg() bits from @p first).
    auto queueReg = [&](const char *name, auto &mask, int first) {
        const std::uint64_t half = (mask >> first) & 0xffffffffu;
        std::optional<RegIndex> reg;
        if (half != 0)
            reg = static_cast<RegIndex>(std::countr_zero(half));
        ar(name, reg);
        if constexpr (Ar::kLoading) {
            ar.check(!reg || (*reg < kNumRegs && (first > 0 || *reg > 0)),
                     "bad queue-register mapping");
            mask = (mask & ~(std::uint64_t{0xffffffffu} << first)) |
                   (reg ? std::uint64_t{1} << (*reg + first) : 0);
        }
    };

    ar.expect(kCheckpointMagic, "checkpoint magic");
    ar.expect(kCheckpointVersion, "checkpoint version");
    ar.expect(cpu.checkpointFingerprint(),
              "checkpoint fingerprint (program/config mismatch)");
    ar("now", cpu.now_);    // in the header: readable without parsing

    ar.shape("context-frame", cpu.contexts_, [&](auto &ctx) {
        ar("state", wire<std::uint8_t>(ctx.state, CtxState::Finished));
        ar("resume_pc", ctx.resume_pc);
        ar("iregs", ctx.iregs);
        ar("fregs", ctx.fregs);
        queueReg("q_read_int", ctx.q_reads, 0);
        queueReg("q_write_int", ctx.q_writes, 0);
        queueReg("q_read_fp", ctx.q_reads, kNumRegs);
        queueReg("q_write_fp", ctx.q_writes, kNumRegs);
        ar.list("replay", ctx.replay, [&](auto &e) {
            ar("insn", e.insn);
            ar("pc", e.pc);
            if constexpr (Ar::kLoading)
                textOp(e.insn, e.pc);
        });
        ar("ready_at", ctx.ready_at);
        ar("satisfied_addr", ctx.satisfied_addr);
        ar("insns", ctx.insns);
    });

    ar.shape("thread-slot", cpu.slots_, [&](auto &slot) {
        ar("frame", slot.frame);
        ar.check(slot.frame >= -1 && slot.frame < nframes,
                 "slot frame out of range");
        ar("trap_pending", slot.trap_pending);
        ar("iqueue", slot.iqueue);
        ar("fetch_addr", slot.fetch_addr);
        ar.list("window", slot.window, [&](auto &e) {
            Insn insn = e.op != nullptr ? e.op->insn : Insn{};
            ar("insn", insn);
            ar("pc", e.pc);
            if constexpr (Ar::kLoading)
                e.op = textOp(insn, e.pc);
            ar("replay", e.replay);
        });
        ar("d2_allowed", slot.d2_allowed);
        // Integer then FP scoreboard, the flat array's own order.
        ar("sb", slot.sb);
        ar("wb_ring", slot.wb_ring);
    });
    // Sleeping is not state: a restored slot simply makes its next
    // decode attempt, which the restored counters already account
    // up to.
    if constexpr (Ar::kLoading) {
        cpu.asleep_ = 0;
        cpu.wake_next_ = kNeverCycle;
    }

    ar.shape("fetch-port", cpu.ports_, [&](auto &port) {
        ar("free_at", port.free_at);
        ar.list("fetch op", port.inflight, [&](auto &op) {
            ar("slot", op.slot);
            ar.check(op.slot >= 0 && op.slot < nslots,
                     "fetch slot out of range");
            ar("addr", op.addr);
            ar("words", op.words);
            ar("redirect", op.redirect);
            ar("done_at", op.done_at);
        });
        ar("rr_next", port.rr_next);
        ar.check(port.rr_next >= 0 && port.rr_next < nslots,
                 "bad fetch round-robin pointer");
    });

    ar.shape("schedule-unit", cpu.sched_units_, [&](auto &su) {
        ScheduleUnit::transfer(ar, su, cpu.text_);
    });
    QueueRing::transfer(ar, cpu.ring_regs_);
    ar.list("pending push", cpu.pending_pushes_, [&](auto &push) {
        ar("at", push.at);
        ar("slot", push.slot);
        ar.check(push.slot >= 0 && push.slot < nslots,
                 "pending push slot out of range");
        ar("value", push.value);
    });

    // The ring as its slot list, highest priority first; every
    // rotation keeps it a rotation of the slots, so a reader takes
    // its first slot as the offset.
    std::vector<int> ring(static_cast<std::size_t>(nslots));
    for (int i = 0; i < nslots; ++i)
        ring[i] = (cpu.ring_top_ + i) % nslots;
    std::vector<bool> ranked(static_cast<std::size_t>(nslots));
    int place = 0;
    ar.shape("priority-ring", ring, [&](auto &s) {
        ar("slot", s);
        ar.check(s >= 0 && s < nslots && !ranked[s],
                 "priority ring is not a permutation of the slots");
        ranked[s] = true;
        ar.check(s == (ring[0] + place++) % nslots,
                 "priority ring is not a rotation of the slots");
    });
    if constexpr (Ar::kLoading)
        cpu.ring_top_ = ring[0];
    ar("rotate_requested", cpu.rotate_requested_);
    // SETRMODE mutates the rotation mode/interval at runtime, so
    // the live values are state, not configuration.
    ar("rotation_mode",
       wire<std::uint8_t>(cpu.rotation_mode_, RotationMode::Explicit));
    ar("rotation_interval", cpu.rotation_interval_);
    ar("last_activity", cpu.last_activity_);
    ar("finished", cpu.finished_);
    ar.list("ready frame", cpu.ready_fifo_, [&](auto &frame) {
        ar("frame", frame);
        ar.check(frame >= 0 && frame < nframes,
                 "ready frame out of range");
    });

    ar("stats", cpu.stats_);
    if constexpr (Ar::kLoading) {
        // Zero the existing counters, then apply the saved values
        // through counter(): reset() would invalidate the
        // stall-counter pointers resolved at construction, and the
        // checkpoint may lack counters never bumped so far.
        std::map<std::string, std::uint64_t, std::less<>> saved;
        ar("detail", saved);
        for (const auto &[name, value] : cpu.detail_.all())
            cpu.detail_.counter(name) = 0;
        for (const auto &[name, value] : saved)
            cpu.detail_.counter(name) = value;
    } else {
        ar("detail", cpu.detail_.all());
    }

    auto cache = [&](const char *name, auto &c) {
        bool present = c.has_value();
        ar(name, present);
        ar.check(present == c.has_value(), "cache presence mismatch");
        if (c.has_value())
            ar(name, *c);
    };
    cache("dcache", cpu.dcache_);
    cache("icache", cpu.icache_);
    transferMemory(ar, cpu.mem_);
}

void
MultithreadedProcessor::saveCheckpoint(std::ostream &os) const
{
    SaveArchive ar(os);
    transfer(ar, *this);
    os.flush();
    if (!ar.ok())
        throw std::runtime_error("checkpoint: write failed");
}

void
MultithreadedProcessor::restoreCheckpoint(std::istream &is)
{
    LoadArchive ar(is, "checkpoint");
    transfer(ar, *this);
    rebuildDerived();
    if (const std::string why = checkInvariants(); !why.empty())
        throw std::runtime_error("checkpoint: " + why);
    // An attached event stream must be self-contained from here on.
    snapshot_pending_ = sink_ != nullptr;
}

} // namespace smtsim
