/**
 * @file
 * Test-side walker over an SMTCKPT1 blob: finds the byte offsets of
 * the fields the format and hostile-input tests inspect or doctor,
 * by following the layout docs/OBSERVABILITY.md documents. It reads
 * counts only; it never interprets the state.
 */

#ifndef SMTSIM_TESTS_CKPT_LAYOUT_HH
#define SMTSIM_TESTS_CKPT_LAYOUT_HH

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "asmr/assembler.hh"
#include "core/processor.hh"

namespace smtsim::test
{

/** Offsets into one SMTCKPT1 blob. */
struct CkptLayout
{
    /** Each slot's i32 frame. */
    std::vector<std::size_t> slot_frames;
    /** Each in-flight FetchOp's i32 slot. */
    std::vector<std::size_t> fetch_slots;
    /** Schedule unit 0's u32 unit count. */
    std::size_t sched_units = 0;
    /** Each occupied standby station's IssuedOp, then each
     *  incoming one (the op starts with its u16 opcode). */
    std::vector<std::size_t> standby_ops;
    std::vector<std::size_t> incoming_ops;
    /** The queue ring's u32 link count. */
    std::size_t queue_links = 0;
    /** Each pending push's i32 slot. */
    std::vector<std::size_t> push_slots;
    /** Each priority-ring entry (i32 slot). */
    std::vector<std::size_t> ring;
    /** Each ready-FIFO entry (i32 frame). */
    std::vector<std::size_t> ready_frames;
};

/** Byte size of one serialized IssuedOp. */
constexpr std::size_t kIssuedOpBytes = 9 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 1;
/** Offset of an IssuedOp's i32 slot, past its Insn and pc. */
constexpr std::size_t kIssuedOpSlot = 9 + 4;

inline CkptLayout
walkCheckpoint(const std::string &blob)
{
    std::size_t pos = 0;
    auto skip = [&](std::size_t n) {
        if (n > blob.size() - pos)
            throw std::runtime_error("walk: truncated checkpoint");
        pos += n;
    };
    auto u32 = [&]() {
        const std::size_t at = pos;
        skip(4);
        std::uint32_t v = 0;
        for (int i = 3; i >= 0; --i)
            v = (v << 8) | static_cast<unsigned char>(blob[at + i]);
        return v;
    };
    auto u8 = [&]() {
        const std::size_t at = pos;
        skip(1);
        return static_cast<unsigned char>(blob[at]);
    };

    CkptLayout l;
    skip(8 + 4 + 8 + 8);    // magic, version, fingerprint, now
    for (std::uint32_t n = u32(); n > 0; --n) {     // contexts
        skip(1 + 4 + 32 * 4 + 32 * 8 + 4 * 2);
        skip(13 * std::size_t{u32()});              // replay
        skip(8 + 1 + 4 + 8);
    }
    for (std::uint32_t n = u32(); n > 0; --n) {     // slots
        l.slot_frames.push_back(pos);
        skip(4 + 1);
        skip(4 * std::size_t{u32()});               // iqueue
        skip(4);
        skip(14 * std::size_t{u32()});              // window
        skip(8 + 64 * 8 + 64 * 12);
    }
    for (std::uint32_t n = u32(); n > 0; --n) {     // fetch ports
        skip(8);
        for (std::uint32_t k = u32(); k > 0; --k) {
            l.fetch_slots.push_back(pos);
            skip(4 + 4 + 4 + 1 + 8);
        }
        skip(4);
    }
    const std::uint32_t nsched = u32();
    l.sched_units = pos;
    for (std::uint32_t n = nsched; n > 0; --n) {
        skip(8 * std::size_t{u32()});               // unit free times
        for (std::uint32_t s = u32(); s > 0; --s) {
            if (u8() != 0) {
                l.standby_ops.push_back(pos);
                skip(kIssuedOpBytes);
            }
        }
        for (std::uint32_t k = u32(); k > 0; --k) {
            l.incoming_ops.push_back(pos);
            skip(kIssuedOpBytes);
        }
    }
    l.queue_links = pos;
    for (std::uint32_t n = u32(); n > 0; --n)
        skip(8 * std::size_t{u32()});
    for (std::uint32_t n = u32(); n > 0; --n) {     // pending pushes
        skip(8);
        l.push_slots.push_back(pos);
        skip(4 + 8);
    }
    for (std::uint32_t n = u32(); n > 0; --n) {     // priority ring
        l.ring.push_back(pos);
        skip(4);
    }
    skip(1 + 1 + 4 + 8 + 1);
    for (std::uint32_t n = u32(); n > 0; --n) {     // ready FIFO
        l.ready_frames.push_back(pos);
        skip(4);
    }
    return l;
}

/** Four threads passing values around the queue-register ring
 *  while contending for the one FP multiplier. */
inline Program
queueTrafficProgram()
{
    return assemble(R"(
main:   qenf f20, f21
        fastfork
        addi r2, r0, 20
loop:   fmul f21, f1, f1        # push: pending until write-back
        fmul f3, f1, f1         # three more contend for the one
        fmul f5, f1, f1         # multiplier: losers park in
        fmul f6, f1, f1         # their standby stations
        b    next               # taken: a fetch goes in flight
        nop
next:   fadd f4, f20, f4        # pop the predecessor's value
        addi r2, r2, -1
        bgtz r2, loop
        halt
)");
}

/**
 * SMTCKPT1 of @p prog under @p cfg at the first cycle at which a
 * standby station is occupied, a fetch is in flight and a queue push
 * is pending, so every variable-length part is non-empty; @p at
 * receives the cycle. Empty when no cycle up to 5000 qualifies.
 */
inline std::string
checkpointMidTraffic(const Program &prog, const CoreConfig &cfg,
                     Cycle *at)
{
    MainMemory mem;
    prog.loadInto(mem);
    MultithreadedProcessor cpu(prog, mem, cfg);
    for (*at = 1; !cpu.finished() && *at <= 5000; ++*at) {
        cpu.runUntil(*at);
        std::ostringstream os;
        cpu.saveCheckpoint(os);
        const CkptLayout l = walkCheckpoint(os.str());
        if (!l.standby_ops.empty() && !l.fetch_slots.empty() &&
            !l.push_slots.empty())
            return os.str();
    }
    return {};
}

/** Overwrite the little-endian u32 at @p at. */
inline void
pokeU32(std::string &blob, std::size_t at, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        blob.at(at + i) = static_cast<char>(v >> (8 * i));
}

} // namespace smtsim::test

#endif // SMTSIM_TESTS_CKPT_LAYOUT_HH
