/**
 * @file
 * An assembled program image: text, data, entry point, symbols.
 */

#ifndef SMTSIM_ASMR_PROGRAM_HH
#define SMTSIM_ASMR_PROGRAM_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "base/types.hh"
#include "isa/insn.hh"

namespace smtsim
{

class MainMemory;

/** Default segment placement used by the assembler. */
constexpr Addr kDefaultTextBase = 0x00001000;
constexpr Addr kDefaultDataBase = 0x00100000;

/**
 * Source position of an assembled instruction. line is 1-based
 * (0 = unknown, e.g. a programmatically built Program); col is the
 * 1-based column of the statement's mnemonic.
 */
struct SrcLoc
{
    std::uint32_t line = 0;
    std::uint32_t col = 0;

    bool valid() const { return line != 0; }
    bool operator==(const SrcLoc &other) const = default;
};

/**
 * A fully linked program image produced by the assembler (or built
 * programmatically by the schedulers).
 */
struct Program
{
    Addr text_base = kDefaultTextBase;
    std::vector<std::uint32_t> text;

    Addr data_base = kDefaultDataBase;
    std::vector<std::uint8_t> data;

    /** First instruction executed ("main" label if present). */
    Addr entry = kDefaultTextBase;

    /** Label name -> address. */
    std::map<std::string, Addr> symbols;

    /**
     * Per-text-word source positions, parallel to @c text. Filled by
     * the assembler; empty for programmatically built or
     * deserialized images (diagnostics then fall back to the pc).
     */
    std::vector<SrcLoc> text_locs;

    /** Source position of the instruction at @p addr ({0,0} when
     *  unknown or out of range). */
    SrcLoc locAt(Addr addr) const;

    /** Address of a required symbol; throws FatalError if missing. */
    Addr symbol(const std::string &name) const;

    /** Copy text and data into @p mem. */
    void loadInto(MainMemory &mem) const;

    /** Address one past the last text word. */
    Addr
    textEnd() const
    {
        return text_base +
               static_cast<Addr>(text.size()) * kInsnBytes;
    }

    /** Decode the text word holding @p addr. */
    Insn insnAt(Addr addr) const;

    /** Bounds/alignment check shared with PredecodedText. */
    bool
    holdsInsn(Addr addr) const
    {
        return addr >= text_base && addr < textEnd() &&
               (addr - text_base) % kInsnBytes == 0;
    }

    /**
     * Serialize to / deserialize from a simple binary object
     * format (magic "STMP"), preserving segments, the entry point
     * and the symbol table. load() throws FatalError on corrupt
     * input.
     */
    void save(std::ostream &os) const;
    static Program load(std::istream &is);
};

/** Bit of register @p ref in a 64-bit mask over both register
 *  files: integer registers 0-31, FP registers 32-63. */
inline int
flatReg(RegRef ref)
{
    return ref.idx + (ref.file == RF::Fp ? kNumRegs : 0);
}

/**
 * Everything the pipeline models ask of one static instruction,
 * derived once when the text segment is decoded (the per-opcode
 * attribute-table idea, per instruction). The timing models' issue
 * checks read these fields instead of re-deriving Insn::srcs()/dst()
 * on every attempt.
 */
struct CoreOp
{
    Insn insn;
    /** Source registers as flatReg() bits; integer r0 (hardwired
     *  zero) never appears. */
    std::uint64_t srcs = 0;
    /** Destination register as a flatReg() bit; 0 for none or r0. */
    std::uint64_t dsts = 0;
    /** Destination register (invalid for none; may be r0). */
    RegRef dst;
    /** Sources in Insn::srcs() order with repeats: a queue-mapped
     *  register named twice is popped twice. */
    RegRef src[3];
    std::uint8_t nsrc = 0;
    FuClass fu = FuClass::None;
    std::uint8_t issue_latency = 0;
    std::uint8_t result_latency = 0;
    /** Branch or thread control: executes in the decode unit. */
    bool control = false;
    bool branch = false;
    bool mem = false;
    /** Priority-gated (CHGPRI, KILLT, priority stores). */
    bool priority = false;
    /** Waits until the slot's issued ops are granted (KILLT, HALT,
     *  FASTFORK, CHGPRI). */
    bool drains = false;
};

/** Derive the CoreOp of @p insn. */
CoreOp makeCoreOp(const Insn &insn);

/**
 * Decoded view of a program's text segment.
 *
 * Program::insnAt runs the full decoder on every call, which is
 * fine for cold paths (disassembly, trap re-decode) but far too
 * expensive once per dynamic fetch. Engines build one of these at
 * construction: the whole text segment is decoded exactly once, into
 * one CoreOp per instruction, and the dynamic path becomes a
 * bounds-checked array index. at() and op() keep insnAt's
 * fatal-on-stray-fetch contract bit for bit.
 */
class PredecodedText
{
  public:
    PredecodedText() = default;
    explicit PredecodedText(const Program &prog);

    /** Decoded op at @p addr; fatal outside the text segment (same
     *  contract as Program::insnAt). */
    const CoreOp &
    op(Addr addr) const
    {
        // One unsigned compare covers addr < base_ too (wraps big).
        const Addr off = addr - base_;
        if (off >= size_bytes_ || off % kInsnBytes != 0)
            badFetch(addr);
        return ops_[off / kInsnBytes];
    }

    /** Decoded instruction at @p addr (same contract as op()). */
    const Insn &at(Addr addr) const { return op(addr).insn; }

    /** Op at @p addr, or nullptr outside the text segment (for
     *  readers of untrusted addresses, such as checkpoints). */
    const CoreOp *
    find(Addr addr) const
    {
        const Addr off = addr - base_;
        if (off >= size_bytes_ || off % kInsnBytes != 0)
            return nullptr;
        return &ops_[off / kInsnBytes];
    }

    std::size_t size() const { return ops_.size(); }

  private:
    [[noreturn]] void badFetch(Addr addr) const;

    Addr base_ = 0;
    Addr size_bytes_ = 0;
    std::vector<CoreOp> ops_;
};

} // namespace smtsim

#endif // SMTSIM_ASMR_PROGRAM_HH
