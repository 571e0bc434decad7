/**
 * @file
 * Decoded instruction representation and register-operand queries
 * shared by the assembler, the functional interpreter and both
 * pipeline models.
 */

#ifndef SMTSIM_ISA_INSN_HH
#define SMTSIM_ISA_INSN_HH

#include <cstdint>
#include <string>

#include "base/fields.hh"
#include "base/types.hh"
#include "isa/op.hh"

namespace smtsim
{

/** Which register file an operand lives in. */
enum class RF : std::uint8_t { None, Int, Fp };

/** Reference to one architectural register. */
struct RegRef
{
    RF file = RF::None;
    RegIndex idx = 0;

    bool valid() const { return file != RF::None; }

    bool
    operator==(const RegRef &other) const
    {
        return file == other.file && idx == other.idx;
    }
};

/**
 * A decoded instruction. Field meaning depends on opMeta(op).format;
 * see the Format enum. @c imm holds, depending on format, the
 * sign/zero-extended 16-bit immediate, the shift amount, or the
 * 26-bit jump target (word index).
 */
struct Insn
{
    Op op = Op::NOP;
    RegIndex rd = 0;
    RegIndex rs = 0;
    RegIndex rt = 0;
    std::int32_t imm = 0;

    /** Source registers; returns the count written into @p out[3].
     *  Inline: called per instruction per cycle by every engine. */
    int srcs(RegRef out[3]) const;

    /** Destination register (invalid RegRef if none). Inline, for
     *  the same hot-path reason as srcs(). */
    RegRef dst() const;

    /** Functional-unit class executing this instruction. */
    FuClass fu() const { return opMeta(op).fu; }

    bool isBranch() const { return isBranchOp(op); }
    bool isMem() const { return isMemOp(op); }
    bool isLoad() const { return isLoadOp(op); }
    bool isStore() const { return isStoreOp(op); }
    bool isThreadCtl() const { return isThreadCtlOp(op); }

    bool operator==(const Insn &other) const = default;

    /** Field list (base/fields.hh): checkpoints store the fields,
     *  never encode()'s word, so they do not depend on an
     *  encode/decode round trip. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &s)
    {
        ar("op", wire<std::uint16_t>(s.op, static_cast<Op>(kNumOps - 1)));
        ar("rd", s.rd);
        ar("rs", s.rs);
        ar("rt", s.rt);
        ar("imm", s.imm);
    }
};

inline int
Insn::srcs(RegRef out[3]) const
{
    int n = 0;
    auto add = [&](RF file, RegIndex idx) {
        // r0 is hardwired to zero: never a real dependence.
        if (file == RF::Int && idx == 0)
            return;
        out[n++] = RegRef{file, idx};
    };

    switch (opMeta(op).format) {
      case Format::R3:
        add(RF::Int, rs);
        add(RF::Int, rt);
        break;
      case Format::R2:
        add(RF::Int, rs);
        break;
      case Format::SHI:
      case Format::I:
        add(RF::Int, rs);
        break;
      case Format::LUIF:
        break;
      case Format::FR3:
        add(RF::Fp, rs);
        add(RF::Fp, rt);
        break;
      case Format::FR2:
        add(RF::Fp, rs);
        break;
      case Format::FCMP:
        add(RF::Fp, rs);
        add(RF::Fp, rt);
        break;
      case Format::ITOFF:
        add(RF::Int, rs);
        break;
      case Format::FTOIF:
        add(RF::Fp, rs);
        break;
      case Format::MEM:
        add(RF::Int, rs);          // address base
        if (isStoreOp(op))
            add(isFpFormatOp(op) ? RF::Fp : RF::Int, rt);
        break;
      case Format::BR2:
        add(RF::Int, rs);
        add(RF::Int, rt);
        break;
      case Format::BR1:
        add(RF::Int, rs);
        break;
      case Format::JRF:
      case Format::JALRF:
        add(RF::Int, rs);
        break;
      case Format::JF:
      case Format::THR0:
      case Format::THR1D:
      case Format::THR2:
      case Format::ROT:
        break;
    }
    return n;
}

inline RegRef
Insn::dst() const
{
    switch (opMeta(op).format) {
      case Format::R3:
      case Format::R2:
      case Format::SHI:
        return {RF::Int, rd};
      case Format::I:
      case Format::LUIF:
        return {RF::Int, rt};
      case Format::FR3:
      case Format::FR2:
        return {RF::Fp, rd};
      case Format::FCMP:
        return {RF::Int, rd};
      case Format::ITOFF:
        return {RF::Fp, rd};
      case Format::FTOIF:
        return {RF::Int, rd};
      case Format::MEM:
        if (isLoadOp(op))
            return {isFpFormatOp(op) ? RF::Fp : RF::Int, rt};
        return {};
      case Format::JF:
        if (op == Op::JAL)
            return {RF::Int, 31};
        return {};
      case Format::JALRF:
        return {RF::Int, rd};
      case Format::THR1D:
        return {RF::Int, rd};
      default:
        return {};
    }
}

/** Encode @p insn into its 32-bit machine form. */
std::uint32_t encode(const Insn &insn);

/** Decode a 32-bit machine word. Throws FatalError on bad encodings. */
Insn decode(std::uint32_t word);

/** Human-readable disassembly, e.g. "addi r1, r2, 10". */
std::string disassemble(const Insn &insn);

} // namespace smtsim

#endif // SMTSIM_ISA_INSN_HH
