#include "program.hh"

#include <istream>
#include <ostream>

#include "base/logging.hh"
#include "base/serial.hh"
#include "mem/memory.hh"

namespace smtsim
{

Addr
Program::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        fatal("undefined symbol '", name, "'");
    return it->second;
}

void
Program::loadInto(MainMemory &mem) const
{
    mem.loadWords(text_base, text);
    mem.loadBytes(data_base, data);
}

SrcLoc
Program::locAt(Addr addr) const
{
    if (!holdsInsn(addr))
        return {};
    const std::size_t i = (addr - text_base) / kInsnBytes;
    return i < text_locs.size() ? text_locs[i] : SrcLoc{};
}

Insn
Program::insnAt(Addr addr) const
{
    if (!holdsInsn(addr))
        fatal("instruction fetch outside text segment: ", addr);
    return decode(text[(addr - text_base) / kInsnBytes]);
}

CoreOp
makeCoreOp(const Insn &insn)
{
    CoreOp op;
    op.insn = insn;
    op.nsrc = static_cast<std::uint8_t>(insn.srcs(op.src));
    for (int i = 0; i < op.nsrc; ++i)
        op.srcs |= std::uint64_t{1} << flatReg(op.src[i]);
    op.dst = insn.dst();
    if (op.dst.valid() && !(op.dst.file == RF::Int && op.dst.idx == 0))
        op.dsts = std::uint64_t{1} << flatReg(op.dst);
    const OpMeta &meta = opMeta(insn.op);
    op.fu = meta.fu;
    op.issue_latency = static_cast<std::uint8_t>(meta.issue_latency);
    op.result_latency = static_cast<std::uint8_t>(meta.result_latency);
    op.branch = isBranchOp(insn.op);
    op.control = op.branch || isThreadCtlOp(insn.op);
    op.mem = isMemOp(insn.op);
    op.priority = isPriorityGatedOp(insn.op);
    op.drains = insn.op == Op::KILLT || insn.op == Op::HALT ||
                insn.op == Op::FASTFORK || insn.op == Op::CHGPRI;
    return op;
}

PredecodedText::PredecodedText(const Program &prog)
    : base_(prog.text_base),
      size_bytes_(static_cast<Addr>(prog.text.size()) * kInsnBytes)
{
    ops_.reserve(prog.text.size());
    for (std::uint32_t word : prog.text)
        ops_.push_back(makeCoreOp(decode(word)));
}

void
PredecodedText::badFetch(Addr addr) const
{
    fatal("instruction fetch outside text segment: ", addr);
}

namespace
{

constexpr std::uint32_t kMagic = 0x504d5453;    // "STMP" LE
constexpr std::uint32_t kVersion = 1;

/** The image's one transfer (base/serial.hh): the byte layout is
 *  this field order. Source positions are not stored. */
template <class Ar, class Prog>
void
transfer(Ar &ar, Prog &p)
{
    ar.expect(kMagic, "magic");
    ar.expect(kVersion, "version");
    ar("text_base", p.text_base);
    ar("text", p.text);
    ar("data_base", p.data_base);
    ar("data", p.data);
    ar("entry", p.entry);
    ar("symbols", p.symbols);
}

} // namespace

void
Program::save(std::ostream &os) const
{
    SaveArchive ar(os);
    transfer(ar, *this);
}

Program
Program::load(std::istream &is)
{
    Program prog;
    try {
        LoadArchive ar(is, "program load");
        transfer(ar, prog);
    } catch (const std::runtime_error &e) {
        fatal(e.what());
    }
    return prog;
}

} // namespace smtsim
