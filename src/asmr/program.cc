#include "program.hh"

#include <istream>
#include <ostream>

#include "base/logging.hh"
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

template <typename T>
void
put(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
T
get(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!is)
        fatal("program load: truncated input");
    return v;
}

} // namespace

void
Program::save(std::ostream &os) const
{
    put(os, kMagic);
    put(os, kVersion);
    put(os, text_base);
    put(os, static_cast<std::uint32_t>(text.size()));
    for (std::uint32_t word : text)
        put(os, word);
    put(os, data_base);
    put(os, static_cast<std::uint32_t>(data.size()));
    if (!data.empty()) {
        os.write(reinterpret_cast<const char *>(data.data()),
                 static_cast<std::streamsize>(data.size()));
    }
    put(os, entry);
    put(os, static_cast<std::uint32_t>(symbols.size()));
    for (const auto &[name, value] : symbols) {
        put(os, static_cast<std::uint32_t>(name.size()));
        os.write(name.data(),
                 static_cast<std::streamsize>(name.size()));
        put(os, value);
    }
}

Program
Program::load(std::istream &is)
{
    if (get<std::uint32_t>(is) != kMagic)
        fatal("program load: bad magic");
    if (get<std::uint32_t>(is) != kVersion)
        fatal("program load: unsupported version");

    Program prog;
    prog.text_base = get<Addr>(is);
    const std::uint32_t nwords = get<std::uint32_t>(is);
    prog.text.reserve(nwords);
    for (std::uint32_t i = 0; i < nwords; ++i)
        prog.text.push_back(get<std::uint32_t>(is));

    prog.data_base = get<Addr>(is);
    const std::uint32_t nbytes = get<std::uint32_t>(is);
    prog.data.resize(nbytes);
    if (nbytes > 0) {
        is.read(reinterpret_cast<char *>(prog.data.data()),
                nbytes);
        if (!is)
            fatal("program load: truncated data segment");
    }

    prog.entry = get<Addr>(is);
    const std::uint32_t nsyms = get<std::uint32_t>(is);
    for (std::uint32_t i = 0; i < nsyms; ++i) {
        const std::uint32_t len = get<std::uint32_t>(is);
        if (len > 4096)
            fatal("program load: unreasonable symbol length");
        std::string name(len, '\0');
        is.read(name.data(), len);
        if (!is)
            fatal("program load: truncated symbol table");
        prog.symbols[name] = get<Addr>(is);
    }
    return prog;
}

} // namespace smtsim
