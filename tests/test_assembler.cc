#include <sstream>

#include <gtest/gtest.h>

#include "asmr/assembler.hh"
#include "base/logging.hh"
#include "test_common.hh"

using namespace smtsim;

TEST(Assembler, MinimalProgram)
{
    const Program p = assemble("halt\n");
    ASSERT_EQ(p.text.size(), 1u);
    EXPECT_EQ(decode(p.text[0]).op, Op::HALT);
    EXPECT_EQ(p.entry, p.text_base);
}

TEST(Assembler, EntryIsMainLabel)
{
    const Program p = assemble(R"(
        nop
main:   halt
)");
    EXPECT_EQ(p.entry, p.text_base + 4);
}

TEST(Assembler, CommentsAndBlankLines)
{
    const Program p = assemble(R"(
# full-line comment
        nop      # trailing comment
        ; semicolon comment
        halt
)");
    EXPECT_EQ(p.text.size(), 2u);
}

TEST(Assembler, AllFormatsParse)
{
    const Program p = assemble(R"(
        add  r1, r2, r3
        addi r4, r5, -10
        lui  r6, 0x1234
        sll  r7, r8, 5
        mul  r9, r10, r11
        fadd f1, f2, f3
        fabs f4, f5
        fcmplt r12, f6, f7
        itof f8, r13
        ftoi r14, f9
        lw   r15, 8(r16)
        sf   f10, -8(r17)
        pstw r18, 0(r19)
        beq  r20, r21, main
main:   blez r22, main
        j    main
        jal  main
        jr   r31
        jalr r23, r24
        nop
        fastfork
        chgpri
        killt
        tid  r25
        nslot r26
        qen  r27, r28
        qenf f11, f12
        qdis
        setrmode explicit, 8
        setrmode implicit, 16
        halt
)");
    EXPECT_EQ(p.text.size(), 31u);
}

TEST(Assembler, BranchOffsets)
{
    const Program p = assemble(R"(
back:   nop
        beq r0, r0, back
        beq r0, r0, fwd
        nop
fwd:    halt
)");
    // beq at index 1 targets index 0: offset -2.
    const Insn b1 = decode(p.text[1]);
    EXPECT_EQ(b1.imm, -2);
    // beq at index 2 targets index 4: offset +1.
    const Insn b2 = decode(p.text[2]);
    EXPECT_EQ(b2.imm, 1);
}

TEST(Assembler, PseudoLaLiMvB)
{
    const Program p = assemble(R"(
        la  r1, data
        li  r2, 0x12345678
        mv  r3, r4
        b   main
main:   halt
        .data
data:   .word 42
)");
    // la/li are two instructions each.
    ASSERT_EQ(p.text.size(), 7u);
    const Insn lui = decode(p.text[2]);
    EXPECT_EQ(lui.op, Op::LUI);
    EXPECT_EQ(lui.imm, 0x1234);
    const Insn ori = decode(p.text[3]);
    EXPECT_EQ(ori.op, Op::ORI);
    EXPECT_EQ(ori.imm, 0x5678);
    const Insn mv = decode(p.text[4]);
    EXPECT_EQ(mv.op, Op::ADD);
    EXPECT_EQ(mv.rt, 0);
}

TEST(Assembler, DataDirectives)
{
    const Program p = assemble(R"(
        halt
        .data
w:      .word 1, 2, -1
f:      .float 1.5
s:      .space 3
a:      .align 8
end:    .word 0xdead
)");
    MainMemory mem;
    p.loadInto(mem);
    EXPECT_EQ(mem.read32(p.symbol("w")), 1u);
    EXPECT_EQ(mem.read32(p.symbol("w") + 4), 2u);
    EXPECT_EQ(mem.read32(p.symbol("w") + 8), 0xffffffffu);
    EXPECT_DOUBLE_EQ(mem.readDouble(p.symbol("f")), 1.5);
    // A label written before .align binds pre-padding; labels after
    // the directive land on the aligned boundary.
    EXPECT_EQ(p.symbol("end") % 8, 0u);
    EXPECT_GE(p.symbol("end"), p.symbol("a"));
    EXPECT_EQ(mem.read32(p.symbol("end")), 0xdeadu);
}

TEST(Assembler, EquAndExpressions)
{
    const Program p = assemble(R"(
        .equ SIZE, 16
        .equ DOUBLE_SIZE, SIZE+SIZE
        addi r1, r0, SIZE
        addi r2, r0, DOUBLE_SIZE
        addi r3, r0, SIZE-20
        halt
        .data
buf:    .space SIZE
tail:   .word 0
)");
    EXPECT_EQ(decode(p.text[0]).imm, 16);
    EXPECT_EQ(decode(p.text[1]).imm, 32);
    EXPECT_EQ(decode(p.text[2]).imm, -4);
    EXPECT_EQ(p.symbol("tail"), p.symbol("buf") + 16);
}

TEST(Assembler, HiLoOperators)
{
    const Program p = assemble(R"(
        lui r1, %hi(target)
        ori r1, r1, %lo(target)
        halt
        .data
        .space 0x1234
target: .word 1
)");
    const std::uint32_t addr = p.symbol("target");
    EXPECT_EQ(static_cast<std::uint32_t>(decode(p.text[0]).imm),
              addr >> 16);
    EXPECT_EQ(static_cast<std::uint32_t>(decode(p.text[1]).imm),
              addr & 0xffffu);
}

TEST(Assembler, MemOperandForms)
{
    const Program p = assemble(R"(
        lw r1, (r2)
        lw r3, 4(r4)
        lw r5, -4(r6)
        halt
)");
    EXPECT_EQ(decode(p.text[0]).imm, 0);
    EXPECT_EQ(decode(p.text[1]).imm, 4);
    EXPECT_EQ(decode(p.text[2]).imm, -4);
}

TEST(AssemblerErrors, UnknownMnemonic)
{
    EXPECT_THROW(assemble("frobnicate r1\n"), FatalError);
}

TEST(AssemblerErrors, UndefinedSymbol)
{
    EXPECT_THROW(assemble("j nowhere\n"), FatalError);
}

TEST(AssemblerErrors, DuplicateLabel)
{
    EXPECT_THROW(assemble("x: nop\nx: halt\n"), FatalError);
}

TEST(AssemblerErrors, OperandCount)
{
    EXPECT_THROW(assemble("add r1, r2\n"), FatalError);
    EXPECT_THROW(assemble("halt r1\n"), FatalError);
}

TEST(AssemblerErrors, RegisterKind)
{
    // FP op with integer registers.
    EXPECT_THROW(assemble("fadd r1, r2, r3\n"), FatalError);
    EXPECT_THROW(assemble("add f1, f2, f3\n"), FatalError);
    EXPECT_THROW(assemble("add r1, r2, r32\n"), FatalError);
}

TEST(AssemblerErrors, ImmediateRange)
{
    EXPECT_THROW(assemble("addi r1, r0, 70000\n"), FatalError);
    EXPECT_THROW(assemble("sll r1, r2, 32\n"), FatalError);
    EXPECT_THROW(assemble("lui r1, 0x10000\n"), FatalError);
}

TEST(AssemblerErrors, SegmentMisuse)
{
    EXPECT_THROW(assemble(".word 1\n"), FatalError);
    EXPECT_THROW(assemble(".data\nadd r1, r2, r3\n"), FatalError);
}

TEST(AssemblerErrors, MessageIncludesLineNumber)
{
    try {
        assemble("nop\nnop\nbogus\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
}

TEST(Assembler, RoundTripThroughDisassembler)
{
    const Program p = assemble(R"(
        addi r1, r0, 5
        add  r2, r1, r1
        sw   r2, 0(r1)
        halt
)");
    EXPECT_EQ(disassemble(decode(p.text[0])), "addi r1, r0, 5");
    EXPECT_EQ(disassemble(decode(p.text[1])), "add r2, r1, r1");
    EXPECT_EQ(disassemble(decode(p.text[2])), "sw r2, 0(r1)");
    EXPECT_EQ(disassemble(decode(p.text[3])), "halt");
}

TEST(Assembler, CustomBases)
{
    AsmOptions opts;
    opts.text_base = 0x4000;
    opts.data_base = 0x200000;
    const Program p = assemble(R"(
main:   halt
        .data
d:      .word 1
)",
                               opts);
    EXPECT_EQ(p.entry, 0x4000u);
    EXPECT_EQ(p.symbol("d"), 0x200000u);
}

TEST(ProgramTest, InsnAtBoundsChecked)
{
    const Program p = assemble("halt\n");
    EXPECT_EQ(p.insnAt(p.text_base).op, Op::HALT);
    EXPECT_THROW(p.insnAt(p.text_base + 4), FatalError);
    EXPECT_THROW(p.insnAt(p.text_base + 1), FatalError);
    EXPECT_THROW(p.insnAt(0), FatalError);
}

TEST(Assembler, AsciiDirectives)
{
    const Program p = assemble(R"(
        halt
        .data
msg:    .ascii "Hi, \"you\"\n"
zmsg:   .asciiz "end"
tail:   .word 7
)");
    MainMemory mem;
    p.loadInto(mem);
    const Addr msg = p.symbol("msg");
    EXPECT_EQ(mem.read8(msg + 0), 'H');
    EXPECT_EQ(mem.read8(msg + 1), 'i');
    EXPECT_EQ(mem.read8(msg + 2), ',');
    EXPECT_EQ(mem.read8(msg + 4), '"');
    EXPECT_EQ(mem.read8(msg + 9), '\n');
    const Addr z = p.symbol("zmsg");
    EXPECT_EQ(z, msg + 10);
    EXPECT_EQ(mem.read8(z + 0), 'e');
    EXPECT_EQ(mem.read8(z + 3), 0u);    // terminator
    EXPECT_EQ(p.symbol("tail"), z + 4);
    EXPECT_EQ(mem.read32(p.symbol("tail")), 7u);
}

TEST(Assembler, CommentMarkerInsideString)
{
    const Program p = assemble(R"(
        halt
        .data
s:      .ascii "a#b;c"
)");
    MainMemory mem;
    p.loadInto(mem);
    EXPECT_EQ(mem.read8(p.symbol("s") + 1), '#');
    EXPECT_EQ(mem.read8(p.symbol("s") + 3), ';');
}

TEST(Assembler, MultiplicativeExpressions)
{
    const Program p = assemble(R"(
        .equ N, 6
        addi r1, r0, N*8
        addi r2, r0, N*8+4
        addi r3, r0, 100/4-1
        halt
        .data
buf:    .space N*8
end:    .word 0
)");
    EXPECT_EQ(decode(p.text[0]).imm, 48);
    EXPECT_EQ(decode(p.text[1]).imm, 52);
    EXPECT_EQ(decode(p.text[2]).imm, 24);
    EXPECT_EQ(p.symbol("end"), p.symbol("buf") + 48);
}

TEST(Assembler, DivisionByZeroInExpression)
{
    EXPECT_THROW(assemble("addi r1, r0, 4/0\nhalt\n"),
                 FatalError);
}

TEST(ProgramTest, SaveLoadRoundTrip)
{
    const Program p = assemble(R"(
main:   la   r1, data
        lw   r2, 0(r1)
        halt
        .data
data:   .word 0xabcd, 17
)");
    std::stringstream buf;
    p.save(buf);
    const Program q = Program::load(buf);
    EXPECT_EQ(q.text, p.text);
    EXPECT_EQ(q.data, p.data);
    EXPECT_EQ(q.text_base, p.text_base);
    EXPECT_EQ(q.data_base, p.data_base);
    EXPECT_EQ(q.entry, p.entry);
    EXPECT_EQ(q.symbols, p.symbols);
}

TEST(ProgramTest, LoadRejectsCorruptInput)
{
    std::stringstream empty;
    EXPECT_THROW(Program::load(empty), FatalError);

    std::stringstream junk;
    junk << "not a program at all";
    EXPECT_THROW(Program::load(junk), FatalError);
}

TEST(ProgramTest, LoadRejectsLengthsBeyondTheInput)
{
    // Segment and symbol lengths far past the bytes present are
    // truncation errors; nothing the lengths claim is allocated
    // first.
    auto image = [](std::uint32_t nwords, std::uint32_t nbytes) {
        std::string s;
        for (std::uint32_t v : {0x504d5453u, 1u, 0x1000u, nwords,
                                0x100000u, nbytes}) {
            for (int i = 0; i < 4; ++i)
                s.push_back(static_cast<char>(v >> (8 * i)));
        }
        return s;
    };
    for (const std::string &bytes :
         {image(0, 256u << 20), image(0xffffffffu, 0)}) {
        std::stringstream in(bytes);
        try {
            Program::load(in);
            FAIL() << "accepted";
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(),
                         "fatal: program load: truncated stream");
        }
    }
}

TEST(ProgramTest, SavedProgramStillRuns)
{
    const Program p = assemble(R"(
main:   addi r1, r0, 31
        la   r2, out
        sw   r1, 0(r2)
        halt
        .data
out:    .word 0
)");
    std::stringstream buf;
    p.save(buf);
    const Program q = Program::load(buf);

    MainMemory mem;
    q.loadInto(mem);
    BaselineProcessor cpu(q, mem);
    EXPECT_TRUE(cpu.run().finished);
    EXPECT_EQ(mem.read32(q.symbol("out")), 31u);
}
