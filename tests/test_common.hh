/**
 * @file
 * Shared helpers for the smtsim test suite.
 */

#ifndef SMTSIM_TESTS_TEST_COMMON_HH
#define SMTSIM_TESTS_TEST_COMMON_HH

#include <string>
#include <string_view>

#include "asmr/assembler.hh"
#include "baseline/baseline.hh"
#include "core/processor.hh"
#include "fastpath/engine.hh"
#include "mem/memory.hh"

namespace smtsim::test
{

/** A loaded program + memory, ready to run on any engine. */
struct Machine
{
    Program prog;
    MainMemory mem;

    explicit Machine(std::string_view source)
        : prog(assemble(source))
    {
        prog.loadInto(mem);
    }
};

/** Run @p source on the baseline; returns stats. */
inline RunStats
runBaselineAsm(std::string_view source,
               const BaselineConfig &cfg = {},
               MainMemory *mem_out = nullptr)
{
    Machine m(source);
    BaselineProcessor cpu(m.prog, m.mem, cfg);
    RunStats stats = cpu.run();
    if (mem_out)
        *mem_out = m.mem;
    return stats;
}

/** Run @p source on the multithreaded core; returns stats. */
inline RunStats
runCoreAsm(std::string_view source, const CoreConfig &cfg = {},
           MainMemory *mem_out = nullptr)
{
    Machine m(source);
    MultithreadedProcessor cpu(m.prog, m.mem, cfg);
    RunStats stats = cpu.run();
    if (mem_out)
        *mem_out = m.mem;
    return stats;
}

/** Run @p source on the functional engine: reference stepping, or
 *  the chunk loop when @p chunked. */
inline InterpResult
runInterpAsm(std::string_view source, int threads = 1,
             MainMemory *mem_out = nullptr, bool chunked = false)
{
    Machine m(source);
    InterpConfig cfg;
    cfg.num_threads = threads;
    fastpath::FastEngine engine(m.prog, m.mem, cfg);
    InterpResult result =
        chunked ? engine.run() : engine.runReference();
    if (mem_out)
        *mem_out = m.mem;
    return result;
}

} // namespace smtsim::test

#endif // SMTSIM_TESTS_TEST_COMMON_HH
