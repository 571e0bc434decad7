/**
 * @file
 * Format pins: FNV-1a hashes of the bytes every external format
 * writes for fixed inputs — an SMTCKPT1 core checkpoint, an SMTMCKP1
 * machine checkpoint, an STMP program image and the JSON documents
 * of the lab and the serve protocol. A refactor of the readers and
 * writers must leave every hash alone; a deliberate format change
 * bumps the format's version and re-pins here.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "asmr/assembler.hh"
#include "base/hash.hh"
#include "base/json_fields.hh"
#include "ckpt_layout.hh"
#include "core/processor.hh"
#include "lab/result.hh"
#include "lab/spec_json.hh"
#include "machine/manycore.hh"
#include "workloads/workloads.hh"

using namespace smtsim;
using namespace smtsim::lab;

namespace
{

std::string
hex(const std::string &bytes)
{
    return hashToHex(fnv1a(bytes));
}

void
initMemory(const Workload &w, MainMemory &mem)
{
    w.program.loadInto(mem);
    if (w.init)
        w.init(mem);
}

/** A 2-core matmul machine whose data segment is remote. */
MachineConfig
coupledMatmul(const Workload &w)
{
    MachineConfig cfg;
    cfg.num_cores = 2;
    cfg.core.num_slots = 2;
    cfg.core.max_cycles = 500'000;
    cfg.core.remote.base = w.program.data_base;
    cfg.core.remote.size = static_cast<Addr>(w.program.data.size());
    return cfg;
}

Workload
smallMatmul()
{
    MatmulParams mp;
    mp.n = 4;
    return makeMatmul(mp);
}

CoreConfig
denseCore()
{
    CoreConfig cfg;
    cfg.num_slots = 8;
    cfg.num_frames = 12;
    cfg.width = 2;
    cfg.fus.load_store = 2;
    cfg.fus.fp_mul = 3;
    cfg.standby_enabled = false;
    cfg.rotation_mode = RotationMode::Explicit;
    cfg.rotation_interval = 32;
    cfg.private_icache = true;
    cfg.icache_cycles = 3;
    cfg.iqueue_words = 64;
    cfg.queue_reg_depth = 6;
    cfg.branch_gap = 7;
    cfg.context_switch_cycles = 5;
    cfg.remote.base = 0x00400000;
    cfg.remote.size = 0x10000;
    cfg.remote.latency = 250;
    cfg.dcache.size_bytes = 4096;
    cfg.dcache.ways = 2;
    cfg.icache.size_bytes = 2048;
    cfg.icache.line_bytes = 64;
    cfg.icache.miss_penalty = 9;
    cfg.fast_forward = false;
    cfg.max_cycles = 123456789;
    return cfg;
}

BaselineConfig
denseBaseline()
{
    BaselineConfig cfg;
    cfg.width = 2;
    cfg.fus.int_alu = 2;
    cfg.branch_gap = 3;
    cfg.fast_forward = false;
    cfg.max_cycles = 987654;
    return cfg;
}

MachineTuning
denseTuning()
{
    MachineTuning t;
    t.cores = 3;
    t.remote_data = false;
    t.noc.l2_banks = 8;
    t.noc.bank_interleave = 128;
    t.noc.mshrs_per_bank = 2;
    t.noc.l2_access_cycles = 15;
    t.noc.bank_conflict_penalty = 4;
    t.noc.hop_latency = 3;
    t.quantum = 7;
    return t;
}

} // namespace

TEST(FormatPin, CoreCheckpointMidQueueTraffic)
{
    CoreConfig cfg;
    cfg.max_cycles = 100'000;
    Cycle at = 0;
    const std::string blob =
        test::checkpointMidTraffic(test::queueTrafficProgram(), cfg, &at);
    ASSERT_FALSE(blob.empty()) << "no cycle with all three in flight";
    EXPECT_EQ(at, 18u);
    EXPECT_EQ(blob.size(), 73618u);
    EXPECT_EQ(hex(blob), "c74d113dacea68ac");
}

TEST(FormatPin, MachineCheckpointMidRun)
{
    const Workload w = smallMatmul();
    const auto init = [&w](int, MainMemory &mem) {
        if (w.init)
            w.init(mem);
    };
    ManyCoreMachine m(w.program, coupledMatmul(w), init);
    m.runUntil(400);
    ASSERT_FALSE(m.finished());
    std::ostringstream os;
    m.saveCheckpoint(os);
    EXPECT_EQ(os.str().size(), 271148u);
    EXPECT_EQ(hex(os.str()), "118093bfcae9bfb9");
}

TEST(FormatPin, ProgramImage)
{
    const Program prog = assemble(R"(
        .data
table:  .word 1, 2, 3, 0x7fffffff
msg:    .asciiz "pin"
        .text
main:   la   r1, table
        lw   r2, 4(r1)
loop:   addi r2, r2, -1
        bgtz r2, loop
        halt
)");
    std::ostringstream os;
    prog.save(os);
    EXPECT_EQ(os.str().size(), 124u);
    EXPECT_EQ(hex(os.str()), "c9e7ca8f1b25e615");
}

TEST(FormatPin, JobResultJson)
{
    const Workload w = smallMatmul();
    MainMemory mem;
    initMemory(w, mem);
    CoreConfig cfg;
    cfg.num_slots = 2;
    MultithreadedProcessor cpu(w.program, mem, cfg);

    JobResult r;
    r.id = "mm/s2";
    r.key = "0123456789abcdef";
    r.ok = true;
    r.from_cache = true;
    r.error = "tab\there \"quoted\"";
    r.wall_seconds = 0.1;
    r.stats = cpu.run();
    EXPECT_EQ(hex(resultToJson(r).dump()), "987464c36177a604");
}

TEST(FormatPin, JobJsonPerEngine)
{
    const Job core = coreJob("core", WorkloadSpec::stencil(8, 6, 1),
                             denseCore());
    const Job base = baselineJob("base", WorkloadSpec::bsearch(),
                                 denseBaseline());
    const Job machine = machineJob("mach", WorkloadSpec::matmul(5),
                                   denseCore(), denseTuning());
    EXPECT_EQ(hex(jobToJson(core).dump()), "b44d0f5957950868");
    EXPECT_EQ(hex(jobToJson(base).dump()), "b6174059c86eabc2");
    EXPECT_EQ(hex(jobToJson(machine).dump()), "dc819fa1c2ad9ca6");
}

TEST(FormatPin, ExperimentSpecJson)
{
    ExperimentSpec spec;
    spec.name = "pinned";
    spec.workloads = {WorkloadSpec::matmul(6),
                      WorkloadSpec::rayTrace(8, 8)};
    spec.slots = {1, 4};
    spec.frames = {-1, 6};
    spec.lsu = {1, 2};
    spec.widths = {2};
    spec.standby = {false, true};
    spec.rotation_intervals = {4, 16};
    spec.cores = {2};
    spec.core_template = denseCore();
    spec.machine_template = denseTuning();
    spec.include_baseline = true;
    spec.baseline_template = denseBaseline();
    EXPECT_EQ(hex(experimentSpecToJson(spec).dump()),
              "3d3da18a02c2b90c");
}

TEST(FormatPin, MachineStatsJson)
{
    const Workload w = smallMatmul();
    const auto init = [&w](int, MainMemory &mem) {
        if (w.init)
            w.init(mem);
    };
    ManyCoreMachine m(w.program, coupledMatmul(w), init);
    const MachineStats s = m.run();
    ASSERT_TRUE(s.finished);
    EXPECT_EQ(hex(toJson(s).dump()), "192dc909bda03951");
}
