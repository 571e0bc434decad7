/**
 * @file
 * Machine-checkpoint determinism: a run that is snapshotted at
 * cycle k, restored into a freshly constructed processor and run to
 * completion must be indistinguishable — RunStats, the detailed
 * stall counters, architectural registers, data memory — from the
 * same run left alone. Exercised over the real workloads and over
 * hundreds of fuzzer-generated programs at pseudo-random snapshot
 * cycles and machine shapes.
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "asmr/assembler.hh"
#include "base/json_fields.hh"
#include "ckpt_layout.hh"
#include "core/processor.hh"
#include "fuzz/generate.hh"
#include "machine/manycore.hh"
#include "test_common.hh"
#include "workloads/workloads.hh"

using namespace smtsim;
using namespace smtsim::test;

namespace
{

void
expectSameStats(const RunStats &a, const RunStats &b,
                const std::string &what)
{
    EXPECT_EQ(toJson(a).dump(), toJson(b).dump()) << what;
}

struct FinalState
{
    RunStats stats;
    std::map<std::string, std::uint64_t, std::less<>> detail;
    std::vector<std::uint32_t> iregs;
    std::vector<double> fregs;
    std::vector<std::uint32_t> data;
};

FinalState
capture(const MultithreadedProcessor &cpu, const RunStats &stats,
        const CoreConfig &cfg, const Program &prog,
        const MainMemory &mem)
{
    FinalState st;
    st.stats = stats;
    st.detail = cpu.detail().all();
    for (int f = 0; f < cfg.frames(); ++f) {
        for (RegIndex r = 0; r < kNumRegs; ++r) {
            st.iregs.push_back(cpu.intReg(f, r));
            st.fregs.push_back(cpu.fpReg(f, r));
        }
    }
    const Addr base = prog.data_base;
    const Addr end = base + static_cast<Addr>(prog.data.size());
    for (Addr a = base; a < end; a += 4)
        st.data.push_back(mem.read32(a));
    return st;
}

void
expectSameState(const FinalState &ref, const FinalState &got,
                const std::string &what)
{
    expectSameStats(ref.stats, got.stats, what);
    EXPECT_EQ(ref.detail, got.detail) << what;
    ASSERT_EQ(ref.iregs.size(), got.iregs.size()) << what;
    EXPECT_EQ(ref.iregs, got.iregs) << what;
    for (std::size_t i = 0; i < ref.fregs.size(); ++i) {
        // Bit-level compare: NaN payloads must survive too.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.fregs[i]),
                  std::bit_cast<std::uint64_t>(got.fregs[i]))
            << what << " freg " << i;
    }
    EXPECT_EQ(ref.data, got.data) << what;
}

void
initMemory(const Workload &w, MainMemory &mem)
{
    w.program.loadInto(mem);
    if (w.init)
        w.init(mem);
}

/**
 * Run @p prog plain, then run it again snapshotting at @p at and
 * resuming into a fresh processor + memory; both final states must
 * match bit for bit.
 */
void
checkCheckpointExact(const Program &prog, const CoreConfig &cfg,
                     Cycle at, const std::string &what,
                     void (*init)(MainMemory &) = nullptr)
{
    MainMemory mem_ref;
    prog.loadInto(mem_ref);
    if (init)
        init(mem_ref);
    MultithreadedProcessor ref(prog, mem_ref, cfg);
    const RunStats ref_stats = ref.run();
    const FinalState ref_state =
        capture(ref, ref_stats, cfg, prog, mem_ref);

    // First half: run to the snapshot point and save.
    MainMemory mem_a;
    prog.loadInto(mem_a);
    if (init)
        init(mem_a);
    MultithreadedProcessor a(prog, mem_a, cfg);
    a.runUntil(at);
    std::stringstream ckpt;
    a.saveCheckpoint(ckpt);

    // Byte stability: the same state must serialize to the same
    // bytes every time (memory pages are sorted, nothing iterates
    // in address-order-unstable containers).
    std::stringstream ckpt2;
    a.saveCheckpoint(ckpt2);
    ASSERT_EQ(ckpt.str(), ckpt2.str()) << what;

    // Second half: fresh machine, restore, run to completion.
    MainMemory mem_b;
    MultithreadedProcessor b(prog, mem_b, cfg);
    b.restoreCheckpoint(ckpt);
    EXPECT_EQ(b.now(), a.now()) << what;
    const RunStats got_stats = b.run();
    const FinalState got_state =
        capture(b, got_stats, cfg, prog, mem_b);

    expectSameState(ref_state, got_state, what);

    // Save-restore-save must reproduce the checkpoint bytes.
    MainMemory mem_c;
    MultithreadedProcessor c(prog, mem_c, cfg);
    std::stringstream ckpt_in(ckpt2.str());
    c.restoreCheckpoint(ckpt_in);
    std::stringstream ckpt3;
    c.saveCheckpoint(ckpt3);
    EXPECT_EQ(ckpt2.str(), ckpt3.str()) << what;
}

} // namespace

TEST(Checkpoint, RunUntilSplitMatchesSingleRun)
{
    MatmulParams mp;
    mp.n = 6;
    const Workload w = makeMatmul(mp);
    CoreConfig cfg;
    cfg.max_cycles = 500'000;

    MainMemory mem_ref;
    initMemory(w, mem_ref);
    MultithreadedProcessor ref(w.program, mem_ref, cfg);
    const RunStats sr = ref.run();
    ASSERT_TRUE(sr.finished);

    MainMemory mem;
    initMemory(w, mem);
    MultithreadedProcessor cpu(w.program, mem, cfg);
    // Arbitrary uneven split points, including no-op repeats.
    for (Cycle stop : {7ull, 8ull, 100ull, 100ull, 1000ull})
        cpu.runUntil(stop);
    const RunStats ss = cpu.run();
    expectSameStats(sr, ss, "split run");
    EXPECT_EQ(ref.detail().all(), cpu.detail().all());
}

TEST(Checkpoint, WorkloadsResumeBitIdentically)
{
    struct Case
    {
        const char *name;
        Workload w;
        Cycle at;
    };
    MatmulParams mp;
    mp.n = 6;
    RayTraceParams rp;
    rp.width = 6;
    rp.height = 6;
    rp.num_spheres = 3;
    RecurrenceParams cq;
    cq.n = 12;
    cq.variant = RecurrenceVariant::DoacrossQueue;
    BsearchParams bp;
    bp.table_size = 16;
    bp.queries_per_thread = 4;

    std::vector<Case> cases;
    cases.push_back({"matmul", makeMatmul(mp), 500});
    cases.push_back({"raytrace", makeRayTrace(rp), 1000});
    cases.push_back({"recurrence-q", makeRecurrence(cq), 97});
    cases.push_back({"bsearch", makeBsearch(bp), 333});

    for (const Case &tc : cases) {
        CoreConfig cfg;
        cfg.max_cycles = 500'000;

        // Workload init functions close over parameters, so run
        // the generic checker inline here instead.
        MainMemory mem_ref;
        initMemory(tc.w, mem_ref);
        MultithreadedProcessor ref(tc.w.program, mem_ref, cfg);
        const RunStats sr = ref.run();
        ASSERT_TRUE(sr.finished) << tc.name;
        ASSERT_GT(sr.cycles, tc.at) << tc.name
            << ": snapshot point after the end of the run";
        const FinalState ref_state =
            capture(ref, sr, cfg, tc.w.program, mem_ref);

        MainMemory mem_a;
        initMemory(tc.w, mem_a);
        MultithreadedProcessor a(tc.w.program, mem_a, cfg);
        a.runUntil(tc.at);
        std::stringstream ckpt;
        a.saveCheckpoint(ckpt);

        MainMemory mem_b;
        MultithreadedProcessor b(tc.w.program, mem_b, cfg);
        b.restoreCheckpoint(ckpt);
        const RunStats sg = b.run();
        const FinalState got =
            capture(b, sg, cfg, tc.w.program, mem_b);
        expectSameState(ref_state, got, tc.name);

        if (tc.w.check) {
            std::string why;
            EXPECT_TRUE(tc.w.check(mem_b, &why))
                << tc.name << ": " << why;
        }
    }
}

TEST(Checkpoint, ChainedCheckpointsStayExact)
{
    // Checkpoint every 200 cycles, restoring into a fresh machine
    // each leg: errors would compound if any state leaked.
    MatmulParams mp;
    mp.n = 6;
    const Workload w = makeMatmul(mp);
    CoreConfig cfg;
    cfg.max_cycles = 500'000;

    MainMemory mem_ref;
    initMemory(w, mem_ref);
    MultithreadedProcessor ref(w.program, mem_ref, cfg);
    const RunStats sr = ref.run();
    const FinalState ref_state =
        capture(ref, sr, cfg, w.program, mem_ref);

    auto mem = std::make_unique<MainMemory>();
    initMemory(w, *mem);
    auto cpu = std::make_unique<MultithreadedProcessor>(
        w.program, *mem, cfg);
    RunStats sg;
    for (Cycle at = 200;; at += 200) {
        sg = cpu->runUntil(at);
        if (cpu->finished())
            break;
        std::stringstream ckpt;
        cpu->saveCheckpoint(ckpt);
        auto next_mem = std::make_unique<MainMemory>();
        auto next = std::make_unique<MultithreadedProcessor>(
            w.program, *next_mem, cfg);
        next->restoreCheckpoint(ckpt);
        cpu = std::move(next);
        mem = std::move(next_mem);
    }
    const FinalState got =
        capture(*cpu, sg, cfg, w.program, *mem);
    expectSameState(ref_state, got, "chained");
}

TEST(Checkpoint, FingerprintRejectsMismatchedConfig)
{
    MatmulParams mp;
    mp.n = 4;
    const Workload w = makeMatmul(mp);
    CoreConfig cfg;
    cfg.max_cycles = 100'000;

    MainMemory mem;
    initMemory(w, mem);
    MultithreadedProcessor cpu(w.program, mem, cfg);
    cpu.runUntil(100);
    std::stringstream ckpt;
    cpu.saveCheckpoint(ckpt);

    CoreConfig other = cfg;
    other.num_slots = 2;
    MainMemory mem2;
    MultithreadedProcessor wrong(w.program, mem2, other);
    EXPECT_THROW(wrong.restoreCheckpoint(ckpt),
                 std::runtime_error);
}

TEST(Checkpoint, RejectsTruncatedStream)
{
    MatmulParams mp;
    mp.n = 4;
    const Workload w = makeMatmul(mp);
    CoreConfig cfg;
    cfg.max_cycles = 100'000;

    MainMemory mem;
    initMemory(w, mem);
    MultithreadedProcessor cpu(w.program, mem, cfg);
    cpu.runUntil(100);
    std::stringstream ckpt;
    cpu.saveCheckpoint(ckpt);
    const std::string bytes = ckpt.str();

    std::stringstream cut(bytes.substr(0, bytes.size() / 2));
    MainMemory mem2;
    MultithreadedProcessor fresh(w.program, mem2, cfg);
    EXPECT_THROW(fresh.restoreCheckpoint(cut),
                 std::runtime_error);

    std::stringstream garbage("not a checkpoint at all");
    MainMemory mem3;
    MultithreadedProcessor fresh2(w.program, mem3, cfg);
    EXPECT_THROW(fresh2.restoreCheckpoint(garbage),
                 std::runtime_error);
}

TEST(Checkpoint, ManyCoreMachineResumesBitIdentically)
{
    // The whole machine — 3 cores coupled through the interconnect
    // — snapshotted mid-run and resumed into a fresh machine must
    // reproduce the uninterrupted run's stats and every core's
    // memory (test_manycore covers the register file).
    MatmulParams mp;
    mp.n = 6;
    const Workload w = makeMatmul(mp);
    MachineConfig cfg;
    cfg.num_cores = 3;
    cfg.core.max_cycles = 500'000;
    cfg.core.remote.base = w.program.data_base;
    cfg.core.remote.size =
        static_cast<Addr>(w.program.data.size());
    const auto init = [&w](int, MainMemory &mem) {
        if (w.init)
            w.init(mem);
    };

    ManyCoreMachine ref(w.program, cfg, init);
    const MachineStats sr = ref.run();
    ASSERT_TRUE(sr.finished);
    ASSERT_GT(sr.cycles, 1000u);

    ManyCoreMachine a(w.program, cfg, init);
    a.runUntil(1000);
    std::stringstream ckpt;
    a.saveCheckpoint(ckpt);

    ManyCoreMachine b(w.program, cfg);  // no init: all from ckpt
    b.restoreCheckpoint(ckpt);
    const MachineStats sg = b.run(2);   // finish in parallel
    EXPECT_EQ(sr.cycles, sg.cycles);
    EXPECT_EQ(sr.finished, sg.finished);
    ASSERT_EQ(sr.cores.size(), sg.cores.size());
    for (std::size_t c = 0; c < sr.cores.size(); ++c) {
        expectSameStats(sr.cores[c], sg.cores[c],
                        "machine core " + std::to_string(c));
        const Addr base = w.program.data_base;
        const Addr end =
            base + static_cast<Addr>(w.program.data.size());
        for (Addr addr = base; addr < end; addr += 4) {
            ASSERT_EQ(ref.memory(static_cast<int>(c)).read32(addr),
                      b.memory(static_cast<int>(c)).read32(addr))
                << "core " << c << " addr " << addr;
        }
        std::string why;
        EXPECT_TRUE(w.check(b.memory(static_cast<int>(c)), &why))
            << "core " << c << ": " << why;
    }

    // A machine of a different shape must refuse the checkpoint.
    MachineConfig other = cfg;
    other.num_cores = 2;
    ManyCoreMachine wrong(w.program, other, init);
    std::stringstream in(ckpt.str());
    EXPECT_THROW(wrong.restoreCheckpoint(in), std::runtime_error);
}

TEST(Checkpoint, FuzzedProgramsResumeBitIdentically)
{
    // >= 200 generated programs, each snapshotted at a
    // pseudo-random cycle under a seed-dependent machine shape.
    constexpr int kPrograms = 220;
    int checked = 0;
    for (int seed = 1; seed <= kPrograms; ++seed) {
        fuzz::GenOptions opts;
        opts.seed = static_cast<std::uint64_t>(seed);
        opts.max_top_units = 6;
        const fuzz::GenProgram gp = fuzz::generate(opts);
        const Program prog = assemble(gp.render());

        CoreConfig cfg;
        cfg.max_cycles = 200'000;
        cfg.num_slots = (seed % 3 == 0) ? 2 : 4;
        cfg.width = (seed % 4 == 0) ? 2 : 1;
        cfg.standby_enabled = seed % 5 != 0;
        if (seed % 7 == 0)
            cfg.rotation_mode = RotationMode::Explicit;

        // The invariants hold at every stop, with and without
        // fast-forward (whose sleeping slots they cover too).
        for (const bool ff : {false, true}) {
            CoreConfig step_cfg = cfg;
            step_cfg.fast_forward = ff;
            MainMemory mem;
            prog.loadInto(mem);
            MultithreadedProcessor cpu(prog, mem, step_cfg);
            for (Cycle stop = 64;; stop += 64) {
                ASSERT_EQ(cpu.checkInvariants(), "")
                    << "fuzz seed " << seed << " ff=" << ff << " @"
                    << cpu.now();
                if (cpu.finished() || cpu.now() >= cfg.max_cycles)
                    break;
                cpu.runUntil(stop);
            }
        }

        // Pick the snapshot cycle from the run's actual length so
        // it always lands mid-run (deterministic per seed).
        MainMemory probe_mem;
        prog.loadInto(probe_mem);
        MultithreadedProcessor probe(prog, probe_mem, cfg);
        const RunStats ps = probe.run();
        ASSERT_TRUE(ps.finished)
            << "fuzz seed " << seed << " did not finish";
        if (ps.cycles < 4)
            continue;           // too short to split meaningfully
        const Cycle at =
            1 + (static_cast<Cycle>(seed) * 2654435761ull) %
                    (ps.cycles - 2);

        checkCheckpointExact(prog, cfg, at,
                             "fuzz seed " +
                                 std::to_string(seed) +
                                 " @" + std::to_string(at));
        ++checked;
    }
    // The generator occasionally emits near-empty programs; most
    // must still exercise a real split.
    EXPECT_GE(checked, 200);
}

// ----------------------------------------------------------------
// Hostile blobs: restore must reject every field the run loop
// indexes with, and every state checkInvariants() rejects, instead
// of accepting it and crashing or hanging later.
// ----------------------------------------------------------------

namespace
{

/** A valid mid-traffic blob of the queue program and its layout. */
struct Doctor
{
    Program prog = test::queueTrafficProgram();
    CoreConfig cfg;
    std::string blob;
    test::CkptLayout layout;

    Doctor()
    {
        cfg.max_cycles = 100'000;
        Cycle at = 0;
        blob = test::checkpointMidTraffic(prog, cfg, &at);
        layout = test::walkCheckpoint(blob);
    }

    /** Restore @p bytes into a fresh processor: the error message,
     *  or "accepted". */
    std::string
    restore(const std::string &bytes) const
    {
        MainMemory mem;
        MultithreadedProcessor cpu(prog, mem, cfg);
        std::istringstream is(bytes);
        try {
            cpu.restoreCheckpoint(is);
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "accepted";
    }

    /** Poke @p v at @p at and expect a rejection mentioning
     *  @p needle. */
    void
    expectRejected(std::size_t at, std::uint32_t v,
                   const std::string &needle) const
    {
        std::string bad = blob;
        test::pokeU32(bad, at, v);
        const std::string got = restore(bad);
        EXPECT_NE(got.find(needle), std::string::npos) << got;
    }
};

} // namespace

TEST(CheckpointHostile, ValidBlobIsAccepted)
{
    const Doctor d;
    ASSERT_FALSE(d.blob.empty());
    EXPECT_EQ(d.restore(d.blob), "accepted");
}

TEST(CheckpointHostile, Version1BlobIsRejectedByVersion)
{
    const Doctor d;
    d.expectRejected(8, 1, "bad checkpoint version (got 1, want 2)");
}

TEST(CheckpointHostile, TwoSlotsBoundToOneFrame)
{
    const Doctor d;
    d.expectRejected(d.layout.slot_frames.at(1), 0,
                     "frame 0: running on 2 slots");
}

TEST(CheckpointHostile, BusySlotWithoutAFrame)
{
    const Doctor d;
    ASSERT_EQ(d.layout.slot_frames.size(), 4u);
    for (std::size_t s = 0; s < 4; ++s) {
        d.expectRejected(d.layout.slot_frames[s], 0xffffffff,
                         "slot " + std::to_string(s) +
                             ": unbound but holds in-flight work");
    }
}

TEST(CheckpointHostile, PendingPushMovedToAnotherSlot)
{
    // Restore derives each link's reservations from the pending
    // pushes, so a moved push reserves its new link: either that
    // link then breaks an invariant and restore rejects the blob,
    // or the run goes on without a panic (finished or not).
    const Doctor d;
    ASSERT_FALSE(d.layout.push_slots.empty());
    int runs = 0;
    for (const std::size_t at : d.layout.push_slots) {
        const auto own = static_cast<std::uint32_t>(
            static_cast<unsigned char>(d.blob.at(at)));
        for (std::uint32_t s = 0; s < 4; ++s) {
            if (s == own)
                continue;
            std::string bad = d.blob;
            test::pokeU32(bad, at, s);
            MainMemory mem;
            MultithreadedProcessor cpu(d.prog, mem, d.cfg);
            std::istringstream is(bad);
            try {
                cpu.restoreCheckpoint(is);
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "queue link " + std::to_string(s)),
                          std::string::npos)
                    << e.what();
                continue;
            }
            EXPECT_NO_THROW(cpu.run()) << "push moved to slot " << s;
            ++runs;
        }
    }
    EXPECT_GT(runs, 0);
}

TEST(CheckpointHostile, SlotFrameOutOfRange)
{
    const Doctor d;
    d.expectRejected(d.layout.slot_frames.at(0), 0x10000000,
                     "slot frame out of range");
}

TEST(CheckpointHostile, FetchSlotOutOfRange)
{
    const Doctor d;
    d.expectRejected(d.layout.fetch_slots.at(0), 4,
                     "fetch slot out of range");
}

TEST(CheckpointHostile, PendingPushSlotOutOfRange)
{
    const Doctor d;
    d.expectRejected(d.layout.push_slots.at(0), 0xffffffff,
                     "pending push slot out of range");
}

TEST(CheckpointHostile, IssuedOpSlotOutOfRange)
{
    const Doctor d;
    ASSERT_FALSE(d.layout.incoming_ops.empty());
    d.expectRejected(d.layout.incoming_ops[0] + test::kIssuedOpSlot,
                     77, "issued op in a bad or busy slot");
}

TEST(CheckpointHostile, StandbyOpInAnotherSlotsStation)
{
    const Doctor d;
    const std::size_t op = d.layout.standby_ops.at(0);
    // Any other in-range slot: the station index is the op's own.
    const std::uint32_t own = static_cast<unsigned char>(
        d.blob.at(op + test::kIssuedOpSlot));
    d.expectRejected(op + test::kIssuedOpSlot, own ^ 1,
                     "standby op in another slot's station");
}

TEST(CheckpointHostile, IssuedOpRegisterFieldsMustMatchTheText)
{
    // Opcode u16, then rd, rs, rt: a changed register is an
    // instruction the program does not contain.
    const Doctor d;
    std::string bad = d.blob;
    bad.at(d.layout.standby_ops.at(0) + 2) ^= 0x1f;     // rd
    EXPECT_NE(d.restore(bad).find("does not match the program text"),
              std::string::npos);
    bad = d.blob;
    bad.at(d.layout.incoming_ops.at(0) + 4) ^= 0x1f;    // rt
    EXPECT_NE(d.restore(bad).find("does not match the program text"),
              std::string::npos);
}

TEST(CheckpointHostile, PriorityRingMustBeAPermutation)
{
    const Doctor d;
    ASSERT_EQ(d.layout.ring.size(), 4u);
    std::string bad = d.blob;
    // Duplicate the head: slot order {a, a, c, d}.
    bad.replace(d.layout.ring[1], 4, d.blob, d.layout.ring[0], 4);
    EXPECT_NE(d.restore(bad).find("not a permutation"),
              std::string::npos);
    d.expectRejected(d.layout.ring[2], 4, "not a permutation");
}

TEST(CheckpointHostile, PriorityRingNotARotation)
{
    // Every rotation keeps the ring a rotation of the slots, so a
    // permutation that is not one ({a, c, b, d}) was never saved.
    const Doctor d;
    ASSERT_EQ(d.layout.ring.size(), 4u);
    std::string bad = d.blob;
    bad.replace(d.layout.ring[1], 4, d.blob, d.layout.ring[2], 4);
    bad.replace(d.layout.ring[2], 4, d.blob, d.layout.ring[1], 4);
    EXPECT_EQ(d.restore(bad),
              "checkpoint: priority ring is not a rotation of the slots");
}

TEST(CheckpointHostile, ReadyFrameOutOfRange)
{
    // One slot, three frames: spawned contexts queue for the slot.
    const Program prog = assemble("main: addi r1, r0, 1\nhalt\n");
    CoreConfig cfg;
    cfg.num_slots = 1;
    cfg.num_frames = 3;
    MainMemory mem;
    prog.loadInto(mem);
    MultithreadedProcessor cpu(prog, mem, cfg);
    cpu.spawnContext(prog.entry);
    cpu.spawnContext(prog.entry);
    cpu.runUntil(1);
    std::ostringstream os;
    cpu.saveCheckpoint(os);
    std::string bad = os.str();
    const test::CkptLayout l = test::walkCheckpoint(bad);
    ASSERT_FALSE(l.ready_frames.empty());
    test::pokeU32(bad, l.ready_frames[0], 3);

    MainMemory mem2;
    MultithreadedProcessor fresh(prog, mem2, cfg);
    std::istringstream is(bad);
    try {
        fresh.restoreCheckpoint(is);
        FAIL() << "accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("ready frame out of range"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CheckpointHostile, ScheduleUnitShapeMismatchIsARuntimeError)
{
    const Doctor d;
    d.expectRejected(d.layout.sched_units, 2,
                     "schedule-unit unit count mismatch");
}

TEST(CheckpointHostile, QueueRingShapeMismatchIsARuntimeError)
{
    const Doctor d;
    d.expectRejected(d.layout.queue_links, 5,
                     "queue link count mismatch");
}

TEST(CheckpointHostile, MachineBlobSizeBeyondTheInput)
{
    // A 276-byte SMTMCKP1 whose first core blob claims 2^27 bytes:
    // the reader reports the truncation instead of first allocating
    // what the length field claims.
    MatmulParams mp;
    mp.n = 4;
    const Workload w = makeMatmul(mp);
    MachineConfig cfg;
    cfg.num_cores = 2;
    cfg.core.num_slots = 2;
    cfg.core.remote.base = w.program.data_base;
    cfg.core.remote.size = static_cast<Addr>(w.program.data.size());
    ManyCoreMachine m(w.program, cfg);
    m.runUntil(400);
    std::ostringstream os;
    m.saveCheckpoint(os);
    std::string bad = os.str();
    const std::size_t core = bad.find("SMTCKPT1");
    ASSERT_NE(core, std::string::npos);
    bad.resize(core);
    test::pokeU32(bad, core - 8, 1u << 27);
    ASSERT_EQ(bad.size(), 276u);

    ManyCoreMachine fresh(w.program, cfg);
    std::istringstream is(bad);
    try {
        fresh.restoreCheckpoint(is);
        FAIL() << "accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "machine checkpoint: truncated stream");
    }
}
