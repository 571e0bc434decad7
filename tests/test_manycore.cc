/**
 * @file
 * Many-core machine model (docs/MANYCORE.md): interconnect timing
 * arithmetic, single-core parity with the lone elementary
 * processor, and — the load-bearing property — bit-identical
 * results across every host-thread schedule, runUntil() split and
 * checkpoint/restore cut.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "base/json_fields.hh"
#include "base/logging.hh"
#include "base/serial.hh"
#include "harness/runner.hh"
#include "machine/manycore.hh"
#include "workloads/workloads.hh"

using namespace smtsim;

namespace
{

/** Small matmul whose data segment doubles as the remote region. */
Workload
testWorkload()
{
    MatmulParams mp;
    mp.n = 6;
    return makeMatmul(mp);
}

MachineConfig
coupledConfig(const Workload &w, int num_cores)
{
    MachineConfig cfg;
    cfg.num_cores = num_cores;
    cfg.core.max_cycles = 500'000;
    // Route every data-segment access through the interconnect so
    // the quantum machinery is actually exercised.
    cfg.core.remote.base = w.program.data_base;
    cfg.core.remote.size =
        static_cast<Addr>(w.program.data.size());
    return cfg;
}

std::function<void(int, MainMemory &)>
initHook(const Workload &w)
{
    return [&w](int, MainMemory &mem) {
        if (w.init)
            w.init(mem);
    };
}

/** Full architectural state of one machine, for cross-schedule
 *  comparison: per-core per-frame registers + data memory. */
struct MachineState
{
    std::vector<std::uint32_t> iregs;
    std::vector<std::uint64_t> fregs;
    std::vector<std::uint32_t> data;
};

MachineState
captureState(const ManyCoreMachine &m, const Workload &w)
{
    MachineState st;
    const int frames = m.config().core.frames();
    for (int c = 0; c < m.numCores(); ++c) {
        for (int f = 0; f < frames; ++f) {
            for (RegIndex r = 0; r < kNumRegs; ++r) {
                st.iregs.push_back(m.core(c).intReg(f, r));
                st.fregs.push_back(std::bit_cast<std::uint64_t>(
                    m.core(c).fpReg(f, r)));
            }
        }
        const Addr base = w.program.data_base;
        const Addr end =
            base + static_cast<Addr>(w.program.data.size());
        for (Addr a = base; a < end; a += 4)
            st.data.push_back(m.memory(c).read32(a));
    }
    return st;
}

/** Everything except `quanta`, which is allowed to depend on where
 *  runUntil() was split (never on host threads). */
void
expectSameTiming(const MachineStats &a, const MachineStats &b,
                 const std::string &what)
{
    MachineStats bq = b;
    bq.quanta = a.quanta;
    EXPECT_EQ(toJson(a).dump(), toJson(bq).dump()) << what;
}

} // namespace

// ---------------------------------------------------------------
// Interconnect timing arithmetic
// ---------------------------------------------------------------

TEST(Interconnect, BanksAreAddressInterleaved)
{
    InterconnectConfig cfg;
    cfg.l2_banks = 4;
    cfg.bank_interleave = 64;
    const Interconnect noc(cfg, 2);
    EXPECT_EQ(noc.bankOf(0), 0);
    EXPECT_EQ(noc.bankOf(63), 0);
    EXPECT_EQ(noc.bankOf(64), 1);
    EXPECT_EQ(noc.bankOf(3 * 64), 3);
    EXPECT_EQ(noc.bankOf(4 * 64), 0);   // wraps
    EXPECT_EQ(noc.bankOf(4 * 64 + 65), 1);
}

TEST(Interconnect, UncontendedLatencyIsServicePlusRoundTrip)
{
    InterconnectConfig cfg;
    cfg.l2_banks = 2;
    cfg.l2_access_cycles = 20;
    cfg.hop_latency = 3;
    const Interconnect noc(cfg, 4);
    for (int core = 0; core < 4; ++core) {
        for (Addr a : {0u, 64u, 4096u}) {
            const int h = noc.hops(core, noc.bankOf(a));
            EXPECT_GE(h, 1);
            EXPECT_EQ(noc.uncontendedLatency(core, a),
                      20 + 2ull * h * 3);
        }
    }
    // minLatency is the single-hop round trip.
    EXPECT_EQ(noc.minLatency(), 20 + 2ull * 3);
}

TEST(Interconnect, BusyBankQueuesAndChargesThePenalty)
{
    InterconnectConfig cfg;
    cfg.l2_banks = 1;
    cfg.mshrs_per_bank = 2;
    cfg.l2_access_cycles = 10;
    cfg.bank_conflict_penalty = 5;
    cfg.hop_latency = 1;
    Interconnect noc(cfg, 1);

    // Three same-cycle requests into a 2-slot bank: the first two
    // proceed uncontended, the third queues behind the earliest
    // slot and pays the penalty.
    std::vector<Cycle> done;
    for (std::uint64_t s = 0; s < 3; ++s)
        done.push_back(
            noc.resolve(RemoteRequest{100, 0, 0, 0, s}));
    EXPECT_EQ(done[0], done[1]);
    EXPECT_GT(done[2], done[1]);
    EXPECT_EQ(noc.stats().requests, 3u);
    EXPECT_EQ(noc.stats().conflicts, 1u);
    EXPECT_EQ(noc.stats().bank_conflicts[0], 1u);
    for (Cycle c : done)
        EXPECT_GE(c, 100 + noc.minLatency());
}

TEST(Interconnect, ResolveIsAPureFoldOverTheSequence)
{
    InterconnectConfig cfg;
    cfg.l2_banks = 2;
    cfg.mshrs_per_bank = 1;
    Interconnect a(cfg, 3);
    Interconnect b(cfg, 3);

    // Same canonical sequence, batched differently by the caller:
    // identical completions and identical serialized bank state.
    std::vector<RemoteRequest> reqs;
    for (std::uint64_t i = 0; i < 12; ++i) {
        reqs.push_back(RemoteRequest{
            50 + i / 3, static_cast<int>(i % 3), 0,
            static_cast<Addr>(i * 48), i});
    }
    std::vector<Cycle> ca, cb;
    for (const RemoteRequest &r : reqs)
        ca.push_back(a.resolve(r));
    for (std::size_t i = 0; i < reqs.size(); ++i)
        cb.push_back(b.resolve(reqs[i]));
    EXPECT_EQ(ca, cb);

    std::ostringstream sa, sb;
    {
        SaveArchive wa(sa), wb(sb);
        wa("noc", a);
        wb("noc", b);
    }
    EXPECT_EQ(sa.str(), sb.str());
}

TEST(Interconnect, RejectsDegenerateTopology)
{
    InterconnectConfig cfg;
    cfg.l2_banks = 0;
    EXPECT_THROW(Interconnect(cfg, 2), FatalError);

    cfg = {};
    cfg.l2_access_cycles = 1;
    cfg.hop_latency = 0;
    // Minimum latency 1 leaves no room for a safe quantum.
    EXPECT_THROW(Interconnect(cfg, 2), FatalError);
}

// ---------------------------------------------------------------
// Machine model
// ---------------------------------------------------------------

TEST(ManyCore, UncoupledSingleCoreMatchesLoneProcessor)
{
    const Workload w = testWorkload();
    CoreConfig core;
    core.max_cycles = 500'000;
    const Outcome lone = runCore(w, core);
    ASSERT_TRUE(lone.ok) << lone.error;

    MachineConfig mcfg;
    mcfg.num_cores = 1;
    mcfg.core = core;           // no remote region: no coupling
    const MachineOutcome mo = runMachine(w, mcfg);
    ASSERT_TRUE(mo.ok) << mo.error;
    EXPECT_EQ(mo.stats.quanta, 1u);     // collapses to one quantum
    EXPECT_EQ(mo.stats.noc.requests, 0u);
    ASSERT_EQ(mo.stats.cores.size(), 1u);
    EXPECT_EQ(lone.stats, mo.stats.cores[0]);
    EXPECT_EQ(lone.stats, mo.stats.aggregate());
}

TEST(ManyCore, RemoteTrafficGoesThroughTheInterconnect)
{
    const Workload w = testWorkload();
    const MachineOutcome mo =
        runMachine(w, coupledConfig(w, 2));
    ASSERT_TRUE(mo.ok) << mo.error;
    EXPECT_GT(mo.stats.noc.requests, 0u);
    EXPECT_GT(mo.stats.quanta, 1u);
    EXPECT_GT(mo.stats.noc.total_latency,
              mo.stats.noc.requests);    // > 1 cycle per request
}

TEST(ManyCore, HostThreadScheduleIsBitIdentical)
{
    const Workload w = testWorkload();
    const MachineConfig cfg = coupledConfig(w, 4);

    MachineStats ref_stats;
    MachineState ref_state;
    bool have_ref = false;
    for (int threads : {0, 1, 2, 3, 8}) {
        ManyCoreMachine m(w.program, cfg, initHook(w));
        const MachineStats s = m.run(threads);
        ASSERT_TRUE(s.finished) << "threads=" << threads;
        const MachineState st = captureState(m, w);
        if (!have_ref) {
            ref_stats = s;
            ref_state = st;
            have_ref = true;
            continue;
        }
        const std::string what =
            "host threads " + std::to_string(threads);
        // Full identity, quanta included: host threading must not
        // even perturb the barrier schedule.
        EXPECT_EQ(toJson(ref_stats).dump(), toJson(s).dump()) << what;
        EXPECT_EQ(ref_state.iregs, st.iregs) << what;
        EXPECT_EQ(ref_state.fregs, st.fregs) << what;
        EXPECT_EQ(ref_state.data, st.data) << what;
    }
}

TEST(ManyCore, RunUntilSplitsAreBitIdentical)
{
    const Workload w = testWorkload();
    const MachineConfig cfg = coupledConfig(w, 2);

    ManyCoreMachine ref(w.program, cfg, initHook(w));
    const MachineStats sr = ref.run();
    ASSERT_TRUE(sr.finished);

    ManyCoreMachine split(w.program, cfg, initHook(w));
    // Uneven split points (including a no-op repeat), alternating
    // host-thread schedules between the legs.
    int threads = 0;
    for (Cycle stop : {7ull, 7ull, 100ull, 101ull, 5000ull}) {
        split.runUntil(stop, threads);
        threads = threads == 0 ? 2 : 0;
        if (!split.finished()) {
            EXPECT_EQ(split.now(), stop);
        }
    }
    const MachineStats ss = split.run();
    expectSameTiming(sr, ss, "split run");
    EXPECT_EQ(captureState(ref, w).data,
              captureState(split, w).data);
}

TEST(ManyCore, CheckpointRoundTripsMidRun)
{
    const Workload w = testWorkload();
    const MachineConfig cfg = coupledConfig(w, 3);

    ManyCoreMachine ref(w.program, cfg, initHook(w));
    const MachineStats sr = ref.run();
    ASSERT_TRUE(sr.finished);
    ASSERT_GT(sr.cycles, 400u);
    const MachineState ref_state = captureState(ref, w);

    ManyCoreMachine a(w.program, cfg, initHook(w));
    a.runUntil(397);            // deliberately not a quantum multiple
    std::stringstream ckpt;
    a.saveCheckpoint(ckpt);

    // Byte stability: saving twice gives identical bytes.
    std::stringstream ckpt2;
    a.saveCheckpoint(ckpt2);
    ASSERT_EQ(ckpt.str(), ckpt2.str());

    // Fresh machine (no init hook: every byte must come from the
    // checkpoint), restore, finish on a parallel schedule.
    ManyCoreMachine b(w.program, cfg);
    b.restoreCheckpoint(ckpt);
    EXPECT_EQ(b.now(), a.now());
    const MachineStats sg = b.run(2);
    expectSameTiming(sr, sg, "restored run");
    const MachineState got = captureState(b, w);
    EXPECT_EQ(ref_state.iregs, got.iregs);
    EXPECT_EQ(ref_state.fregs, got.fregs);
    EXPECT_EQ(ref_state.data, got.data);

    // Save-restore-save reproduces the checkpoint bytes.
    ManyCoreMachine c(w.program, cfg);
    std::stringstream ckpt_in(ckpt2.str());
    c.restoreCheckpoint(ckpt_in);
    std::stringstream ckpt3;
    c.saveCheckpoint(ckpt3);
    EXPECT_EQ(ckpt2.str(), ckpt3.str());
}

TEST(ManyCore, FingerprintRejectsMismatchedMachine)
{
    const Workload w = testWorkload();
    const MachineConfig cfg = coupledConfig(w, 2);
    ManyCoreMachine m(w.program, cfg, initHook(w));
    m.runUntil(100);
    std::stringstream ckpt;
    m.saveCheckpoint(ckpt);
    const std::string bytes = ckpt.str();

    {
        MachineConfig other = cfg;
        other.num_cores = 3;
        ManyCoreMachine wrong(w.program, other, initHook(w));
        std::stringstream in(bytes);
        EXPECT_THROW(wrong.restoreCheckpoint(in),
                     std::runtime_error);
    }
    {
        MachineConfig other = cfg;
        other.noc.l2_banks = 8;
        ManyCoreMachine wrong(w.program, other, initHook(w));
        std::stringstream in(bytes);
        EXPECT_THROW(wrong.restoreCheckpoint(in),
                     std::runtime_error);
    }
    {
        ManyCoreMachine fresh(w.program, cfg, initHook(w));
        std::stringstream cut(bytes.substr(0, bytes.size() / 2));
        EXPECT_THROW(fresh.restoreCheckpoint(cut),
                     std::runtime_error);
    }
}

TEST(ManyCore, RejectsUnsafeQuantum)
{
    const Workload w = testWorkload();
    MachineConfig cfg = coupledConfig(w, 2);
    const Interconnect probe(cfg.noc, cfg.num_cores);
    cfg.quantum = probe.minLatency();   // one past the safe bound
    EXPECT_THROW(ManyCoreMachine(w.program, cfg, initHook(w)),
                 FatalError);

    cfg.quantum = probe.minLatency() - 1;
    ManyCoreMachine ok(w.program, cfg, initHook(w));
    EXPECT_EQ(ok.quantum(), probe.minLatency() - 1);
}

TEST(ManyCore, StatsRoundTripThroughJson)
{
    const Workload w = testWorkload();
    const MachineOutcome mo = runMachine(w, coupledConfig(w, 2));
    ASSERT_TRUE(mo.ok) << mo.error;
    const Json j = toJson(mo.stats);
    MachineStats back;
    fromJson(Json::parse(j.dump()), back, "stats");
    EXPECT_EQ(mo.stats, back);
    EXPECT_EQ(j.dump(), toJson(back).dump());
}

TEST(ManyCore, AggregateSumsCoreCounters)
{
    const Workload w = testWorkload();
    const MachineOutcome mo = runMachine(w, coupledConfig(w, 3));
    ASSERT_TRUE(mo.ok) << mo.error;
    const RunStats agg = mo.stats.aggregate();
    std::uint64_t insns = 0, loads = 0;
    Cycle max_cycles = 0;
    for (const RunStats &s : mo.stats.cores) {
        insns += s.instructions;
        loads += s.loads;
        max_cycles = std::max(max_cycles, s.cycles);
    }
    EXPECT_EQ(agg.instructions, insns);
    EXPECT_EQ(agg.loads, loads);
    EXPECT_EQ(agg.cycles, max_cycles);
    EXPECT_EQ(agg.cycles, mo.stats.cycles);
}

TEST(ManyCore, FastForwardMatchesTheNaiveLoop)
{
    // bench_manycore's coupled shape at 4 cores: the cores spend
    // most cycles with every context parked on the interconnect, so
    // the fast-forward loop jumps whole quanta and wakes contexts
    // through completeRemote(). The naive per-cycle loop is the
    // oracle; nextEventHint() picks the quanta of both runs.
    MatmulParams mp;
    mp.n = 8;
    const Workload w = makeMatmul(mp);
    MachineConfig cfg = coupledConfig(w, 4);
    cfg.core.num_slots = 8;
    cfg.core.num_frames = 10;
    cfg.core.fus.load_store = 2;
    cfg.noc.l2_access_cycles = 200;
    cfg.noc.hop_latency = 8;

    MachineConfig naive_cfg = cfg;
    naive_cfg.core.fast_forward = false;
    ManyCoreMachine naive(w.program, naive_cfg, initHook(w));
    ManyCoreMachine ff(w.program, cfg, initHook(w));
    const MachineStats sn = naive.run();
    const MachineStats sf = ff.run();
    ASSERT_TRUE(sf.finished);
    EXPECT_TRUE(sn == sf);
    EXPECT_EQ(toJson(sn).dump(), toJson(sf).dump());
    // The parent commit's values: neither loop may move them.
    EXPECT_EQ(sf.quanta, 268u);
    EXPECT_EQ(sf.cycles, 58284u);
    for (int c = 0; c < ff.numCores(); ++c) {
        EXPECT_EQ(naive.core(c).detail().all(), ff.core(c).detail().all())
            << "core " << c;
    }
    const MachineState a = captureState(naive, w);
    const MachineState b = captureState(ff, w);
    EXPECT_EQ(a.iregs, b.iregs);
    EXPECT_EQ(a.fregs, b.fregs);
    EXPECT_EQ(a.data, b.data);
}
