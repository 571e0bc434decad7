#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "asmr/assembler.hh"
#include "fastpath/engine.hh"
#include "lab/lab.hh"
#include "trace/synth.hh"
#include "core/processor.hh"
#include "mem/memory.hh"

using namespace smtsim;

namespace
{

constexpr Addr kRemoteBase = 0x00400000;

/**
 * Parameterized worker: sums r2 words starting at r1, stores the
 * sum to 0(r6). The entry context (no parameters) falls through
 * immediately; real work arrives via spawnContext with seeded
 * registers.
 */
const char *kWorker = R"(
main:   blez r2, done
loop:   lw   r3, 0(r1)
        add  r4, r4, r3
        addi r1, r1, 4
        addi r2, r2, -1
        bgtz r2, loop
        sw   r4, 0(r6)
done:   halt
        .data
outs:   .word 0, 0, 0, 0, 0, 0, 0, 0
)";

struct RemoteSetup
{
    Program prog;
    MainMemory mem;
    Addr outs;

    explicit RemoteSetup(int words_per_ctx, int num_ctxs)
        : prog(assemble(kWorker))
    {
        prog.loadInto(mem);
        outs = prog.symbol("outs");
        for (int i = 0; i < words_per_ctx * num_ctxs; ++i) {
            mem.write32(kRemoteBase + static_cast<Addr>(4 * i),
                        static_cast<std::uint32_t>(i + 1));
        }
    }

    /** Expected sum for context @p c of @p n words. */
    std::uint32_t
    expected(int c, int n) const
    {
        std::uint32_t sum = 0;
        for (int i = 0; i < n; ++i)
            sum += static_cast<std::uint32_t>(c * n + i + 1);
        return sum;
    }
};

std::array<std::uint32_t, kNumRegs>
workerRegs(const RemoteSetup &s, int ctx, int words)
{
    std::array<std::uint32_t, kNumRegs> regs{};
    regs[1] = kRemoteBase + static_cast<Addr>(4 * ctx * words);
    regs[2] = static_cast<std::uint32_t>(words);
    regs[6] = s.outs + static_cast<Addr>(4 * ctx);
    return regs;
}

CoreConfig
remoteConfig(int slots, int frames, Cycle latency)
{
    CoreConfig cfg;
    cfg.num_slots = slots;
    cfg.num_frames = frames;
    cfg.remote.base = kRemoteBase;
    cfg.remote.size = 0x10000;
    cfg.remote.latency = latency;
    return cfg;
}

} // namespace

TEST(Concurrent, RemoteAccessesTrapAndStillComputeCorrectly)
{
    const int words = 8;
    RemoteSetup s(words, 1);
    CoreConfig cfg = remoteConfig(1, 2, 100);
    MultithreadedProcessor cpu(s.prog, s.mem, cfg);
    cpu.spawnContext(s.prog.entry, workerRegs(s, 0, words));
    const RunStats stats = cpu.run();
    ASSERT_TRUE(stats.finished);
    EXPECT_EQ(s.mem.read32(s.outs), s.expected(0, words));
    // Every remote word misses once.
    EXPECT_EQ(stats.context_switches,
              static_cast<std::uint64_t>(words));
}

TEST(Concurrent, SatisfiedLineDoesNotTrapTwice)
{
    // Two loads of the same word: the second hits the satisfied
    // line only if re-executed immediately; here distinct words
    // each trap exactly once, so switches == distinct words.
    const int words = 4;
    RemoteSetup s(words, 1);
    CoreConfig cfg = remoteConfig(1, 2, 50);
    MultithreadedProcessor cpu(s.prog, s.mem, cfg);
    cpu.spawnContext(s.prog.entry, workerRegs(s, 0, words));
    const RunStats stats = cpu.run();
    ASSERT_TRUE(stats.finished);
    EXPECT_EQ(stats.context_switches, 4u);
}

TEST(Concurrent, ExtraContextFramesHideRemoteLatency)
{
    // One thread slot, four context frames: while one context waits
    // on remote memory the slot runs another, so four contexts cost
    // far less than four times one context (section 2.1.3's goal).
    const int words = 6;
    const Cycle latency = 300;

    RemoteSetup s1(words, 1);
    CoreConfig c1 = remoteConfig(1, 2, latency);
    MultithreadedProcessor cpu1(s1.prog, s1.mem, c1);
    cpu1.spawnContext(s1.prog.entry, workerRegs(s1, 0, words));
    const RunStats r1 = cpu1.run();
    ASSERT_TRUE(r1.finished);

    RemoteSetup s4(words, 4);
    CoreConfig c4 = remoteConfig(1, 5, latency);
    MultithreadedProcessor cpu4(s4.prog, s4.mem, c4);
    for (int c = 0; c < 4; ++c)
        cpu4.spawnContext(s4.prog.entry, workerRegs(s4, c, words));
    const RunStats r4 = cpu4.run();
    ASSERT_TRUE(r4.finished);
    for (int c = 0; c < 4; ++c) {
        EXPECT_EQ(s4.mem.read32(s4.outs + static_cast<Addr>(4 * c)),
                  s4.expected(c, words));
    }

    EXPECT_LT(static_cast<double>(r4.cycles),
              2.0 * static_cast<double>(r1.cycles));
}

TEST(Concurrent, MoreSlotsAndFramesScaleTogether)
{
    const int words = 6;
    RemoteSetup s(words, 8);
    CoreConfig cfg = remoteConfig(2, 9, 200);
    MultithreadedProcessor cpu(s.prog, s.mem, cfg);
    for (int c = 0; c < 8; ++c)
        cpu.spawnContext(s.prog.entry, workerRegs(s, c, words));
    const RunStats stats = cpu.run();
    ASSERT_TRUE(stats.finished);
    for (int c = 0; c < 8; ++c) {
        EXPECT_EQ(s.mem.read32(s.outs + static_cast<Addr>(4 * c)),
                  s.expected(c, words));
    }
    EXPECT_GT(stats.context_switches, 0u);
}

TEST(Concurrent, ExplicitRotationSuppressesSwitches)
{
    // Section 2.3.1: in explicit-rotation mode a data absence does
    // not switch contexts; the thread waits out the latency.
    const int words = 4;
    RemoteSetup s(words, 1);
    CoreConfig cfg = remoteConfig(1, 2, 80);
    cfg.rotation_mode = RotationMode::Explicit;
    MultithreadedProcessor cpu(s.prog, s.mem, cfg);
    cpu.spawnContext(s.prog.entry, workerRegs(s, 0, words));
    const RunStats stats = cpu.run();
    ASSERT_TRUE(stats.finished);
    EXPECT_EQ(stats.context_switches, 0u);
    EXPECT_EQ(s.mem.read32(s.outs), s.expected(0, words));
}

TEST(Concurrent, RemoteStoresTrapToo)
{
    RemoteSetup s(1, 1);
    // Store directly into the remote region.
    const Program prog = assemble(R"(
main:   li   r1, 42
        li   r2, 0x00400100
        sw   r1, 0(r2)
        lw   r3, 0(r2)
        li   r4, 0x00400f00
        sw   r3, 0(r4)
        halt
)");
    MainMemory mem;
    prog.loadInto(mem);
    CoreConfig cfg = remoteConfig(1, 2, 60);
    MultithreadedProcessor cpu(prog, mem, cfg);
    const RunStats stats = cpu.run();
    ASSERT_TRUE(stats.finished);
    EXPECT_GE(stats.context_switches, 2u);
    EXPECT_EQ(mem.read32(0x00400100), 42u);
    EXPECT_EQ(mem.read32(0x00400f00), 42u);
}

TEST(Concurrent, SpawnWithoutFreeFrameFails)
{
    RemoteSetup s(1, 1);
    CoreConfig cfg = remoteConfig(1, 2, 10);
    MultithreadedProcessor cpu(s.prog, s.mem, cfg);
    cpu.spawnContext(s.prog.entry);     // frame 1 (0 is the entry)
    EXPECT_THROW(cpu.spawnContext(s.prog.entry), FatalError);
}

TEST(Concurrent, NoRemoteRegionMeansNoSwitches)
{
    const int words = 8;
    RemoteSetup s(words, 1);
    CoreConfig cfg;
    cfg.num_slots = 1;
    cfg.num_frames = 2;     // entry context + one worker
    MultithreadedProcessor cpu(s.prog, s.mem, cfg);
    cpu.spawnContext(s.prog.entry, workerRegs(s, 0, words));
    const RunStats stats = cpu.run();
    ASSERT_TRUE(stats.finished);
    EXPECT_EQ(stats.context_switches, 0u);
    EXPECT_EQ(s.mem.read32(s.outs), s.expected(0, words));
}

TEST(Concurrent, EquivalenceUnderTrapsOnSyntheticKernel)
{
    // Remote region overlaying part of the synthetic kernel's
    // scratch data: traps fire mid-computation, threads switch in
    // and out, and the final memory image must still match the
    // functional golden model exactly.
    SynthParams sp;
    sp.seed = 61;
    sp.iterations = 12;
    sp.parallel = true;
    const Program prog = makeSyntheticKernel(sp);
    const Addr scratch = prog.symbol("scratch");

    MainMemory im;
    prog.loadInto(im);
    InterpConfig icfg;
    icfg.num_threads = 2;
    fastpath::FastEngine interp(prog, im, icfg);
    ASSERT_TRUE(interp.runReference().completed);

    MainMemory cm;
    prog.loadInto(cm);
    CoreConfig cfg;
    cfg.num_slots = 2;
    cfg.num_frames = 4;
    cfg.remote.base = scratch;
    cfg.remote.size = 512;      // first thread's slice is remote
    cfg.remote.latency = 40;
    MultithreadedProcessor cpu(prog, cm, cfg);
    const RunStats stats = cpu.run();
    ASSERT_TRUE(stats.finished);
    EXPECT_GT(stats.context_switches, 0u);

    for (Addr a = scratch; a < scratch + 8 * 64 * 9; a += 4)
        ASSERT_EQ(cm.read32(a), im.read32(a));
}

TEST(Concurrent, TrapsInterleaveWithNormalThreads)
{
    // One context touches remote data while another runs purely
    // local code; both finish and the local thread is barely
    // disturbed.
    RemoteSetup s(16, 1);
    CoreConfig cfg = remoteConfig(2, 3, 400);
    MultithreadedProcessor cpu(s.prog, s.mem, cfg);
    cpu.spawnContext(s.prog.entry, workerRegs(s, 0, 16));
    const RunStats stats = cpu.run();
    ASSERT_TRUE(stats.finished);
    EXPECT_EQ(s.mem.read32(s.outs), s.expected(0, 16));
    EXPECT_EQ(stats.context_switches, 16u);
}

// -- shared result cache ------------------------------------------
//
// The on-disk cache is shared state between executors: multiple
// sweeps (threads here; smtsim-serve dispatchers and plain
// smtsim-sweep processes in production) read, write and evict one
// directory concurrently. These run under TSan in CI.

namespace
{

struct CacheDir
{
    std::filesystem::path path;

    explicit CacheDir(const char *tag)
        : path(std::filesystem::temp_directory_path() /
               (std::string("smtsim-conc-") + tag))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~CacheDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

std::vector<lab::Job>
sharedJobs()
{
    lab::ExperimentSpec spec;
    spec.name = "conc";
    spec.workloads = {lab::WorkloadSpec::matmul(6)};
    spec.slots = {1, 2};
    spec.standby = {false, true};
    return spec.expand();
}

} // namespace

TEST(Concurrent, SweepsSharingOneCacheDirAgree)
{
    const CacheDir dir("sweeps");
    const std::vector<lab::Job> jobs = sharedJobs();

    lab::LabOptions opts;
    opts.num_threads = 2;
    opts.cache_dir = dir.path.string();

    // Two executors race over the same jobs and the same cache
    // directory: whoever loses a store race must still read back a
    // whole record (atomic rename) or an ordinary miss, never a
    // torn one.
    lab::ResultSet a, b;
    std::thread ta([&] { a = lab::runJobs(jobs, opts); });
    std::thread tb([&] { b = lab::runJobs(jobs, opts); });
    ta.join();
    tb.join();

    ASSERT_EQ(a.results.size(), jobs.size());
    ASSERT_EQ(b.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(a.results[i].ok) << a.results[i].error;
        ASSERT_TRUE(b.results[i].ok) << b.results[i].error;
        // Simulation is deterministic, so sim and cached results
        // are indistinguishable apart from the from_cache flag.
        EXPECT_EQ(a.results[i].stats.cycles,
                  b.results[i].stats.cycles);
        EXPECT_EQ(a.results[i].key, b.results[i].key);
    }

    // Everything is cached now: a third sweep simulates nothing.
    const lab::ResultSet c = lab::runJobs(jobs, opts);
    EXPECT_EQ(c.cacheHits(), jobs.size());
}

TEST(Concurrent, CacheLoadStoreEvictRacesStayWhole)
{
    const CacheDir dir("hammer");
    const std::vector<lab::Job> jobs = sharedJobs();

    // Golden records, simulated once up front.
    std::vector<lab::JobResult> golden;
    for (const lab::Job &job : jobs)
        golden.push_back(lab::simulateJob(job));

    // A deliberately tiny budget so enforceLimit() actually evicts
    // while other threads are mid-load on the same records.
    const lab::ResultCache cache(dir.path.string(), 4096);

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 25; ++round) {
                const std::size_t i =
                    static_cast<std::size_t>(t + round) %
                    jobs.size();
                cache.store(jobs[i], golden[i]);
                lab::JobResult out;
                if (cache.load(jobs[i], &out)) {
                    // A hit is the full record or nothing.
                    EXPECT_EQ(out.key, golden[i].key);
                    EXPECT_EQ(out.stats.cycles,
                              golden[i].stats.cycles);
                    EXPECT_TRUE(out.from_cache);
                }
                if (round % 8 == 0)
                    cache.enforceLimit();
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    // The budget held (allow one record of slack for a store that
    // raced the final eviction pass).
    cache.enforceLimit();
    EXPECT_LE(cache.diskBytes(), 4096u + 2048u);
}
