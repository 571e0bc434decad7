#include <gtest/gtest.h>

#include "core/processor.hh"
#include "fastpath/engine.hh"
#include "harness/runner.hh"
#include "mem/cache.hh"
#include "trace/synth.hh"

using namespace smtsim;

namespace
{

CacheConfig
cacheCfg(Addr size, Addr line = 32, Cycle penalty = 20)
{
    CacheConfig cfg;
    cfg.size_bytes = size;
    cfg.line_bytes = line;
    cfg.miss_penalty = penalty;
    return cfg;
}

} // namespace

TEST(DirectMapped, ColdMissThenHit)
{
    DirectMappedCache cache(cacheCfg(1024));
    EXPECT_FALSE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x11f));   // same 32-byte line
    EXPECT_FALSE(cache.access(0x120));  // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(DirectMapped, ConflictEviction)
{
    // 1 KiB direct-mapped, 32-byte lines: addresses 1 KiB apart
    // collide.
    DirectMappedCache cache(cacheCfg(1024));
    EXPECT_FALSE(cache.access(0x0000));
    EXPECT_FALSE(cache.access(0x0400));     // evicts 0x0000
    EXPECT_FALSE(cache.access(0x0000));     // miss again
    EXPECT_EQ(cache.misses(), 3u);
}

TEST(DirectMapped, DistinctSetsCoexist)
{
    DirectMappedCache cache(cacheCfg(1024));
    EXPECT_FALSE(cache.access(0x000));
    EXPECT_FALSE(cache.access(0x020));
    EXPECT_TRUE(cache.access(0x000));
    EXPECT_TRUE(cache.access(0x020));
}

TEST(DirectMapped, MissRateAndReset)
{
    DirectMappedCache cache(cacheCfg(256, 32));
    cache.access(0);
    cache.access(0);
    cache.access(0);
    cache.access(0);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.25);
    cache.reset();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.0);
    EXPECT_FALSE(cache.access(0));
}

TEST(DirectMapped, BadConfigRejected)
{
    EXPECT_THROW(DirectMappedCache c(cacheCfg(0)), PanicError);
    EXPECT_THROW(DirectMappedCache c(cacheCfg(1024, 24)),
                 PanicError);
    EXPECT_THROW(DirectMappedCache c(cacheCfg(16, 32)),
                 PanicError);
}

TEST(SetAssociative, TwoWaysToleratePingPong)
{
    // Addresses 1 KiB apart conflict in a 1 KiB direct-mapped
    // cache but coexist with two ways.
    CacheConfig cfg = cacheCfg(1024);
    cfg.ways = 2;
    DirectMappedCache cache(cfg);
    EXPECT_FALSE(cache.access(0x0000));
    EXPECT_FALSE(cache.access(0x0400));
    EXPECT_TRUE(cache.access(0x0000));
    EXPECT_TRUE(cache.access(0x0400));
    EXPECT_EQ(cache.numSets(), 16);
}

TEST(SetAssociative, LruEvictsLeastRecent)
{
    CacheConfig cfg = cacheCfg(1024);
    cfg.ways = 2;
    DirectMappedCache cache(cfg);
    // Three conflicting lines in a 2-way set.
    EXPECT_FALSE(cache.access(0x0000));
    EXPECT_FALSE(cache.access(0x0400));
    EXPECT_TRUE(cache.access(0x0000));      // refresh 0x0000
    EXPECT_FALSE(cache.access(0x0800));     // evicts 0x0400 (LRU)
    EXPECT_TRUE(cache.access(0x0000));
    EXPECT_FALSE(cache.access(0x0400));     // gone
}

TEST(SetAssociative, FullyAssociative)
{
    CacheConfig cfg = cacheCfg(128, 32);
    cfg.ways = 4;       // 4 lines, 1 set
    DirectMappedCache cache(cfg);
    EXPECT_EQ(cache.numSets(), 1);
    for (Addr a : {0u, 0x1000u, 0x2000u, 0x3000u})
        EXPECT_FALSE(cache.access(a));
    for (Addr a : {0u, 0x1000u, 0x2000u, 0x3000u})
        EXPECT_TRUE(cache.access(a));
    EXPECT_FALSE(cache.access(0x4000));     // evicts line 0 (LRU)
    EXPECT_FALSE(cache.access(0x0000));
}

TEST(SetAssociative, HigherAssociativityNeverHurtsMissCount)
{
    // On the ray tracer's access stream, 2-way LRU should not miss
    // more than direct-mapped of the same capacity.
    RayTraceParams rp;
    rp.width = 8;
    rp.height = 8;
    const Workload ray = makeRayTrace(rp);

    auto misses_with_ways = [&](int ways) {
        CoreConfig cfg;
        cfg.num_slots = 4;
        cfg.dcache = cacheCfg(512, 32, 20);
        cfg.dcache.ways = ways;
        const Outcome o = runCore(ray, cfg);
        EXPECT_TRUE(o.ok) << o.error;
        return o.stats.dcache_misses;
    };
    EXPECT_LE(misses_with_ways(2), misses_with_ways(1));
}

TEST(FiniteCache, FunctionalResultsUnchanged)
{
    // Caches affect timing only; every output stays bit-identical.
    RayTraceParams rp;
    rp.width = 8;
    rp.height = 8;
    const Workload ray = makeRayTrace(rp);

    CoreConfig cfg;
    cfg.num_slots = 4;
    cfg.dcache = cacheCfg(512, 32, 30);
    cfg.icache = cacheCfg(256, 32, 30);
    const Outcome o = runCore(ray, cfg);
    EXPECT_TRUE(o.ok) << o.error;
    EXPECT_GT(o.stats.dcache_misses, 0u);
    EXPECT_GT(o.stats.icache_misses, 0u);
}

TEST(FiniteCache, MissesCostCycles)
{
    RayTraceParams rp;
    rp.width = 8;
    rp.height = 8;
    const Workload ray = makeRayTrace(rp);

    CoreConfig perfect;
    perfect.num_slots = 4;
    const Outcome po = runCore(ray, perfect);
    ASSERT_TRUE(po.ok);

    CoreConfig tiny = perfect;
    tiny.dcache = cacheCfg(256, 32, 40);
    const Outcome to = runCore(ray, tiny);
    ASSERT_TRUE(to.ok) << to.error;
    EXPECT_GT(to.stats.cycles, po.stats.cycles);
}

TEST(FiniteCache, LargerCacheMissesLess)
{
    RayTraceParams rp;
    rp.width = 8;
    rp.height = 8;
    const Workload ray = makeRayTrace(rp);

    std::uint64_t prev_misses = ~0ull;
    for (Addr size : {256u, 1024u, 16384u}) {
        CoreConfig cfg;
        cfg.num_slots = 4;
        cfg.dcache = cacheCfg(size, 32, 40);
        const Outcome o = runCore(ray, cfg);
        ASSERT_TRUE(o.ok) << o.error;
        EXPECT_LE(o.stats.dcache_misses, prev_misses)
            << "size " << size;
        prev_misses = o.stats.dcache_misses;
    }
}

TEST(FiniteCache, IcacheWarmLoopMostlyHits)
{
    // A tight loop fits in even a small instruction cache: after
    // the cold start nearly every fetch hits.
    const Workload w = [] {
        RecurrenceParams p;
        p.n = 200;
        p.variant = RecurrenceVariant::Sequential;
        return makeRecurrence(p);
    }();

    CoreConfig cfg;
    cfg.num_slots = 1;
    cfg.icache = cacheCfg(1024, 32, 25);
    const Outcome o = runCore(w, cfg);
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_GT(o.stats.icache_hits, 10 * o.stats.icache_misses);
}

TEST(FiniteCache, EquivalenceWithInterpreterUnderMisses)
{
    SynthParams sp;
    sp.seed = 41;
    sp.iterations = 16;
    sp.parallel = true;
    const Program prog = makeSyntheticKernel(sp);
    const Addr scratch = prog.symbol("scratch");

    MainMemory im;
    prog.loadInto(im);
    InterpConfig icfg;
    icfg.num_threads = 4;
    fastpath::FastEngine interp(prog, im, icfg);
    ASSERT_TRUE(interp.runReference().completed);

    MainMemory cm;
    prog.loadInto(cm);
    CoreConfig cfg;
    cfg.num_slots = 4;
    cfg.dcache = cacheCfg(128, 32, 35);
    cfg.icache = cacheCfg(128, 32, 35);
    MultithreadedProcessor cpu(prog, cm, cfg);
    ASSERT_TRUE(cpu.run().finished);

    for (Addr a = scratch; a < scratch + 8 * 64 * 9; a += 4)
        ASSERT_EQ(cm.read32(a), im.read32(a));
}

TEST(FiniteCache, ThreadsShareTheDataCache)
{
    // With more threads touching disjoint data, a small shared
    // cache thrashes: misses grow with the thread count.
    SynthParams sp;
    sp.seed = 43;
    sp.iterations = 32;
    sp.parallel = true;
    const Program prog = makeSyntheticKernel(sp);

    auto misses_for = [&](int slots) {
        MainMemory mem;
        prog.loadInto(mem);
        CoreConfig cfg;
        cfg.num_slots = slots;
        cfg.dcache = cacheCfg(256, 32, 20);
        MultithreadedProcessor cpu(prog, mem, cfg);
        const RunStats s = cpu.run();
        EXPECT_TRUE(s.finished);
        return s.dcache_misses;
    };
    EXPECT_GT(misses_for(8), misses_for(1));
}
