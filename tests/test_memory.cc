#include <gtest/gtest.h>

#include "mem/memory.hh"

using namespace smtsim;

TEST(Memory, UntouchedReadsZero)
{
    MainMemory mem;
    EXPECT_EQ(mem.read8(0x1234), 0u);
    EXPECT_EQ(mem.read32(0xdead0000), 0u);
    EXPECT_EQ(mem.read64(0x80000000), 0u);
    EXPECT_EQ(mem.residentPages(), 0u);
}

TEST(Memory, ByteRoundTrip)
{
    MainMemory mem;
    mem.write8(7, 0xab);
    EXPECT_EQ(mem.read8(7), 0xabu);
    EXPECT_EQ(mem.read8(6), 0u);
    EXPECT_EQ(mem.read8(8), 0u);
}

TEST(Memory, Word32LittleEndian)
{
    MainMemory mem;
    mem.write32(0x100, 0xdeadbeefu);
    EXPECT_EQ(mem.read8(0x100), 0xefu);
    EXPECT_EQ(mem.read8(0x101), 0xbeu);
    EXPECT_EQ(mem.read8(0x102), 0xadu);
    EXPECT_EQ(mem.read8(0x103), 0xdeu);
    EXPECT_EQ(mem.read32(0x100), 0xdeadbeefu);
}

TEST(Memory, Word64RoundTrip)
{
    MainMemory mem;
    mem.write64(0x200, 0x0123456789abcdefull);
    EXPECT_EQ(mem.read64(0x200), 0x0123456789abcdefull);
    EXPECT_EQ(mem.read32(0x200), 0x89abcdefu);
    EXPECT_EQ(mem.read32(0x204), 0x01234567u);
}

TEST(Memory, DoubleRoundTrip)
{
    MainMemory mem;
    mem.writeDouble(0x300, -3.25);
    EXPECT_DOUBLE_EQ(mem.readDouble(0x300), -3.25);
    mem.writeDouble(0x308, 1e300);
    EXPECT_DOUBLE_EQ(mem.readDouble(0x308), 1e300);
}

TEST(Memory, CrossPageAccess)
{
    MainMemory mem;
    const Addr boundary = MainMemory::kPageBytes;
    mem.write32(boundary - 2, 0x11223344u);
    EXPECT_EQ(mem.read32(boundary - 2), 0x11223344u);
    EXPECT_EQ(mem.residentPages(), 2u);
}

TEST(Memory, LoadBytesAndWords)
{
    MainMemory mem;
    mem.loadBytes(0x10, {1, 2, 3});
    EXPECT_EQ(mem.read8(0x10), 1u);
    EXPECT_EQ(mem.read8(0x12), 3u);
    mem.loadWords(0x20, {0xaabbccddu, 0x11223344u});
    EXPECT_EQ(mem.read32(0x20), 0xaabbccddu);
    EXPECT_EQ(mem.read32(0x24), 0x11223344u);
}

TEST(Memory, OverwriteKeepsLatest)
{
    MainMemory mem;
    mem.write32(0x40, 1);
    mem.write32(0x40, 2);
    EXPECT_EQ(mem.read32(0x40), 2u);
}

TEST(Memory, PageCacheSeesPagesTouchedBehindIt)
{
    MainMemory mem;
    const Addr page = MainMemory::kPageBytes;
    // Cache the page as untouched, then materialize it through a
    // page-straddling write and a block load.
    EXPECT_EQ(mem.read32(3 * page + 8), 0u);
    mem.write32(3 * page - 2, 0xa1b2c3d4u);
    EXPECT_EQ(mem.read32(3 * page - 2), 0xa1b2c3d4u);
    EXPECT_EQ(mem.read8(3 * page + 1), 0xa1u);
    EXPECT_EQ(mem.read32(5 * page + 4), 0u);
    mem.loadBytes(5 * page - 1, {9, 8, 7});
    EXPECT_EQ(mem.read32(5 * page), 0x0708u);
    mem.write64(7 * page - 4, 0x0102030405060708ull);
    EXPECT_EQ(mem.read64(7 * page - 4), 0x0102030405060708ull);
    // reset() drops the cached page along with the table.
    mem.reset();
    EXPECT_EQ(mem.read32(3 * page - 2), 0u);
    EXPECT_EQ(mem.residentPages(), 0u);
}

TEST(Memory, CopiesDoNotShareTheCachedPage)
{
    MainMemory a;
    a.write32(0x100, 1);
    MainMemory b = a;
    b.write32(0x100, 2);        // b's own page, not a's
    EXPECT_EQ(a.read32(0x100), 1u);
    EXPECT_EQ(b.read32(0x100), 2u);
    a = b;
    a.write32(0x104, 3);
    EXPECT_EQ(b.read32(0x104), 0u);
    EXPECT_EQ(a.read32(0x100), 2u);
}

TEST(RemoteRegionTest, Contains)
{
    RemoteRegion r;
    EXPECT_FALSE(r.contains(0));    // size 0: nothing is remote

    r.base = 0x1000;
    r.size = 0x100;
    r.latency = 50;
    EXPECT_TRUE(r.contains(0x1000));
    EXPECT_TRUE(r.contains(0x10ff));
    EXPECT_FALSE(r.contains(0x1100));
    EXPECT_FALSE(r.contains(0xfff));
}
