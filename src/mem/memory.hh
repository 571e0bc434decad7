/**
 * @file
 * Flat simulated memory with sparse backing storage.
 *
 * The paper's evaluation assumes perfect caches ("attempts to access
 * caches were all hit"), so functional memory plus fixed access
 * latencies in the pipeline models is the faithful reproduction. A
 * remote-region model (RemoteRegion) supports the concurrent-
 * multithreading extension, where accesses to a distinguished address
 * range take a long, configurable latency and trigger the
 * data-absence trap of section 2.1.3.
 */

#ifndef SMTSIM_MEM_MEMORY_HH
#define SMTSIM_MEM_MEMORY_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/types.hh"

namespace smtsim
{

/**
 * Byte-addressable sparse memory. Pages are allocated (zero-filled)
 * on first touch; unwritten memory reads as zero.
 *
 * A one-entry page cache keeps runs of accesses to one page (nearly
 * all of them) out of the hash table. Reads update the cache, so a
 * MainMemory must not be read from two host threads at once; every
 * engine owns its memory.
 */
class MainMemory
{
  public:
    static constexpr Addr kPageBytes = 1u << 16;

    std::uint8_t
    read8(Addr addr) const
    {
        const std::uint8_t *p = readPage(addr);
        return p ? p[addr % kPageBytes] : 0;
    }

    void
    write8(Addr addr, std::uint8_t value)
    {
        writePage(addr)[addr % kPageBytes] = value;
    }

    std::uint32_t
    read32(Addr addr) const
    {
        const Addr off = addr % kPageBytes;
        if (off > kPageBytes - 4) [[unlikely]]
            return static_cast<std::uint32_t>(readStraddling(addr, 4));
        const std::uint8_t *p = readPage(addr);
        return p ? static_cast<std::uint32_t>(load(p + off, 4)) : 0;
    }

    void
    write32(Addr addr, std::uint32_t value)
    {
        const Addr off = addr % kPageBytes;
        if (off > kPageBytes - 4) [[unlikely]]
            writeStraddling(addr, value, 4);
        else
            store(writePage(addr) + off, value, 4);
    }

    std::uint64_t
    read64(Addr addr) const
    {
        const Addr off = addr % kPageBytes;
        if (off > kPageBytes - 8) [[unlikely]]
            return readStraddling(addr, 8);
        const std::uint8_t *p = readPage(addr);
        return p ? load(p + off, 8) : 0;
    }

    void
    write64(Addr addr, std::uint64_t value)
    {
        const Addr off = addr % kPageBytes;
        if (off > kPageBytes - 8) [[unlikely]]
            writeStraddling(addr, value, 8);
        else
            store(writePage(addr) + off, value, 8);
    }

    double
    readDouble(Addr addr) const
    {
        return std::bit_cast<double>(read64(addr));
    }

    void
    writeDouble(Addr addr, double value)
    {
        write64(addr, std::bit_cast<std::uint64_t>(value));
    }

    /** Copy a block of bytes into memory (program loading). */
    void loadBytes(Addr base, const std::vector<std::uint8_t> &bytes);

    /** Copy a block of 32-bit words into memory (text loading). */
    void loadWords(Addr base, const std::vector<std::uint32_t> &words);

    /** Number of resident pages (for tests). */
    size_t residentPages() const { return pages_.size(); }

    using Page = std::vector<std::uint8_t>;

    /**
     * Checkpoint support: the raw page table, keyed by page index.
     * Iteration order is unspecified — serializers must sort by
     * base address to keep checkpoints byte-stable.
     */
    const std::unordered_map<Addr, Page> &pages() const
    {
        return pages_;
    }

    /** Drop every resident page (restore starts from empty). */
    void
    reset()
    {
        pages_.clear();
        cache_ = {};
    }

  private:
    /**
     * The page last accessed: its index and storage, or nullptr
     * while that page is untouched. Storage pointers stay valid
     * until reset() (pages are unordered_map nodes and never
     * resize); a copied or moved-to memory starts with an empty
     * cache, since the pointer names the source's page.
     */
    struct PageCache
    {
        Addr index = ~Addr{0};      ///< never a page index
        std::uint8_t *data = nullptr;

        PageCache() = default;
        PageCache(const PageCache &) {}
        PageCache &
        operator=(const PageCache &)
        {
            index = ~Addr{0};
            data = nullptr;
            return *this;
        }
    };

    /** Storage of the page holding @p addr, nullptr if untouched. */
    const std::uint8_t *
    readPage(Addr addr) const
    {
        const Addr index = addr / kPageBytes;
        if (index != cache_.index)
            lookUp(index);
        return cache_.data;
    }

    /** Storage of the page holding @p addr, allocated if needed. */
    std::uint8_t *
    writePage(Addr addr)
    {
        const Addr index = addr / kPageBytes;
        if (index != cache_.index || cache_.data == nullptr)
            touch(index);
        return cache_.data;
    }

    /** Little-endian value of @p bytes bytes at @p p. */
    static std::uint64_t
    load(const std::uint8_t *p, int bytes)
    {
        std::uint64_t v = 0;
        for (int i = 0; i < bytes; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        return v;
    }

    static void
    store(std::uint8_t *p, std::uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    void lookUp(Addr index) const;
    void touch(Addr index);
    std::uint64_t readStraddling(Addr addr, int bytes) const;
    void writeStraddling(Addr addr, std::uint64_t value, int bytes);

    std::unordered_map<Addr, Page> pages_;
    mutable PageCache cache_;
};

/**
 * Marks an address range as "remote" for concurrent multithreading:
 * loads/stores inside it miss locally and complete only after
 * @c latency cycles, triggering a context switch in the core model.
 */
struct RemoteRegion
{
    Addr base = 0;
    Addr size = 0;
    Cycle latency = 0;

    bool
    contains(Addr addr) const
    {
        return size > 0 && addr >= base && addr - base < size;
    }

    /** Field list (base/fields.hh) of the lab's config JSON. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &s)
    {
        ar("base", s.base);
        ar("size", s.size);
        ar("latency", s.latency);
    }
};

} // namespace smtsim

#endif // SMTSIM_MEM_MEMORY_HH
