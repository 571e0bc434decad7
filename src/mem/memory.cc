#include "memory.hh"

#include <algorithm>
#include <cstring>

namespace smtsim
{

void
MainMemory::lookUp(Addr index) const
{
    auto it = pages_.find(index);
    cache_.index = index;
    // The cache serves writes too; the page itself is mutable.
    cache_.data = it == pages_.end()
                      ? nullptr
                      : const_cast<std::uint8_t *>(it->second.data());
}

void
MainMemory::touch(Addr index)
{
    Page &page = pages_[index];
    if (page.empty())
        page.assign(kPageBytes, 0);
    cache_.index = index;
    cache_.data = page.data();
}

std::uint64_t
MainMemory::readStraddling(Addr addr, int bytes) const
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(read8(addr + i)) << (8 * i);
    return v;
}

void
MainMemory::writeStraddling(Addr addr, std::uint64_t value, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        write8(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

void
MainMemory::loadBytes(Addr base, const std::vector<std::uint8_t> &bytes)
{
    // One page at a time; addresses wrap at 2^32 like byte writes.
    std::size_t done = 0;
    while (done < bytes.size()) {
        const Addr addr = base + static_cast<Addr>(done);
        const Addr off = addr % kPageBytes;
        const std::size_t n = std::min<std::size_t>(
            kPageBytes - off, bytes.size() - done);
        std::memcpy(writePage(addr) + off, bytes.data() + done, n);
        done += n;
    }
}

void
MainMemory::loadWords(Addr base, const std::vector<std::uint32_t> &words)
{
    for (size_t i = 0; i < words.size(); ++i)
        write32(base + static_cast<Addr>(4 * i), words[i]);
}

} // namespace smtsim
