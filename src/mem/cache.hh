/**
 * @file
 * Finite cache model (the paper's stated future work: "We are
 * currently working on evaluating finite cache effects").
 *
 * A simple direct-mapped cache with configurable size, line size
 * and miss penalty. It affects timing only: data is always
 * functionally available from MainMemory, and the pipeline models
 * lengthen the access latency on a miss (non-blocking: the unit
 * keeps accepting subsequent accesses).
 */

#ifndef SMTSIM_MEM_CACHE_HH
#define SMTSIM_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace smtsim
{

/** Finite-cache parameters; size 0 means "perfect cache". */
struct CacheConfig
{
    /** Total capacity in bytes (0 disables the model). */
    Addr size_bytes = 0;
    /** Line size in bytes (power of two). */
    Addr line_bytes = 32;
    /** Associativity (1 = direct-mapped); LRU replacement. */
    int ways = 1;
    /** Extra cycles added to an access that misses. */
    Cycle miss_penalty = 20;

    bool enabled() const { return size_bytes > 0; }

    /** Field list (base/fields.hh) of the lab's config JSON. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &s)
    {
        ar("size_bytes", s.size_bytes);
        ar("line_bytes", s.line_bytes);
        ar("ways", s.ways);
        ar("miss_penalty", s.miss_penalty);
    }
};

/**
 * Set-associative tag store with true-LRU replacement
 * (direct-mapped when ways == 1).
 */
class DirectMappedCache
{
  public:
    explicit DirectMappedCache(const CacheConfig &cfg);

    /**
     * Probe (and on a miss, fill) the line holding @p addr.
     * @return true on a hit.
     */
    bool access(Addr addr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total == 0 ? 0.0
                          : static_cast<double>(misses_) /
                                static_cast<double>(total);
    }

    const CacheConfig &config() const { return cfg_; }
    int numSets() const { return num_sets_; }

    void reset();

    /** Checkpoint field list (base/serial.hh): the tag store, whose
     *  shape a reader requires to match, then the LRU clock and the
     *  counters. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &c)
    {
        ar.shape("cache way", c.ways_, [&ar](auto &way) {
            ar("tag", way.tag);
            ar("last_used", way.last_used);
        });
        ar("tick", c.tick_);
        ar("hits", c.hits_);
        ar("misses", c.misses_);
    }

  private:
    struct Way
    {
        std::uint64_t tag;
        std::uint64_t last_used;
    };

    CacheConfig cfg_;
    int line_shift_ = 0;
    int num_sets_ = 0;
    /** num_sets_ x ways entries, row-major. */
    std::vector<Way> ways_;
    std::uint64_t tick_ = 0;    ///< LRU clock
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace smtsim

#endif // SMTSIM_MEM_CACHE_HH
