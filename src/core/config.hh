/**
 * @file
 * Configuration of the multithreaded processor (the paper's machine
 * model, section 2.1).
 */

#ifndef SMTSIM_CORE_CONFIG_HH
#define SMTSIM_CORE_CONFIG_HH

#include <array>
#include <cstdint>

#include "base/fields.hh"
#include "base/types.hh"
#include "machine/fu_pool.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"

namespace smtsim
{

/** Instruction-schedule-unit priority rotation mode (section 2.2). */
enum class RotationMode
{
    Implicit,   ///< rotate every rotation_interval cycles
    Explicit    ///< rotate on change-priority instructions only
};

/** RotationMode's JSON spellings, in enumerator order. */
inline constexpr std::array<const char *, 2> kRotationModeNames{
    "implicit", "explicit"};

/** Multithreaded-core configuration. */
struct CoreConfig
{
    /** Number of thread slots S (logical processors). */
    int num_slots = 4;
    /**
     * Number of context frames (register banks). -1 means "equal to
     * num_slots"; larger values enable concurrent multithreading.
     */
    int num_frames = -1;
    /** Per-slot issue width D (Table 3's hybrid processors). */
    int width = 1;
    /** Functional-unit inventory (shared by all slots). */
    FuPoolConfig fus;
    /** Standby stations present (Table 2 ablation). */
    bool standby_enabled = true;

    RotationMode rotation_mode = RotationMode::Implicit;
    /** Rotation interval in cycles (paper sweeps 2^n, default 8). */
    int rotation_interval = 8;

    /** Private per-slot instruction cache + fetch unit (3.2). */
    bool private_icache = false;
    /** Instruction/data cache access cycles C (paper: 2). */
    int icache_cycles = 2;
    /**
     * Instruction-queue capacity in words. -1 selects the paper's
     * "at least B = S * C" (scaled by the issue width D) plus one
     * cache access worth of slack, which covers the fetch latency
     * so a lone thread is not starved.
     */
    int iqueue_words = -1;

    /** Queue-register FIFO depth (Figure 5 shows 4 entries). */
    int queue_reg_depth = 4;

    /**
     * Cycle gap between a branch resolving in decode and the next
     * instruction of the same thread reaching decode, absent fetch
     * contention (paper: 5 = D1 + 2-cycle cache + 2 IF stages).
     */
    int branch_gap = 5;

    /** Pipeline refill cost when binding a context to a slot. */
    int context_switch_cycles = 2;

    /** Remote-memory region for concurrent multithreading (off by
     *  default, matching the paper's all-hit assumption). */
    RemoteRegion remote;

    /**
     * Finite cache models (the paper's future work; disabled by
     * default, matching its all-hit simulation). The data cache
     * adds miss_penalty cycles to a missing access's result
     * latency; the instruction cache delays fetch-block delivery
     * per missing line. Both are shared by all thread slots.
     */
    CacheConfig dcache;
    CacheConfig icache;

    /**
     * Idle-cycle fast-forward: when a cycle provably admits no
     * state change (every slot drained or stalled on a known-future
     * event), jump straight to the next event cycle instead of
     * walking every phase. Simulated cycle counts, statistics and
     * rotation phase are bit-identical either way (docs/PERF.md);
     * the flag exists so the naive loop stays available as the
     * oracle for the cycle-exactness tests.
     */
    bool fast_forward = true;

    std::uint64_t max_cycles = 2'000'000'000ull;

    int
    frames() const
    {
        return num_frames < 0 ? num_slots : num_frames;
    }

    /** One fetch operation brings at most this many words (B). */
    int
    fetchBlockWords() const
    {
        return num_slots * icache_cycles * width;
    }

    int
    iqueueWords() const
    {
        return iqueue_words < 0
                   ? fetchBlockWords() + icache_cycles * width
                   : iqueue_words;
    }

    /** Field list (base/fields.hh) of the lab's config JSON. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &s)
    {
        ar("num_slots", s.num_slots);
        ar("num_frames", s.num_frames);
        ar("width", s.width);
        ar("fus", s.fus);
        ar("standby_enabled", s.standby_enabled);
        ar("rotation_mode", Named{s.rotation_mode, kRotationModeNames});
        ar("rotation_interval", s.rotation_interval);
        ar("private_icache", s.private_icache);
        ar("icache_cycles", s.icache_cycles);
        ar("iqueue_words", s.iqueue_words);
        ar("queue_reg_depth", s.queue_reg_depth);
        ar("branch_gap", s.branch_gap);
        ar("context_switch_cycles", s.context_switch_cycles);
        ar("remote", s.remote);
        ar("dcache", s.dcache);
        ar("icache", s.icache);
        ar("fast_forward", s.fast_forward);
        ar("max_cycles", s.max_cycles);
    }
};

} // namespace smtsim

#endif // SMTSIM_CORE_CONFIG_HH
