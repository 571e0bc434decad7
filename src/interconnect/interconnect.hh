/**
 * @file
 * Inter-core memory model for the many-core machine
 * (docs/MANYCORE.md): an address-interleaved banked shared L2
 * behind a ring interconnect with per-hop latency. This is what
 * the remote-memory/context-frame traffic of the elementary
 * processors targets once they are assembled into a machine —
 * replacing the fixed-latency RemoteRegion stub used by a lone
 * core.
 *
 * Timing model (deliberately simple and *sequentially folded*):
 *  - the L2 is split into address-interleaved banks
 *    (bank = (addr / interleave) % banks);
 *  - cores and banks sit on a bidirectional ring; a request pays
 *    hop_latency per hop each way (at least one hop — the bank is
 *    never inside the core);
 *  - each bank has a small file of MSHR-style slots; a request
 *    arriving while all slots are occupied queues until the
 *    earliest slot frees and pays bank_conflict_penalty once;
 *  - a bank slot is occupied for l2_access_cycles per request.
 *
 * Determinism contract: resolve() is a pure fold over the request
 * sequence — given the same requests in the same order it produces
 * the same completion times and the same bank state, regardless of
 * how the requests were batched by the simulator's quantum loop.
 * The machine guarantees a canonical (issue cycle, core, sequence)
 * order, so parallel host schedules are bit-identical to the
 * sequential one (docs/MANYCORE.md has the full argument).
 */

#ifndef SMTSIM_INTERCONNECT_INTERCONNECT_HH
#define SMTSIM_INTERCONNECT_INTERCONNECT_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "base/fields.hh"

namespace smtsim
{

/** Banked-L2 + ring interconnect configuration. */
struct InterconnectConfig
{
    /** Address-interleaved L2 banks. */
    int l2_banks = 4;
    /** Interleave stripe in bytes (one bank services a stripe). */
    Addr bank_interleave = 64;
    /** Outstanding-request (MSHR-style) slots per bank. */
    int mshrs_per_bank = 4;
    /** Bank service time per request, in cycles. */
    Cycle l2_access_cycles = 20;
    /** One-time penalty when a request finds every slot busy. */
    Cycle bank_conflict_penalty = 6;
    /** Ring-hop traversal latency, paid per hop, each way. */
    Cycle hop_latency = 2;
};

/** One remote access in flight from a core to the shared L2. */
struct RemoteRequest
{
    Cycle issued = 0;       ///< cycle the core issued the access
    int core = 0;           ///< requesting core
    int frame = 0;          ///< context frame waiting on the line
    Addr addr = 0;
    /** Per-core issue sequence number; with (issued, core) it makes
     *  the canonical resolution order a total order. */
    std::uint64_t seq = 0;
};

/** Counters exported into MachineStats. */
struct InterconnectStats
{
    std::uint64_t requests = 0;
    /** Requests that queued for a busy bank. */
    std::uint64_t conflicts = 0;
    /** Sum of completion - issue over all requests. */
    std::uint64_t total_latency = 0;
    std::vector<std::uint64_t> bank_accesses;
    std::vector<std::uint64_t> bank_conflicts;

    bool operator==(const InterconnectStats &) const = default;

    /** Field list (base/fields.hh): MachineStats JSON and the
     *  interconnect block of SMTMCKP1 checkpoints, where the
     *  per-bank arrays carry no count (the bank count is
     *  configuration). */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &s)
    {
        ar("requests", s.requests);
        ar("conflicts", s.conflicts);
        ar("total_latency", s.total_latency);
        ar("bank_accesses", FixedSize{s.bank_accesses});
        ar("bank_conflicts", FixedSize{s.bank_conflicts});
    }
};

/**
 * The machine-wide shared L2 + ring. Mutable state is one
 * busy-until time per bank MSHR slot; everything else is pure
 * topology arithmetic.
 */
class Interconnect
{
  public:
    /**
     * @throws FatalError on a non-positive bank/slot count, an
     * interleave below one word, or a topology whose minimum
     * uncontended latency is below 2 cycles (the quantum-based
     * parallel schedule needs at least one cycle of slack —
     * docs/MANYCORE.md).
     */
    Interconnect(const InterconnectConfig &cfg, int num_cores);

    int numBanks() const { return cfg_.l2_banks; }
    int numCores() const { return num_cores_; }
    const InterconnectConfig &config() const { return cfg_; }

    /** Bank servicing @p addr (address-interleaved). */
    int bankOf(Addr addr) const;

    /** Ring distance (>= 1) between @p core and @p bank. */
    int hops(int core, int bank) const;

    /**
     * Request + response traversal plus one bank service, assuming
     * an idle bank. This is also the latency explicit-rotation
     * cores charge for their inline (non-trapping) remote waits.
     */
    Cycle uncontendedLatency(int core, Addr addr) const;

    /** Smallest uncontendedLatency over every (core, bank) pair —
     *  the bound the machine's quantum must stay under. */
    Cycle minLatency() const;

    /**
     * Fold one request through the bank model and return the cycle
     * its data is back at the requesting core. Callers must present
     * requests in canonical (issued, core, seq) order; the machine's
     * barrier does. Completion is always >= issued + minLatency().
     */
    Cycle resolve(const RemoteRequest &req);

    const InterconnectStats &stats() const { return stats_; }

    /** Config + topology digest folded into machine fingerprints. */
    std::uint64_t fingerprint() const;

    /** Checkpoint field list (base/serial.hh): the mutable bank
     *  state, then the counters. A reader rejects a bank or MSHR
     *  count that differs from this interconnect's. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &noc)
    {
        ar.shape("bank", noc.bank_slots_, [&ar](auto &slots) {
            ar.shape("MSHR", slots,
                     [&ar](auto &busy) { ar("busy_until", busy); });
        });
        ar("stats", noc.stats_);
    }

  private:
    InterconnectConfig cfg_;
    int num_cores_;
    /** busy-until cycle per (bank, MSHR slot). */
    std::vector<std::vector<Cycle>> bank_slots_;
    InterconnectStats stats_;
};

} // namespace smtsim

#endif // SMTSIM_INTERCONNECT_INTERCONNECT_HH
