#include "interconnect.hh"

#include <algorithm>

#include "base/hash.hh"
#include "base/logging.hh"

namespace smtsim
{

Interconnect::Interconnect(const InterconnectConfig &cfg,
                           int num_cores)
    : cfg_(cfg), num_cores_(num_cores)
{
    if (num_cores_ < 1)
        fatal("interconnect: need at least one core, got ",
              num_cores_);
    if (cfg_.l2_banks < 1)
        fatal("interconnect: need at least one L2 bank, got ",
              cfg_.l2_banks);
    if (cfg_.mshrs_per_bank < 1)
        fatal("interconnect: need at least one MSHR per bank, got ",
              cfg_.mshrs_per_bank);
    if (cfg_.bank_interleave < 4)
        fatal("interconnect: bank interleave must be at least one "
              "word (4 bytes), got ", cfg_.bank_interleave);
    if (minLatency() < 2) {
        fatal("interconnect: l2_access_cycles + 2*hop_latency must "
              "be at least 2 cycles (the parallel schedule needs "
              "one cycle of quantum slack), got ", minLatency());
    }
    bank_slots_.assign(
        static_cast<std::size_t>(cfg_.l2_banks),
        std::vector<Cycle>(
            static_cast<std::size_t>(cfg_.mshrs_per_bank), 0));
    stats_.bank_accesses.assign(
        static_cast<std::size_t>(cfg_.l2_banks), 0);
    stats_.bank_conflicts.assign(
        static_cast<std::size_t>(cfg_.l2_banks), 0);
}

int
Interconnect::bankOf(Addr addr) const
{
    return static_cast<int>(
        (addr / cfg_.bank_interleave) %
        static_cast<Addr>(cfg_.l2_banks));
}

int
Interconnect::hops(int core, int bank) const
{
    // Cores occupy ring positions 0..N-1; bank j hangs off position
    // floor(j*N/B), spreading the banks around the ring. A request
    // always leaves the core, so the distance floors at one hop.
    const int n = num_cores_;
    const int pos = bank * n / cfg_.l2_banks;
    const int d = core >= pos ? core - pos : pos - core;
    return std::max(1, std::min(d, n - d));
}

Cycle
Interconnect::uncontendedLatency(int core, Addr addr) const
{
    const int h = hops(core, bankOf(addr));
    return cfg_.l2_access_cycles +
           2 * static_cast<Cycle>(h) * cfg_.hop_latency;
}

Cycle
Interconnect::minLatency() const
{
    // hops() floors at 1 and some (core, bank) pair always achieves
    // it, so the bound is closed-form.
    return cfg_.l2_access_cycles + 2 * cfg_.hop_latency;
}

Cycle
Interconnect::resolve(const RemoteRequest &req)
{
    const int bank = bankOf(req.addr);
    const Cycle travel =
        static_cast<Cycle>(hops(req.core, bank)) * cfg_.hop_latency;
    const Cycle arrival = req.issued + travel;

    // Claim the earliest-free MSHR slot (lowest index on ties — the
    // scan order makes the choice deterministic).
    auto &slots = bank_slots_[static_cast<std::size_t>(bank)];
    std::size_t pick = 0;
    for (std::size_t i = 1; i < slots.size(); ++i) {
        if (slots[i] < slots[pick])
            pick = i;
    }

    Cycle start = arrival;
    const bool queued = slots[pick] > arrival;
    if (queued) {
        start = slots[pick] + cfg_.bank_conflict_penalty;
        ++stats_.conflicts;
        ++stats_.bank_conflicts[static_cast<std::size_t>(bank)];
    }
    const Cycle done_at_bank = start + cfg_.l2_access_cycles;
    slots[pick] = done_at_bank;

    const Cycle completion = done_at_bank + travel;
    ++stats_.requests;
    ++stats_.bank_accesses[static_cast<std::size_t>(bank)];
    stats_.total_latency += completion - req.issued;
    return completion;
}

std::uint64_t
Interconnect::fingerprint() const
{
    Fnv1a h;
    auto add64 = [&h](std::uint64_t v) { h.add(&v, sizeof v); };
    add64(0x4d43'4e4f'4331ull);     // "MCNOC1"
    add64(static_cast<std::uint64_t>(num_cores_));
    add64(static_cast<std::uint64_t>(cfg_.l2_banks));
    add64(cfg_.bank_interleave);
    add64(static_cast<std::uint64_t>(cfg_.mshrs_per_bank));
    add64(cfg_.l2_access_cycles);
    add64(cfg_.bank_conflict_penalty);
    add64(cfg_.hop_latency);
    return h.digest();
}

} // namespace smtsim
