/**
 * @file
 * Concrete event sinks and the event-stream reader.
 *
 *  - TextSink: human-readable line per event (smtsim-run --trace /
 *    --pipe-trace; the successor of the old freeform pipe trace).
 *  - BinarySink: compact fixed-width records, the recording format
 *    smtsim-scope replays (format documented in
 *    docs/OBSERVABILITY.md).
 *  - readEventStream(): parse a BinarySink file back into memory.
 */

#ifndef SMTSIM_OBS_SINKS_HH
#define SMTSIM_OBS_SINKS_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "obs/event.hh"

namespace smtsim::obs
{

/** File magic of the binary event stream ("SMTEVT1\0"). */
constexpr std::uint64_t kEventMagic = 0x0031545645544d53ull;

/** Stream-level metadata written into the binary header. */
struct TraceMeta
{
    int num_slots = 0;
};

/** Human-readable text sink (one line per event). */
class TextSink : public EventSink
{
  public:
    explicit TextSink(std::ostream &os) : os_(os) {}

    void
    event(const Event &ev) override
    {
        os_ << formatEvent(ev) << '\n';
    }

    void flush() override { os_.flush(); }

  private:
    std::ostream &os_;
};

/** Compact binary sink; records are fixed-width little-endian. */
class BinarySink : public EventSink
{
  public:
    /** Writes the stream header immediately. */
    BinarySink(std::ostream &os, const TraceMeta &meta);

    void event(const Event &ev) override;
    void flush() override { os_.flush(); }

  private:
    std::ostream &os_;
};

/** A fully parsed binary event stream. */
struct EventStream
{
    TraceMeta meta;
    std::vector<Event> events;
};

/**
 * Parse a BinarySink-format stream. Throws std::runtime_error on a
 * bad magic, unsupported version, or truncated record.
 */
EventStream readEventStream(std::istream &is);

} // namespace smtsim::obs

#endif // SMTSIM_OBS_SINKS_HH
