#include "sinks.hh"


#include "base/serial.hh"

namespace smtsim::obs
{

BinarySink::BinarySink(std::ostream &os, const TraceMeta &meta)
    : os_(os)
{
    ByteWriter w(os_);
    w.put(kEventMagic);
    w.put(kEventSchemaVersion);
    w.put(static_cast<std::uint32_t>(meta.num_slots));
}

void
BinarySink::event(const Event &ev)
{
    SaveArchive ar(os_);
    ar("event", ev);
}

EventStream
readEventStream(std::istream &is)
{
    LoadArchive ar(is, "obs");
    ar.expect(kEventMagic, "event-stream magic");
    ar.expect(kEventSchemaVersion, "event-stream version");
    EventStream stream;
    auto slots = static_cast<std::uint32_t>(stream.meta.num_slots);
    ar("num_slots", slots);
    stream.meta.num_slots = static_cast<int>(slots);
    while (!ar.atEof()) {
        stream.events.emplace_back();
        ar("event", stream.events.back());
    }
    return stream;
}

} // namespace smtsim::obs
