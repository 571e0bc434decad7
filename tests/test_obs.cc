/**
 * @file
 * Structured cycle-event layer and smtsim-scope replay model: event
 * encoding round-trips, ring packing, sink formats, the retirement
 * invariant tying the stream to RunStats on both engines, scope
 * view reconstruction with forward/backward stepping, and the
 * full-stream vs post-restore suffix-stream equivalence the CI
 * scope smoke job relies on.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "asmr/assembler.hh"
#include "baseline/baseline.hh"
#include "core/processor.hh"
#include "obs/scope.hh"
#include "obs/sinks.hh"
#include "test_common.hh"
#include "workloads/workloads.hh"

using namespace smtsim;
using namespace smtsim::obs;
using namespace smtsim::test;

namespace
{

/** Sink that keeps every event in memory. */
class VectorSink : public EventSink
{
  public:
    void event(const Event &ev) override { events.push_back(ev); }
    std::vector<Event> events;
};

/** A few-hundred-cycle multithreaded loop (every slot counts a
 *  tid-dependent number of iterations, then stores its total). */
constexpr const char *kLoopProgram = R"(
        .text
main:   fastfork
        tid  r1
        li   r2, 40
        sll  r3, r1, 3
        add  r2, r2, r3
        li   r4, 0
        li   r8, 0
loop:   addi r4, r4, 1
        slt  r5, r4, r2
        bne  r5, r8, loop
        la   r6, out
        sll  r7, r1, 2
        add  r6, r6, r7
        sw   r4, 0(r6)
        halt
        .data
out:    .word 0, 0, 0, 0, 0, 0, 0, 0
)";

std::vector<Event>
recordCore(const Program &prog, const CoreConfig &cfg,
           RunStats *stats_out = nullptr)
{
    MainMemory mem;
    prog.loadInto(mem);
    MultithreadedProcessor cpu(prog, mem, cfg);
    VectorSink sink;
    cpu.setEventSink(&sink);
    RunStats stats = cpu.run();
    if (stats_out)
        *stats_out = stats;
    return sink.events;
}

std::uint64_t
countRetired(const std::vector<Event> &events)
{
    std::uint64_t n = 0;
    for (const Event &ev : events) {
        if (ev.kind == EventKind::Grant)
            ++n;
        else if (ev.kind == EventKind::Issue && ev.fu == -1)
            ++n;
    }
    return n;
}

} // namespace

TEST(ObsEvent, RingPackRoundTrip)
{
    const int ring[4] = {2, 0, 3, 1};
    const std::uint64_t packed = packRing(ring, 4);
    int out[4] = {-1, -1, -1, -1};
    unpackRing(packed, out, 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ring[i], out[i]);

    // Single slot and the 16-slot ceiling.
    const int one[1] = {0};
    int one_out[1] = {-1};
    unpackRing(packRing(one, 1), one_out, 1);
    EXPECT_EQ(one_out[0], 0);

    int big[16], big_out[16];
    for (int i = 0; i < 16; ++i)
        big[i] = 15 - i;
    unpackRing(packRing(big, 16), big_out, 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(big[i], big_out[i]);
}

TEST(ObsEvent, KindNamesAndFormat)
{
    std::set<std::string> names;
    for (int k = 0; k < kNumEventKinds; ++k)
        names.insert(eventKindName(static_cast<EventKind>(k)));
    EXPECT_EQ(static_cast<int>(names.size()), kNumEventKinds)
        << "event kind names must be distinct";

    Event ev;
    ev.cycle = 42;
    ev.kind = EventKind::Grant;
    ev.slot = 1;
    ev.fu = 2;
    ev.unit = 0;
    ev.pc = 0x1000;
    const std::string line = formatEvent(ev);
    EXPECT_NE(line.find("grant"), std::string::npos) << line;
    EXPECT_NE(line.find("42"), std::string::npos) << line;
}

TEST(ObsEvent, BinaryStreamRoundTrip)
{
    std::vector<Event> in;
    for (int i = 0; i < 300; ++i) {
        Event ev;
        ev.cycle = static_cast<Cycle>(i / 3);
        ev.kind = static_cast<EventKind>(i % kNumEventKinds);
        ev.slot = static_cast<std::int8_t>(i % 8);
        ev.fu = static_cast<std::int8_t>(i % 7 - 1);
        ev.unit = static_cast<std::int16_t>(i % 5 - 1);
        ev.pc = static_cast<std::uint32_t>(0x1000 + 4 * i);
        ev.insn = static_cast<std::uint32_t>(0xdead0000u + i);
        ev.a = 0x0123456789abcdefull + i;
        in.push_back(ev);
    }

    std::stringstream ss;
    TraceMeta meta;
    meta.num_slots = 8;
    BinarySink sink(ss, meta);
    for (const Event &ev : in)
        sink.event(ev);
    sink.flush();

    const EventStream out = readEventStream(ss);
    EXPECT_EQ(out.meta.num_slots, 8);
    ASSERT_EQ(out.events.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        const Event &a = in[i];
        const Event &b = out.events[i];
        EXPECT_EQ(a.cycle, b.cycle) << i;
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.slot, b.slot) << i;
        EXPECT_EQ(a.fu, b.fu) << i;
        EXPECT_EQ(a.unit, b.unit) << i;
        EXPECT_EQ(a.pc, b.pc) << i;
        EXPECT_EQ(a.insn, b.insn) << i;
        EXPECT_EQ(a.a, b.a) << i;
    }
}

TEST(ObsEvent, BinaryReaderRejectsGarbage)
{
    std::stringstream bad("this is not an event stream");
    EXPECT_THROW(readEventStream(bad), std::runtime_error);

    // Truncated mid-record.
    std::stringstream ss;
    TraceMeta meta;
    meta.num_slots = 2;
    BinarySink sink(ss, meta);
    Event ev;
    ev.kind = EventKind::Issue;
    sink.event(ev);
    std::string bytes = ss.str();
    bytes.resize(bytes.size() - 3);
    std::stringstream cut(bytes);
    EXPECT_THROW(readEventStream(cut), std::runtime_error);
}

TEST(ObsEvent, CoreStreamMatchesRunStats)
{
    CoreConfig cfg;
    RunStats stats;
    const Program prog = assemble(kLoopProgram);
    const std::vector<Event> events =
        recordCore(prog, cfg, &stats);
    ASSERT_FALSE(events.empty());

    // Stream starts with the synthetic snapshot prologue and ends
    // with the run-end marker.
    EXPECT_EQ(events.front().kind, EventKind::Snapshot);
    EXPECT_EQ(events.back().kind, EventKind::RunEnd);
    EXPECT_EQ(events.back().cycle, stats.cycles);
    EXPECT_EQ(events.back().a, stats.instructions);

    // Retirement invariant: grants + decode-retired control ops.
    EXPECT_EQ(countRetired(events), stats.instructions);

    // Cycle numbers never decrease.
    Cycle prev = 0;
    for (const Event &ev : events) {
        EXPECT_GE(ev.cycle, prev);
        prev = ev.cycle;
    }
}

TEST(ObsEvent, BaselineStreamMatchesRunStats)
{
    Machine m(kLoopProgram);
    BaselineProcessor cpu(m.prog, m.mem, {});
    VectorSink sink;
    cpu.setEventSink(&sink);
    const RunStats stats = cpu.run();

    ASSERT_FALSE(sink.events.empty());
    EXPECT_EQ(sink.events.front().kind, EventKind::Snapshot);
    EXPECT_EQ(sink.events.back().kind, EventKind::RunEnd);
    EXPECT_EQ(sink.events.back().a, stats.instructions);
    EXPECT_EQ(countRetired(sink.events), stats.instructions);
}

TEST(ObsEvent, TextSinkPipeTrace)
{
    Machine m(kLoopProgram);
    MultithreadedProcessor cpu(m.prog, m.mem, {});
    std::stringstream ss;
    TextSink sink(ss);
    cpu.setEventSink(&sink);
    cpu.run();
    const std::string text = ss.str();
    EXPECT_NE(text.find("grant"), std::string::npos);
    EXPECT_NE(text.find("halt"), std::string::npos);
    EXPECT_NE(text.find("snapshot"), std::string::npos);
}

TEST(ObsScope, ViewTracksRetirementAndStepping)
{
    CoreConfig cfg;
    RunStats stats;
    const Program prog = assemble(kLoopProgram);
    std::stringstream ss;
    {
        MainMemory mem;
        prog.loadInto(mem);
        MultithreadedProcessor cpu(prog, mem, cfg);
        TraceMeta meta;
        meta.num_slots = cfg.num_slots;
        BinarySink sink(ss, meta);
        cpu.setEventSink(&sink);
        stats = cpu.run();
    }

    const ScopeModel model(readEventStream(ss));
    ASSERT_FALSE(model.empty());
    EXPECT_EQ(model.numSlots(), cfg.num_slots);
    EXPECT_EQ(model.lastCycle(), stats.cycles);

    // The final view accounts for every retired instruction.
    const ScopeView last = model.viewAt(model.lastCycle());
    EXPECT_EQ(last.instructions, stats.instructions);

    // Forward stepping visits strictly increasing cycles and
    // prevEventCycle inverts nextEventCycle at every step.
    Cycle c = model.firstCycle();
    std::vector<Cycle> forward{c};
    for (;;) {
        const Cycle n = model.nextEventCycle(c);
        if (n == kNeverCycle)
            break;
        ASSERT_GT(n, c);
        EXPECT_EQ(model.prevEventCycle(n), c);
        forward.push_back(n);
        c = n;
    }
    EXPECT_EQ(forward.back(), model.lastCycle());

    // Walking backward reconstructs the same views as forward:
    // replay is pure, order of queries must not matter.
    for (auto it = forward.rbegin(); it != forward.rend(); ++it) {
        const ScopeView v = model.viewAt(*it);
        EXPECT_EQ(v.cycle, *it);
        EXPECT_FALSE(v.events.empty());
        std::uint64_t retired_here = 0;
        for (const Event &ev : v.events) {
            if (ev.kind == EventKind::Grant ||
                (ev.kind == EventKind::Issue && ev.fu == -1))
                ++retired_here;
        }
        const Cycle p = model.prevEventCycle(*it);
        const std::uint64_t before =
            p == kNeverCycle ? 0 : model.viewAt(p).instructions;
        EXPECT_EQ(v.instructions, before + retired_here) << *it;
    }

    // Off-stream queries clamp sensibly.
    EXPECT_EQ(model.nextEventCycle(model.lastCycle()),
              kNeverCycle);
    EXPECT_EQ(model.prevEventCycle(model.firstCycle()),
              kNeverCycle);
}

TEST(ObsScope, KeyframesCoverLongStreams)
{
    // More events than one keyframe stride, so random access uses
    // the keyframe path; views must match a freshly-built model's.
    BsearchParams bp;
    bp.table_size = 64;
    bp.queries_per_thread = 32;
    const Workload w = makeBsearch(bp);
    CoreConfig cfg;
    cfg.max_cycles = 500'000;

    std::stringstream ss;
    MainMemory mem;
    w.program.loadInto(mem);
    if (w.init)
        w.init(mem);
    MultithreadedProcessor cpu(w.program, mem, cfg);
    TraceMeta meta;
    meta.num_slots = cfg.num_slots;
    BinarySink sink(ss, meta);
    cpu.setEventSink(&sink);
    const RunStats stats = cpu.run();
    ASSERT_TRUE(stats.finished);

    const EventStream stream = readEventStream(ss);
    ASSERT_GT(stream.events.size(), 4096u)
        << "workload too small to exercise keyframes";
    const ScopeModel model(stream);

    // Query far into the stream first (builds on keyframes), then
    // compare sampled cycles against a fresh model queried cold.
    const ScopeModel fresh(stream);
    const Cycle last = model.lastCycle();
    std::stringstream a, b;
    ScopeModel::dump(model.viewAt(last), a);
    ScopeModel::dump(fresh.viewAt(last), b);
    EXPECT_EQ(a.str(), b.str());
    for (Cycle c = model.firstCycle(); c < last;
         c += last / 7 + 1) {
        std::stringstream da, db;
        ScopeModel::dump(model.viewAt(c), da);
        ScopeModel::dump(fresh.viewAt(c), db);
        EXPECT_EQ(da.str(), db.str()) << "cycle " << c;
    }
}

TEST(ObsScope, SuffixStreamAfterRestoreMatchesFullStream)
{
    // Record a full-run stream; checkpoint the same run mid-way;
    // restore with a fresh sink and record the suffix stream. Over
    // the common cycles both must reconstruct identical views.
    const Program prog = assemble(kLoopProgram);
    CoreConfig cfg;

    std::stringstream full_ss;
    RunStats full_stats;
    {
        MainMemory mem;
        prog.loadInto(mem);
        MultithreadedProcessor cpu(prog, mem, cfg);
        TraceMeta meta;
        meta.num_slots = cfg.num_slots;
        BinarySink sink(full_ss, meta);
        cpu.setEventSink(&sink);
        full_stats = cpu.run();
    }
    ASSERT_TRUE(full_stats.finished);
    const Cycle at = full_stats.cycles / 2;

    std::stringstream ckpt;
    {
        MainMemory mem;
        prog.loadInto(mem);
        MultithreadedProcessor cpu(prog, mem, cfg);
        cpu.runUntil(at);
        cpu.saveCheckpoint(ckpt);
    }

    std::stringstream suffix_ss;
    {
        MainMemory mem;
        MultithreadedProcessor cpu(prog, mem, cfg);
        cpu.restoreCheckpoint(ckpt);
        TraceMeta meta;
        meta.num_slots = cfg.num_slots;
        BinarySink sink(suffix_ss, meta);
        cpu.setEventSink(&sink);
        const RunStats s = cpu.run();
        EXPECT_EQ(s.cycles, full_stats.cycles);
        EXPECT_EQ(s.instructions, full_stats.instructions);
    }

    const ScopeModel full(readEventStream(full_ss));
    const ScopeModel suffix(readEventStream(suffix_ss));
    ASSERT_FALSE(suffix.empty());

    // Every event cycle of the suffix past the snapshot point must
    // dump identically in both models.
    Cycle c = suffix.firstCycle();
    int compared = 0;
    for (; c != kNeverCycle; c = suffix.nextEventCycle(c)) {
        if (c <= at)
            continue;   // snapshot prologue cycle itself
        std::stringstream da, db;
        ScopeModel::dump(full.viewAt(c), da);
        ScopeModel::dump(suffix.viewAt(c), db);
        EXPECT_EQ(da.str(), db.str()) << "cycle " << c;
        ++compared;
    }
    EXPECT_GT(compared, 5);
}
