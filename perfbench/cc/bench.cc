#include "bench.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "base/hash.hh"

namespace perfbench
{

using smtsim::Fnv1a;
using smtsim::kNumFuClasses;

// -- report -------------------------------------------------------------

void
Report::add(const std::string &name, const std::string &unit,
            double value)
{
    metrics.push_back(Metric{name, unit, value});
}

void
Report::failOp(const std::string &why)
{
    ++failed;
    // Cap the noise: a systematic failure would print every op.
    if (failed <= 20)
        std::printf("FAILED op: %s\n", why.c_str());
}

void
Report::fail(const std::string &why)
{
    broken = true;
    std::printf("FAILED check: %s\n", why.c_str());
}

namespace
{

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

} // namespace

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            os << ", ";
        os << "\"" << metrics[i].name << "\": {\"value\": "
           << number(metrics[i].value) << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

// -- latency --------------------------------------------------------------

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

LatencySummary
summarize(const std::vector<double> &latencies_s, double tail_pct)
{
    static const double kLadder[] = {99.9, 99.5, 99.0, 98.0,
                                     95.0, 90.0, 75.0, 50.0};
    LatencySummary s;
    s.samples = latencies_s.size();
    if (latencies_s.empty())
        return s;
    std::vector<double> sorted = latencies_s;
    std::sort(sorted.begin(), sorted.end());
    s.p50_ms = percentile(sorted, 50.0) * 1e3;
    auto beyond = [&](double value) {
        return static_cast<std::size_t>(
            sorted.end() -
            std::upper_bound(sorted.begin(), sorted.end(), value));
    };
    double pct = tail_pct;
    for (double step : kLadder) {
        if (step > tail_pct)
            continue;
        pct = step;
        if (beyond(percentile(sorted, pct)) >= 10)
            break;
    }
    const double value = percentile(sorted, pct);
    s.tail_pct = pct;
    s.tail_ms = value * 1e3;
    s.beyond = beyond(value);
    return s;
}

void
reportWindows(Report &r, const std::vector<Window> &windows,
              double tail_pct)
{
    double seconds = 0.0;
    std::uint64_t insns = 0;
    std::vector<double> rates, latencies;
    for (const Window &w : windows) {
        seconds += w.seconds;
        insns += w.insns;
        latencies.insert(latencies.end(), w.latencies.begin(),
                         w.latencies.end());
        if (w.seconds > 0.0)
            rates.push_back(static_cast<double>(w.latencies.size()) /
                            w.seconds);
    }
    const LatencySummary s = summarize(latencies, tail_pct);
    if (!rates.empty())
        std::printf("windows: %zu, ops/s slowest %.4g median %.4g fastest "
                    "%.4g\n",
                    rates.size(),
                    *std::min_element(rates.begin(), rates.end()),
                    median(rates),
                    *std::max_element(rates.begin(), rates.end()));
    std::printf("latency: %zu ops, p50 %.4f ms, p%g %.4f ms (%zu samples "
                "beyond)\n",
                s.samples, s.p50_ms, s.tail_pct, s.tail_ms, s.beyond);
    const double per_s = seconds > 0.0 ? 1.0 / seconds : 0.0;
    r.add("ops_per_s", "1/s", static_cast<double>(latencies.size()) * per_s);
    r.add("sim_mips", "MIPS", static_cast<double>(insns) * per_s / 1e6);
    r.add("p50_ms", "ms", s.p50_ms);
    r.add("tail_ms", "ms", s.tail_ms);
}

double
peakRssMb()
{
    return peakRssMbOf(static_cast<int>(::getpid()));
}

double
peakRssMbOf(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

// -- fingerprints -----------------------------------------------------

namespace
{

void
mix(Fnv1a &h, std::uint64_t v)
{
    h.add(&v, sizeof v);
}

void
mixStats(Fnv1a &h, const smtsim::RunStats &s)
{
    mix(h, s.cycles);
    mix(h, s.instructions);
    mix(h, s.finished ? 1 : 0);
    for (int c = 0; c < kNumFuClasses; ++c) {
        mix(h, s.fu_grants[c]);
        mix(h, s.fu_busy[c]);
        mix(h, s.unit_busy[c].size());
        for (std::uint64_t b : s.unit_busy[c])
            mix(h, b);
    }
    for (std::uint64_t v :
         {s.branches, s.loads, s.stores, s.standby_stalls,
          s.context_switches, s.writeback_conflicts, s.dcache_hits,
          s.dcache_misses, s.icache_hits, s.icache_misses})
        mix(h, v);
}

} // namespace

std::uint64_t
statsHash(const smtsim::RunStats &s)
{
    Fnv1a h;
    mixStats(h, s);
    return h.digest();
}

std::uint64_t
machineHash(const smtsim::MachineStats &m)
{
    Fnv1a h;
    mix(h, m.cycles);
    mix(h, m.quanta);
    mix(h, m.finished ? 1 : 0);
    mix(h, m.cores.size());
    for (const smtsim::RunStats &s : m.cores)
        mixStats(h, s);
    mix(h, m.noc.requests);
    mix(h, m.noc.conflicts);
    mix(h, m.noc.total_latency);
    for (std::uint64_t v : m.noc.bank_accesses)
        mix(h, v);
    for (std::uint64_t v : m.noc.bank_conflicts)
        mix(h, v);
    return h.digest();
}

// -- expected values --------------------------------------------------

bool
ExpectedTable::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read expected values from " + path;
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string section, key, hash;
        Expected e;
        is >> section >> key;
        raw_[section].push_back(line);
        if (is >> e.cycles >> e.insns >> hash) {
            e.hash = std::strtoull(hash.c_str(), nullptr, 16);
            entries_[section + " " + key] = e;
        }
    }
    return true;
}

const Expected *
ExpectedTable::find(const std::string &section,
                    const std::string &key) const
{
    const auto it = entries_.find(section + " " + key);
    return it == entries_.end() ? nullptr : &it->second;
}

std::string
ExpectedTable::check(const std::string &section, const std::string &key,
                     const smtsim::RunStats &s) const
{
    const Expected *e = find(section, key);
    if (!e)
        return section + " " + key + ": no stored expected value";
    if (e->cycles == s.cycles && e->insns == s.instructions &&
        e->hash == statsHash(s))
        return {};
    std::ostringstream os;
    os << section << " " << key << ": stats differ from stored (cycles "
       << s.cycles << " vs " << e->cycles << ", insns "
       << s.instructions << " vs " << e->insns << ", hash "
       << smtsim::hashToHex(statsHash(s)) << " vs "
       << smtsim::hashToHex(e->hash) << ")";
    return os.str();
}

std::vector<std::string>
ExpectedTable::section(const std::string &name) const
{
    const auto it = raw_.find(name);
    return it == raw_.end() ? std::vector<std::string>{} : it->second;
}

std::string
expectedLine(const std::string &section, const std::string &key,
             std::uint64_t cycles, std::uint64_t insns,
             std::uint64_t hash)
{
    return section + " " + key + " " + std::to_string(cycles) + " " +
           std::to_string(insns) + " " + smtsim::hashToHex(hash);
}

// -- tracer -----------------------------------------------------------

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

int
Tracer::begin(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    spans_.back().start_ns = nowNs();
    return id;
}

void
Tracer::end(int id)
{
    spans_[static_cast<std::size_t>(id)].end_ns = nowNs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
Tracer::append(const Tracer &other)
{
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        spans_.push_back(s);
    }
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.end_ns - s.start_ns);
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double dur = static_cast<double>(s.end_ns - s.start_ns);
        Totals &t = out[s.name];
        t.total_ns += dur;
        t.self_ns += dur - child_ns[i];
        ++t.calls;
    }
    return out;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    os << "# name\top\tparent\tstart_ns\tend_ns\n";
    for (const Span &s : spans_) {
        os << s.name << '\t' << s.op << '\t' << s.parent << '\t'
           << s.start_ns << '\t' << s.end_ns << '\n';
    }
}

double
selfMsPerOp(const std::map<std::string, Tracer::Totals> &t,
            const std::string &name, std::uint64_t ops)
{
    const auto it = t.find(name);
    if (it == t.end() || ops == 0)
        return 0.0;
    return it->second.self_ns / 1e6 / static_cast<double>(ops);
}

namespace
{

/** Every per-layer metric with its unit (mirrors BENCHMARK.json). */
const std::pair<const char *, const char *> kPerLayer[] = {
    {"core.run_ms", "ms"},
    {"core.ns_per_insn", "ns"},
    {"core.construct_ms", "ms"},
    {"core.runs", "count"},
    {"core.sim_cycles", "cycles"},
    {"core.insns", "count"},
    {"core.stall.operands", "count"},
    {"core.stall.waw", "count"},
    {"core.stall.standby", "count"},
    {"core.stall.no_standby", "count"},
    {"core.stall.priority", "count"},
    {"core.stall.memorder", "count"},
    {"core.stall.queue_full", "count"},
    {"core.stall.branch_operands", "count"},
    {"core.ls_util_pct", "%"},
    {"core.context_switches", "count"},
    {"core.decode_useful_ratio", "ratio"},
    {"baseline.run_ms", "ms"},
    {"baseline.ns_per_insn", "ns"},
    {"workloads.instantiate_ms", "ms"},
    {"asmr.assemble_ms", "ms"},
    {"analysis.lint_ms", "ms"},
    {"interp.mips", "MIPS"},
    {"fastpath.mips", "MIPS"},
    {"fuzz.cell_ms.interp", "ms"},
    {"fuzz.cell_ms.fast", "ms"},
    {"fuzz.cell_ms.baseline", "ms"},
    {"fuzz.cell_ms.core", "ms"},
    {"fuzz.replay_check_ms", "ms"},
    {"fuzz.manycore_check_ms", "ms"},
    {"fuzz.cells", "count"},
    {"lab.executor_overhead_pct", "%"},
    {"lab.cache_load_ms", "ms"},
    {"lab.cache_store_ms", "ms"},
    {"lab.cache_hit_ratio", "ratio"},
    {"serve.rtt_ms.warm", "ms"},
    {"serve.rtt_ms.herd", "ms"},
    {"serve.rtt_ms.cold", "ms"},
    {"serve.rtt_ms.sweep", "ms"},
    {"serve.rtt_ms.reject", "ms"},
    {"serve.worker_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.queue_depth_max", "count"},
    {"protocol.encode_us", "us"},
    {"protocol.decode_us", "us"},
    {"serve.executed", "1/kop"},
    {"serve.coalesced", "1/kop"},
    {"serve.cache_hits", "1/kop"},
    {"serve.lint_rejected", "1/kop"},
    {"serve.lint_cache_hits", "1/kop"},
    {"serve.retries", "count"},
    {"serve.worker_restarts", "count"},
    {"serve.dedup_ratio", "ratio"},
    {"machine.build_ms", "ms"},
    {"machine.run_ms", "ms"},
    {"machine.quanta", "count"},
    {"machine.us_per_quantum", "us"},
    {"machine.par_eff", "ratio"},
    {"interconnect.requests", "count"},
    {"interconnect.conflicts", "count"},
    {"interconnect.mean_latency_cycles", "cycles"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
};

} // namespace

void
addPerLayerDefaults(Report &r)
{
    for (const auto &[name, unit] : kPerLayer)
        r.add(name, unit, 0.0);
}

void
setMetric(Report &r, const std::string &name, double value)
{
    for (Metric &m : r.metrics) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    std::printf("internal: unknown metric %s\n", name.c_str());
    r.broken = true;
}

void
CoreCounts::add(const smtsim::RunStats &s, const smtsim::stats::Group &detail,
                int ls_units)
{
    cycles += s.cycles;
    insns += s.instructions;
    ctx_switches += s.context_switches;
    const auto ls = static_cast<std::size_t>(smtsim::FuClass::LoadStore);
    for (std::uint64_t b : s.unit_busy[ls])
        ls_busy += b;
    ls_capacity += s.cycles * static_cast<std::uint64_t>(ls_units);
    for (const auto &[name, v] : detail.all()) {
        if (name.rfind("stall.", 0) == 0)
            stalls[name] += v;
    }
}

void
reportCoreCounts(Report &r, const CoreCounts &c)
{
    setMetric(r, "core.sim_cycles", static_cast<double>(c.cycles));
    setMetric(r, "core.insns", static_cast<double>(c.insns));
    std::uint64_t stall_sum = 0;
    for (const char *name :
         {"operands", "waw", "standby", "no_standby", "priority",
          "memorder", "queue_full", "branch_operands"}) {
        const auto it = c.stalls.find(std::string("stall.") + name);
        const std::uint64_t v = it == c.stalls.end() ? 0 : it->second;
        stall_sum += v;
        setMetric(r, std::string("core.stall.") + name,
                  static_cast<double>(v));
    }
    setMetric(r, "core.ls_util_pct",
              c.ls_capacity ? 100.0 * static_cast<double>(c.ls_busy) /
                                  static_cast<double>(c.ls_capacity)
                            : 0.0);
    setMetric(r, "core.context_switches",
              static_cast<double>(c.ctx_switches));
    setMetric(r, "core.decode_useful_ratio",
              c.insns ? static_cast<double>(c.insns) /
                            static_cast<double>(c.insns + stall_sum)
                      : 0.0);
}

} // namespace perfbench
