/**
 * @file
 * Shared pieces of the repository benchmark: run options, the result
 * report printed as the last stdout line, latency summaries, the
 * span tracer used by traced runs, stored expected values and the
 * statistics fingerprints they are compared against.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "machine/manycore.hh"
#include "machine/run_stats.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Stored expected values (perfbench/expected.txt). */
    std::string expected_path;
    /** Per-run scratch directory inside the checkout. */
    std::string scratch;
};

/**
 * Set-up runs from scratch kSetupRepeats times before the timed
 * phase, and again between timing windows (outside their timing) for
 * the workloads whose timed phase is a sequence of windows, so its
 * samples span the run's host conditions like the other metrics do.
 * setup_s is the median of all samples.
 */
constexpr int kSetupRepeats = 9;
constexpr int kSetupPerWindow = 5;

/** One printed metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * Everything a run reports. Failures are counted per op and also
 * printed; any failure makes the run exit non-zero.
 */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** A check outside any single op failed (stored values, pins). */
    bool broken = false;
    std::vector<Metric> metrics;

    void add(const std::string &name, const std::string &unit,
             double value);
    /** Count one failed op and print why. */
    void failOp(const std::string &why);
    /** Record a whole-run check failure and print why. */
    void fail(const std::string &why);
    bool correct() const { return failed == 0 && !broken; }
    /** The final JSON line. */
    std::string json() const;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated percentile @p p (0..100) of @p v. */
double percentile(std::vector<double> v, double p);

/** Median and tail of a latency sample, in milliseconds. */
struct LatencySummary
{
    std::size_t samples = 0;
    double p50_ms = 0.0;
    double tail_ms = 0.0;
    /** Percentile tail_ms reports. */
    double tail_pct = 0.0;
    /** Samples above tail_ms. */
    std::size_t beyond = 0;
};

/**
 * Summarize latencies (seconds). The tail is the @p tail_pct
 * percentile; when fewer than ten samples lie above it, the next
 * lower percentile of {99.9, 99.5, 99, 98, 95, 90, 75, 50} is used
 * instead, so the tail always rests on at least ten samples.
 *
 * Each workload fixes @p tail_pct at the highest of those percentiles
 * that has ten samples beyond it at its usual op count, rather than
 * choosing it from each run's count: a change that made ops faster
 * would otherwise move the tail to a higher percentile and read as a
 * slower tail.
 */
LatencySummary summarize(const std::vector<double> &latencies_s,
                         double tail_pct);

/**
 * Ops of one stretch of a timed phase: a pass over a fixed op list
 * (paper-grid, fuzz), ten machine runs (manycore), or the ops that
 * completed within one half second (serve-mix).
 */
struct Window
{
    double seconds = 0.0;
    std::uint64_t insns = 0;
    std::vector<double> latencies;
};

/**
 * Add ops_per_s, sim_mips, p50_ms and tail_ms over every op of every
 * window: the rates are all ops (instructions) over all window
 * seconds, and p50_ms and tail_ms summarize() every op's latency.
 * Prints the spread of window rates and the latency line.
 */
void reportWindows(Report &r, const std::vector<Window> &windows,
                   double tail_pct);

/**
 * Peak resident set size of this process, in MB. Read from VmHWM:
 * getrusage's ru_maxrss survives exec, so it would report the peak
 * of the process that launched this one when that was larger.
 */
double peakRssMb();

/** Peak resident set size (VmHWM) of process @p pid, in MB. */
double peakRssMbOf(int pid);

// -- statistics fingerprints ----------------------------------------

/** FNV-1a over every RunStats field, in declaration order. */
std::uint64_t statsHash(const smtsim::RunStats &s);

/** FNV-1a over MachineStats: clock, quanta, every core, the NoC. */
std::uint64_t machineHash(const smtsim::MachineStats &m);

/** One stored expected value. */
struct Expected
{
    std::uint64_t cycles = 0;
    std::uint64_t insns = 0;
    std::uint64_t hash = 0;
};

/**
 * Expected values stored with the benchmark, keyed by
 * "<section> <key>". Lines: `<section> <key> <cycles> <insns>
 * <hash-hex>`; '#' starts a comment.
 */
class ExpectedTable
{
  public:
    /** @return false with *error set when the file is unreadable. */
    bool load(const std::string &path, std::string *error);

    const Expected *find(const std::string &section,
                         const std::string &key) const;

    /**
     * Compare @p s to the stored value; "" when equal, else a
     * one-line description (missing entries are mismatches).
     */
    std::string check(const std::string &section,
                      const std::string &key,
                      const smtsim::RunStats &s) const;

    /** Raw lines of a section (for pins that are not RunStats). */
    std::vector<std::string> section(const std::string &name) const;

  private:
    std::map<std::string, Expected> entries_;
    std::map<std::string, std::vector<std::string>> raw_;
};

/** Render one expected-value line. */
std::string expectedLine(const std::string &section,
                         const std::string &key, std::uint64_t cycles,
                         std::uint64_t insns, std::uint64_t hash);

// -- span tracer ------------------------------------------------------

/** One traced call. */
struct Span
{
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int op = -1;
};

/**
 * In-memory span recorder for one host thread. Spans nest through an
 * explicit stack; a span's self time is its duration minus the part
 * its children cover. Spans are written out once the run ends.
 */
class Tracer
{
  public:
    /** Open a span under the innermost open one. */
    int begin(const char *name);
    void end(int id);
    /** Op id stamped on spans opened from now on. */
    void setOp(int op) { op_ = op; }

    void append(const Tracer &other);

    /** Self and total nanoseconds per span name, plus call counts. */
    struct Totals
    {
        double self_ns = 0.0;
        double total_ns = 0.0;
        std::uint64_t calls = 0;
    };
    std::map<std::string, Totals> totals() const;

    /** Write spans as tab-separated lines (name op parent start end). */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int op_ = -1;
};

/** RAII span; a null tracer records nothing. */
class SpanScope
{
  public:
    SpanScope(Tracer *t, const char *name)
        : t_(t), id_(t ? t->begin(name) : -1)
    {}
    ~SpanScope()
    {
        if (t_)
            t_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *t_;
    int id_;
};

/** Self ms of span @p name per op (0 when never recorded). */
double selfMsPerOp(const std::map<std::string, Tracer::Totals> &t,
                   const std::string &name, std::uint64_t ops);

/**
 * Add the per-layer metrics every workload prints, zero-filled; a
 * workload then overwrites the ones its traced run measures. Keeps
 * the traced output's metric set identical across workloads.
 */
void addPerLayerDefaults(Report &r);

/** Overwrite (or add) metric @p name. */
void setMetric(Report &r, const std::string &name, double value);

/** Exact simulated counts summed over the core runs of a pass. */
struct CoreCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t insns = 0;
    std::uint64_t ctx_switches = 0;
    std::uint64_t ls_busy = 0;
    std::uint64_t ls_capacity = 0;
    std::map<std::string, std::uint64_t> stalls;

    void add(const smtsim::RunStats &s,
             const smtsim::stats::Group &detail, int ls_units);
};

/**
 * Set the core.* count metrics: cycles, instructions, the eight
 * stall.* decode-attempt counters, load/store utilization, context
 * switches and the useful share of decode attempts.
 */
void reportCoreCounts(Report &r, const CoreCounts &c);

// -- workloads ----------------------------------------------------------

/** Runs one workload; fills @p report. */
void runPaperGrid(const Options &opts, const ExpectedTable &expected,
                  Report &report);
void runFuzz(const Options &opts, const ExpectedTable &expected,
             Report &report);
void runServeMix(const Options &opts, const ExpectedTable &expected,
                 Report &report);
void runManycore(const Options &opts, const ExpectedTable &expected,
                 Report &report);

/**
 * The simulated paper error (paper_err_pct): one cold pass of the
 * paper grid, checked against the stored values. Used untimed by the
 * workloads whose timed phase does not already run the grid.
 */
double paperErrorPass(const ExpectedTable &expected, Report &report);

/** Write the expected-value file for this commit. */
int recordExpected(const std::string &path);

/** Expected-value lines of each workload (recordExpected). */
std::vector<std::string> recordPaperGrid();
std::vector<std::string> recordServeMix();
std::vector<std::string> recordManycore();
std::vector<std::string> recordFuzz();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
