/**
 * @file
 * smtsim::lab — the parallel experiment engine.
 *
 * The contracts under test:
 *  - simulations are deterministic: the same job yields bitwise-
 *    identical RunStats on every run, serial or parallel (this is
 *    what makes result caching sound at all);
 *  - the content-addressed cache: a warm rerun is 100% cache hits
 *    with identical stats, any config/workload change moves the
 *    key, corrupt records degrade to misses;
 *  - failure isolation: one failing point never fails the sweep,
 *    and failures are not cached.
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "base/json_fields.hh"
#include "lab/lab.hh"
#include "machine/manycore.hh"

using namespace smtsim;
using namespace smtsim::lab;
namespace fs = std::filesystem;

namespace
{

/** Small, fast grid used by most tests. */
std::vector<Job>
smallGrid()
{
    const WorkloadSpec wl = WorkloadSpec::matmul(6);
    std::vector<Job> jobs;
    jobs.push_back(baselineJob("mm/baseline", wl));
    for (int slots : {1, 2, 4}) {
        CoreConfig cfg;
        cfg.num_slots = slots;
        jobs.push_back(
            coreJob("mm/s" + std::to_string(slots), wl, cfg));
    }
    return jobs;
}

/** Fresh per-test cache directory under the build tree's tmp. */
class LabCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::path(::testing::TempDir()) /
               ("smtsim-lab-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string cacheDir() const { return dir_.string(); }

  private:
    fs::path dir_;
};

} // namespace

// ----------------------------------------------------------------
// Determinism
// ----------------------------------------------------------------

TEST(LabDeterminism, RepeatedRunsAreBitwiseIdentical)
{
    const std::vector<Job> jobs = smallGrid();
    LabOptions opts;
    opts.num_threads = 2;
    const ResultSet a = runJobs(jobs, opts);
    const ResultSet b = runJobs(jobs, opts);
    ASSERT_EQ(a.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].id);
        EXPECT_TRUE(a.results[i].ok) << a.results[i].error;
        EXPECT_TRUE(
            a.results[i].stats == b.results[i].stats);
    }
}

TEST(LabDeterminism, ParallelMatchesSerial)
{
    const std::vector<Job> jobs = smallGrid();
    LabOptions serial;
    serial.num_threads = 1;
    LabOptions parallel;
    parallel.num_threads = 4;
    const ResultSet a = runJobs(jobs, serial);
    const ResultSet b = runJobs(jobs, parallel);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].id);
        EXPECT_TRUE(
            a.results[i].stats == b.results[i].stats);
        EXPECT_EQ(a.results[i].id, b.results[i].id);
    }
}

// ----------------------------------------------------------------
// Cache keys
// ----------------------------------------------------------------

TEST(LabCacheKey, StableForIdenticalJobs)
{
    const std::vector<Job> a = smallGrid();
    const std::vector<Job> b = smallGrid();
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].cacheKey(), b[i].cacheKey());
}

TEST(LabCacheKey, IdDoesNotAffectKey)
{
    Job a = coreJob("one", WorkloadSpec::matmul(6), CoreConfig{});
    Job b = coreJob("two", WorkloadSpec::matmul(6), CoreConfig{});
    EXPECT_EQ(a.cacheKey(), b.cacheKey());
}

TEST(LabCacheKey, EveryConfigFieldMoves)
{
    const WorkloadSpec wl = WorkloadSpec::matmul(6);
    const Job base = coreJob("p", wl, CoreConfig{});
    const std::string k0 = base.cacheKey();

    auto variant = [&](auto mutate) {
        CoreConfig cfg;
        mutate(cfg);
        return coreJob("p", wl, cfg).cacheKey();
    };
    EXPECT_NE(k0, variant([](CoreConfig &c) { c.num_slots = 8; }));
    EXPECT_NE(k0, variant([](CoreConfig &c) { c.num_frames = 8; }));
    EXPECT_NE(k0, variant([](CoreConfig &c) { c.width = 2; }));
    EXPECT_NE(k0,
              variant([](CoreConfig &c) { c.fus.load_store = 2; }));
    EXPECT_NE(k0, variant([](CoreConfig &c) {
                  c.standby_enabled = false;
              }));
    EXPECT_NE(k0, variant([](CoreConfig &c) {
                  c.rotation_mode = RotationMode::Explicit;
              }));
    EXPECT_NE(k0, variant([](CoreConfig &c) {
                  c.rotation_interval = 16;
              }));
    EXPECT_NE(k0, variant([](CoreConfig &c) {
                  c.private_icache = true;
              }));
    EXPECT_NE(k0, variant([](CoreConfig &c) {
                  c.dcache.size_bytes = 4096;
              }));
    EXPECT_NE(k0, variant([](CoreConfig &c) {
                  c.max_cycles = 1000;
              }));

    // Workload identity and engine selection move the key too.
    EXPECT_NE(k0, coreJob("p", WorkloadSpec::matmul(7),
                          CoreConfig{})
                      .cacheKey());
    EXPECT_NE(k0, coreJob("p", WorkloadSpec::bsearch(),
                          CoreConfig{})
                      .cacheKey());
    EXPECT_NE(k0, baselineJob("p", wl).cacheKey());
    EXPECT_NE(k0, machineJob("p", wl, CoreConfig{}).cacheKey());
}

// ----------------------------------------------------------------
// The on-disk cache
// ----------------------------------------------------------------

TEST_F(LabCacheTest, SecondSweepIsAllHits)
{
    const std::vector<Job> jobs = smallGrid();
    LabOptions opts;
    opts.num_threads = 2;
    opts.cache_dir = cacheDir();

    const ResultSet cold = runJobs(jobs, opts);
    EXPECT_EQ(cold.cacheHits(), 0u);
    EXPECT_EQ(cold.failures(), 0u);

    const ResultSet warm = runJobs(jobs, opts);
    EXPECT_EQ(warm.cacheHits(), jobs.size());   // 100% hits
    EXPECT_EQ(warm.failures(), 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].id);
        EXPECT_TRUE(warm.results[i].from_cache);
        EXPECT_TRUE(cold.results[i].stats == warm.results[i].stats);
    }
}

TEST_F(LabCacheTest, ChangedConfigMissesWarmCache)
{
    const WorkloadSpec wl = WorkloadSpec::matmul(6);
    LabOptions opts;
    opts.cache_dir = cacheDir();

    CoreConfig cfg;
    runJobs({coreJob("p", wl, cfg)}, opts);

    cfg.standby_enabled = false;   // different point, same id
    const ResultSet rs = runJobs({coreJob("p", wl, cfg)}, opts);
    EXPECT_EQ(rs.cacheHits(), 0u);
    EXPECT_TRUE(rs.results[0].ok);
}

TEST_F(LabCacheTest, CorruptRecordDegradesToMiss)
{
    const std::vector<Job> jobs = {
        coreJob("p", WorkloadSpec::matmul(6), CoreConfig{})};
    LabOptions opts;
    opts.cache_dir = cacheDir();
    runJobs(jobs, opts);

    const ResultCache cache(cacheDir());
    const std::string path = cache.pathFor(jobs[0].cacheKey());
    ASSERT_TRUE(fs::exists(path));
    {
        std::ofstream trunc(path);
        trunc << "{\"schema\": 1, \"garb";
    }
    const ResultSet rs = runJobs(jobs, opts);
    EXPECT_EQ(rs.cacheHits(), 0u);   // resimulated
    EXPECT_TRUE(rs.results[0].ok);
}

TEST_F(LabCacheTest, FailuresAreNotCached)
{
    Job job = coreJob("tiny-budget", WorkloadSpec::matmul(6),
                      CoreConfig{});
    job.core.max_cycles = 10;   // guaranteed budget exhaustion
    LabOptions opts;
    opts.cache_dir = cacheDir();

    const ResultSet first = runJobs({job}, opts);
    EXPECT_EQ(first.failures(), 1u);
    EXPECT_FALSE(fs::exists(
        ResultCache(cacheDir()).pathFor(job.cacheKey())));

    const ResultSet again = runJobs({job}, opts);
    EXPECT_EQ(again.cacheHits(), 0u);
    EXPECT_EQ(again.failures(), 1u);
}

TEST_F(LabCacheTest, DisabledCacheWritesNothing)
{
    runJobs({coreJob("p", WorkloadSpec::matmul(6), CoreConfig{})},
            LabOptions{});
    EXPECT_FALSE(fs::exists(cacheDir()));
}

// ----------------------------------------------------------------
// Failure isolation + budgets
// ----------------------------------------------------------------

TEST(LabExecutor, OneBadPointDoesNotSinkTheSweep)
{
    std::vector<Job> jobs = smallGrid();
    Job bad = coreJob("bad", WorkloadSpec::matmul(6),
                      CoreConfig{});
    bad.core.max_cycles = 10;
    jobs.insert(jobs.begin() + 1, bad);

    LabOptions opts;
    opts.num_threads = 2;
    const ResultSet rs = runJobs(jobs, opts);
    EXPECT_EQ(rs.failures(), 1u);
    const JobResult *failed = rs.find("bad");
    ASSERT_NE(failed, nullptr);
    EXPECT_FALSE(failed->ok);
    EXPECT_NE(failed->error.find("budget"), std::string::npos);
    EXPECT_TRUE(rs.find("mm/baseline")->ok);
    EXPECT_TRUE(rs.find("mm/s4")->ok);
    EXPECT_THROW(rs.statsOf("bad"), std::runtime_error);
}

TEST(LabExecutor, TooManySlotsIsAJobError)
{
    CoreConfig wide;
    wide.num_slots = 65;
    const ResultSet rs =
        runJobs({coreJob("wide", WorkloadSpec::matmul(6), wide)},
                LabOptions{});
    ASSERT_EQ(rs.failures(), 1u);
    EXPECT_EQ(rs.results[0].error,
              "core: 65 thread slots exceed the limit of 64");
}

TEST(LabExecutor, MaxCyclesOverrideClampsAndRekeys)
{
    const Job job =
        coreJob("p", WorkloadSpec::matmul(6), CoreConfig{});
    LabOptions clamped;
    clamped.max_cycles = 10;
    const ResultSet rs = runJobs({job}, clamped);
    EXPECT_EQ(rs.failures(), 1u);   // clamp took effect
    // The clamped run is keyed under the clamped config.
    Job clamped_job = job;
    clamped_job.core.max_cycles = 10;
    EXPECT_EQ(rs.results[0].key, clamped_job.cacheKey());
    EXPECT_NE(rs.results[0].key, job.cacheKey());
}

TEST(LabExecutor, ProgressCallbackSeesEveryJob)
{
    const std::vector<Job> jobs = smallGrid();
    std::size_t calls = 0;
    std::size_t max_done = 0;
    LabOptions opts;
    opts.num_threads = 2;
    opts.progress = [&](const Progress &p) {
        ++calls;
        max_done = std::max(max_done, p.done);
        EXPECT_EQ(p.total, jobs.size());
        EXPECT_NE(p.last, nullptr);
    };
    runJobs(jobs, opts);
    EXPECT_EQ(calls, jobs.size());
    EXPECT_EQ(max_done, jobs.size());
}

// ----------------------------------------------------------------
// Specs, expansion, serialization
// ----------------------------------------------------------------

TEST(LabSpec, ExpandProducesTheFullGrid)
{
    ExperimentSpec spec;
    spec.workloads = {WorkloadSpec::matmul(6)};
    spec.slots = {1, 2, 4};
    spec.lsu = {1, 2};
    spec.standby = {false, true};
    spec.include_baseline = true;
    const std::vector<Job> jobs = spec.expand();
    EXPECT_EQ(jobs.size(), 1u + 3u * 2u * 2u);
    EXPECT_EQ(jobs[0].engine, EngineKind::Baseline);
    // Ids are unique.
    std::set<std::string> ids;
    for (const Job &j : jobs)
        ids.insert(j.id);
    EXPECT_EQ(ids.size(), jobs.size());
}

TEST(LabSpec, ExpandRejectsEmptyAxes)
{
    ExperimentSpec spec;
    spec.workloads = {WorkloadSpec::matmul(6)};
    spec.slots.clear();
    EXPECT_THROW(spec.expand(), std::invalid_argument);
    spec = ExperimentSpec{};
    EXPECT_THROW(spec.expand(), std::invalid_argument);   // no wl
}

namespace
{

std::vector<int>
iota(int n)
{
    std::vector<int> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        v[static_cast<std::size_t>(i)] = i + 1;
    return v;
}

} // namespace

TEST(LabSpec, ExpandRejectsGridsPastTheCapBeforeBuildingJobs)
{
    ExperimentSpec spec;
    spec.workloads = {WorkloadSpec::matmul(6)};
    // 64 * 32 * 32 = 65536 cells: exactly the cap, accepted by the
    // bound (expanding it for real would take a while).
    spec.slots = iota(64);
    spec.frames = iota(32);
    spec.lsu = iota(32);
    static_assert(ExperimentSpec::kMaxJobs == 65536);
    // One more point on any axis, or a baseline job, crosses it.
    spec.include_baseline = true;
    try {
        spec.expand();
        FAIL() << "a grid past the cap expanded";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("more than 65536 jobs"),
                  std::string::npos)
            << e.what();
    }
    spec.include_baseline = false;
    spec.widths = {1, 2};
    EXPECT_THROW(spec.expand(), std::invalid_argument);

    // Axes whose product overflows 64 bits are rejected, not
    // wrapped around to a small count.
    ExperimentSpec wide;
    wide.workloads = {WorkloadSpec::matmul(6)};
    wide.slots = wide.frames = wide.lsu = wide.widths =
        wide.rotation_intervals = wide.cores = iota(10000);
    EXPECT_THROW(wide.expand(), std::invalid_argument);
}

TEST(LabSpec, WorkloadFromString)
{
    const WorkloadSpec wl = WorkloadSpec::fromString(
        "raytrace:width=24,height=24,seed=7");
    EXPECT_EQ(wl.kind, "raytrace");
    EXPECT_EQ(wl.params.at("width"), 24);
    EXPECT_EQ(wl.params.at("height"), 24);
    EXPECT_EQ(wl.params.at("seed"), 7);
    EXPECT_EQ(wl.params.at("spheres"), 5);   // default kept

    EXPECT_THROW(WorkloadSpec::fromString("nosuch"),
                 std::invalid_argument);
    EXPECT_THROW(WorkloadSpec::fromString("matmul:bogus=1"),
                 std::invalid_argument);
    EXPECT_THROW(WorkloadSpec::fromString("matmul:n=banana"),
                 std::invalid_argument);
    EXPECT_THROW(WorkloadSpec::fromString("matmul:n"),
                 std::invalid_argument);
}

TEST(LabSpec, InstantiateRejectsUnknownParams)
{
    WorkloadSpec wl = WorkloadSpec::matmul(6);
    wl.params["typo"] = 1;
    EXPECT_THROW(instantiate(wl), std::invalid_argument);
}

TEST(LabSpec, JsonRejectsReplayMember)
{
    // A spec written for a replay sweep must be refused by name,
    // not silently run as a plain sweep.
    const Json j = Json::parse(
        R"({"name": "old", "replay": true,)"
        R"( "workloads": [{"kind": "matmul", "params": {"n": 4}}]})");
    try {
        experimentSpecFromJson(j);
        FAIL() << "replay member accepted";
    } catch (const JsonParseError &e) {
        EXPECT_NE(std::string(e.what()).find("\"replay\""),
                  std::string::npos)
            << e.what();
    }
}

/** The JsonParseError @p read throws, or "accepted". */
template <class F>
std::string
parseError(F read)
{
    try {
        read();
    } catch (const JsonParseError &e) {
        return e.what();
    }
    return "accepted";
}

TEST(LabSpec, JsonRejectsNumbersThatDoNotFitTheirField)
{
    ExperimentSpec base;
    base.workloads = {WorkloadSpec::matmul(4)};
    // Set @p member (or its nested @p field) to @p value and parse.
    auto reject = [&](const char *member, const char *field,
                      const char *value) {
        Json j = experimentSpecToJson(base);
        if (field == nullptr) {
            j.set(member, Json::parse(value));
        } else {
            Json sub = j.at(member);
            sub.set(field, Json::parse(value));
            j.set(member, sub);
        }
        return parseError([&] { experimentSpecFromJson(j); });
    };
    const struct
    {
        const char *member;
        const char *field;
        const char *value;
        const char *needle;
    } cases[] = {
        // Narrowing used to wrap 4294967297 to a 1-slot job.
        {"slots", nullptr, "[4294967297]", "slots"},
        {"slots", nullptr, "[2.5]", "slots"},
        {"core_template", "max_cycles", "-1", "max_cycles"},
        {"core_template", "rotation_mode", "\"sideways\"",
         "rotation_mode"},
        {"machine_template", "bank_interleave", "4294967296",
         "bank_interleave"},
        {"baseline_template", "width", "1e300", "width"},
    };
    for (const auto &c : cases) {
        const std::string err = reject(c.member, c.field, c.value);
        EXPECT_NE(err.find(c.needle), std::string::npos)
            << c.member << " " << c.value << " -> " << err;
    }
    EXPECT_NE(parseError([] {
                  workloadSpecFromJson(Json::parse(
                      R"({"kind": "matmul", "params": {"n": 0.5}})"));
              }).find("n: expected an integer"),
              std::string::npos);
}

TEST(LabSpec, ConfigJsonRoundTripsTheFullUnsignedRange)
{
    CoreConfig cfg;
    cfg.max_cycles = ~std::uint64_t{0};
    cfg.remote.base = 0xffffffffu;
    CoreConfig back;
    fromJson(Json::parse(toJson(cfg).dump()), back, "core");
    EXPECT_EQ(back.max_cycles, cfg.max_cycles);
    EXPECT_EQ(back.remote.base, cfg.remote.base);
}

/** The error reading @p j as a @p T, or "accepted". */
template <class T>
std::string
readError(const Json &j)
{
    return parseError([&] {
        T v;
        fromJson(j, v, "stats");
    });
}

TEST(LabResult, StatsJsonRejectsUnknownMembers)
{
    Json stats = toJson(RunStats{});
    stats.set("cycels", Json(1));
    EXPECT_NE(readError<RunStats>(stats).find("unknown member \"cycels\""),
              std::string::npos);

    MachineStats ms;
    ms.cores.resize(2);
    Json machine = toJson(ms);
    Json noc = machine.at("noc");
    noc.set("hops", Json(3));
    machine.set("noc", noc);
    EXPECT_NE(readError<MachineStats>(machine).find("unknown member \"hops\""),
              std::string::npos);
    machine = toJson(ms);
    machine.set("speedup", Json(2.0));
    EXPECT_NE(
        readError<MachineStats>(machine).find("unknown member \"speedup\""),
        std::string::npos);
}

TEST(LabResult, JsonRoundTrip)
{
    LabOptions opts;
    const ResultSet rs = runJobs(smallGrid(), opts);
    for (const JobResult &r : rs.results) {
        const JobResult back =
            resultFromJson(resultToJson(r));
        EXPECT_EQ(back.id, r.id);
        EXPECT_EQ(back.key, r.key);
        EXPECT_EQ(back.ok, r.ok);
        EXPECT_TRUE(back.stats == r.stats);
    }
    // CSV: header + one line per result.
    const std::string csv = rs.toCsv();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              rs.results.size() + 1);
    // Table renders without throwing and mentions every job.
    const std::string table = rs.toTable("t").str();
    for (const JobResult &r : rs.results)
        EXPECT_NE(table.find(r.id), std::string::npos);
}

// ----------------------------------------------------------------
// LRU size bounds (--cache-max-mb)
// ----------------------------------------------------------------

namespace
{

/** Distinct cheap jobs (num_slots moves the cache key). */
std::vector<Job>
distinctJobs(int n)
{
    std::vector<Job> jobs;
    for (int i = 0; i < n; ++i) {
        CoreConfig cfg;
        cfg.num_slots = i + 1;
        jobs.push_back(coreJob("j" + std::to_string(i),
                               WorkloadSpec::matmul(6), cfg));
    }
    return jobs;
}

/** mtime ticks can be coarse; space out LRU-ordering stores. */
void
lruTick()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

} // namespace

TEST_F(LabCacheTest, BoundedCacheEvictsOldestFirst)
{
    const std::vector<Job> jobs = distinctJobs(6);
    std::vector<JobResult> golden;
    for (const Job &job : jobs)
        golden.push_back(simulateJob(job));

    // Size one record to express the budget in record counts.
    std::uint64_t per;
    {
        const ResultCache sizer(cacheDir());
        sizer.store(jobs[0], golden[0]);
        per = sizer.diskBytes();
        ASSERT_GT(per, 0u);
        fs::remove_all(cacheDir());
    }

    const ResultCache cache(cacheDir(), 3 * per + per / 2);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        cache.store(jobs[i], golden[i]);
        lruTick();
    }
    cache.enforceLimit();

    EXPECT_LE(cache.diskBytes(), cache.maxBytes());
    // The newest records survived; the oldest are gone.
    EXPECT_TRUE(cache.contains(jobs[5]));
    EXPECT_TRUE(cache.contains(jobs[4]));
    EXPECT_FALSE(cache.contains(jobs[0]));
    EXPECT_FALSE(cache.contains(jobs[1]));

    // Evicted records are ordinary misses, not errors.
    JobResult out;
    EXPECT_FALSE(cache.load(jobs[0], &out));
    EXPECT_TRUE(cache.load(jobs[5], &out));
    EXPECT_TRUE(out.from_cache);
}

TEST_F(LabCacheTest, LoadRefreshesLruStampButContainsDoesNot)
{
    const Job job = distinctJobs(1)[0];
    const JobResult golden = simulateJob(job);
    // LRU stamping only happens on bounded caches; a budget far
    // above one record keeps this free of actual eviction.
    const ResultCache cache(cacheDir(), 64u << 20);
    cache.store(job, golden);

    const fs::path record = cache.pathFor(job.cacheKey());
    const auto stored = fs::last_write_time(record);

    // contains() is a pure probe (smtsim-sweep --dry-run must not
    // perturb the LRU order it is predicting against)...
    lruTick();
    ASSERT_TRUE(cache.contains(job));
    EXPECT_EQ(fs::last_write_time(record), stored);

    // ...while a real hit marks the record recently used.
    lruTick();
    JobResult out;
    ASSERT_TRUE(cache.load(job, &out));
    EXPECT_GT(fs::last_write_time(record), stored);
}

TEST_F(LabCacheTest, TouchedRecordSurvivesEviction)
{
    const std::vector<Job> jobs = distinctJobs(4);
    std::vector<JobResult> golden;
    for (const Job &job : jobs)
        golden.push_back(simulateJob(job));

    std::uint64_t per;
    {
        const ResultCache sizer(cacheDir());
        sizer.store(jobs[0], golden[0]);
        per = sizer.diskBytes();
        fs::remove_all(cacheDir());
    }

    const ResultCache cache(cacheDir(), 2 * per + per / 2);
    cache.store(jobs[0], golden[0]);
    lruTick();
    cache.store(jobs[1], golden[1]);
    lruTick();

    // Touch the oldest record, then add a third: the *untouched*
    // one must be the eviction victim.
    JobResult out;
    ASSERT_TRUE(cache.load(jobs[0], &out));
    lruTick();
    cache.store(jobs[2], golden[2]);
    cache.enforceLimit();

    EXPECT_TRUE(cache.contains(jobs[0]));
    EXPECT_FALSE(cache.contains(jobs[1]));
    EXPECT_TRUE(cache.contains(jobs[2]));
}

TEST_F(LabCacheTest, ConstructionTrimsAPreexistingOversizedDir)
{
    const std::vector<Job> jobs = distinctJobs(5);
    std::uint64_t per = 0;
    {
        const ResultCache unbounded(cacheDir());
        for (const Job &job : jobs) {
            unbounded.store(job, simulateJob(job));
            lruTick();
        }
        per = unbounded.diskBytes() / jobs.size();
    }

    // A daemon restarting with --cache-max-mb over yesterday's
    // oversized directory trims it up front.
    const ResultCache bounded(cacheDir(), 2 * per + per / 2);
    EXPECT_LE(bounded.diskBytes(), bounded.maxBytes());
    EXPECT_TRUE(bounded.contains(jobs[4]));
    EXPECT_FALSE(bounded.contains(jobs[0]));
}

TEST_F(LabCacheTest, SweepUnderTinyBudgetStillCompletes)
{
    const std::vector<Job> jobs = smallGrid();
    LabOptions opts;
    opts.num_threads = 2;
    opts.cache_dir = cacheDir();
    opts.cache_max_bytes = 1;   // nothing fits; everything evicts

    const ResultSet rs = runJobs(jobs, opts);
    EXPECT_EQ(rs.failures(), 0u);
    EXPECT_EQ(rs.cacheHits(), 0u);

    // The cache is useless at this budget but never harmful.
    const ResultSet again = runJobs(jobs, opts);
    EXPECT_EQ(again.failures(), 0u);
}
