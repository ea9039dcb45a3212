// Deterministic parallel sweep engine (src/sweep) + hot-path buffer pool
// (ISSUE 5 tentpole): the byte-identity contract (same seed → same JSON,
// serially and across thread counts), id-sorted merged reports, error
// containment, histogram aggregation, the sweep-report schema validator,
// BufferPool recycling, and profiler-attachment neutrality under pooling.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "net/pool.h"
#include "obs/json.h"
#include "obs/timeseries.h"
#include "sim/profiler.h"
#include "sweep/sweep.h"
#include "transport/pinger.h"

using namespace mip;
using namespace mip::core;

namespace {

/// A small but non-trivial scenario: a full Mobile IP world, a sampler on
/// a 100 ms tick, and @p pings echo exchanges driven through the tunnel
/// path. Returns (metrics JSON, timeseries JSON) rendered to strings —
/// the exact artifacts the benches export.
std::pair<std::string, std::string> run_scenario(std::uint64_t seed, int pings,
                                                 sim::SimProfiler* profiler = nullptr) {
    World world;
    if (profiler != nullptr) world.sim.set_profiler(profiler);
    CorrespondentHost& ch = world.create_correspondent({}, Placement::CorrLan);
    world.create_mobile_host();
    EXPECT_TRUE(world.attach_mobile_foreign());

    obs::MetricsSampler sampler(world.sim, world.metrics);
    sampler.start();

    transport::Pinger pinger(ch.stack());
    int delivered = 0;
    for (int i = 0; i < pings; ++i) {
        // Vary payload size by seed so distinct seeds provably produce
        // distinct artifacts (the byte-identity tests would pass vacuously
        // if every seed ran the same traffic).
        const std::size_t payload = 56 + static_cast<std::size_t>(seed % 32);
        pinger.ping(world.mh_home_addr(),
                    [&](auto rtt, auto&&) { delivered += rtt.has_value() ? 1 : 0; },
                    sim::seconds(5), payload);
        world.run_for(sim::seconds(2));
    }
    EXPECT_EQ(delivered, pings);
    sampler.stop();
    return {world.metrics.snapshot_json("test_sweep", "scenario", world.sim.now()),
            sampler.to_json_string("test_sweep", "scenario")};
}

/// A scenario job for SweepRunner: the run_scenario world wrapped so the
/// metrics JSON rides in the report (byte-comparable across thread counts).
sweep::JobSpec scenario_job(std::uint64_t id, std::uint64_t seed) {
    sweep::JobSpec spec;
    spec.id = id;
    spec.label = "seed-" + std::to_string(seed);
    spec.run = [seed] {
        sweep::JobResult r;
        auto [metrics, timeseries] = run_scenario(seed, /*pings=*/2);
        r.report["seed"] = obs::JsonValue(static_cast<double>(seed));
        r.report["metrics_json"] = obs::JsonValue(std::move(metrics));
        r.report["timeseries_json"] = obs::JsonValue(std::move(timeseries));
        return r;
    };
    return spec;
}

/// A cheap synthetic job (no World) for engine-mechanics tests.
sweep::JobSpec synthetic_job(std::uint64_t id, double value) {
    sweep::JobSpec spec;
    spec.id = id;
    spec.label = "synthetic-" + std::to_string(id);
    spec.run = [id, value] {
        sweep::JobResult r;
        r.report["id"] = obs::JsonValue(static_cast<double>(id));
        r.report["value"] = obs::JsonValue(value);
        r.decision_count = id;
        return r;
    };
    return spec;
}

}  // namespace

// ---------------------------------------------------------------------------
// Serial determinism: the foundation the parallel guarantee rests on
// ---------------------------------------------------------------------------

// DESIGN.md §10 contract, leg one: running the identical scenario twice in
// the same process produces byte-identical metrics and time-series JSON.
// This is what the per-Simulator counters (MAC ids, ping idents, packet
// ids) buy — a second World starts from the same state as the first.
TEST(SweepDeterminismTest, SameSeedTwiceSeriallyIsByteIdentical) {
    const auto first = run_scenario(7, /*pings=*/3);
    const auto second = run_scenario(7, /*pings=*/3);
    EXPECT_EQ(first.first, second.first) << "metrics JSON diverged between runs";
    EXPECT_EQ(first.second, second.second) << "timeseries JSON diverged between runs";
}

TEST(SweepDeterminismTest, DistinctSeedsProduceDistinctArtifacts) {
    const auto a = run_scenario(1, /*pings=*/2);
    const auto b = run_scenario(9, /*pings=*/2);
    // Different payload sizes must show up somewhere in the metrics.
    EXPECT_NE(a.first, b.first)
        << "seeds 1 and 9 produced identical metrics — byte-identity tests "
           "would be vacuous";
}

// ---------------------------------------------------------------------------
// Parallel byte-identity: jobs=4 must reproduce jobs=1 exactly
// ---------------------------------------------------------------------------

// DESIGN.md §10 contract, leg two: per-job artifacts and the merged report
// are byte-identical whether the sweep ran on 1 thread or 4. Each job owns
// a private World, so only engine bugs (shared state, completion-order
// merging) could break this.
TEST(SweepDeterminismTest, ParallelJobsMatchSerialByteForByte) {
    auto make_jobs = [] {
        std::vector<sweep::JobSpec> jobs;
        for (std::uint64_t s = 0; s < 4; ++s) jobs.push_back(scenario_job(s, s * 11 + 3));
        return jobs;
    };

    const sweep::SweepRunner serial({.jobs = 1});
    const sweep::SweepRunner parallel({.jobs = 4});
    const sweep::SweepOutcome ref = serial.run(make_jobs());
    const sweep::SweepOutcome par = parallel.run(make_jobs());

    EXPECT_EQ(ref.failures(), 0u);
    EXPECT_EQ(par.failures(), 0u);
    EXPECT_TRUE(ref.same_artifacts(par))
        << "artifacts diverged between jobs=1 and jobs=4";
}

// same_artifacts is the check every sweep bench's cross-`--jobs` verdict
// rests on: one differing metrics byte, report row or result count must
// make it false.
TEST(SweepDeterminismTest, SameArtifactsDetectsAnySingleDifference) {
    const auto outcome = [] {
        std::vector<sweep::JobSpec> jobs;
        for (std::uint64_t id = 1; id <= 3; ++id) jobs.push_back(synthetic_job(id, 0.5));
        sweep::SweepOutcome out = sweep::SweepRunner({.jobs = 1}).run(std::move(jobs));
        for (sweep::JobResult& r : out.results) {
            r.metrics = obs::JsonValue(obs::JsonValue::Object{{"name", "rtt_ns"}});
        }
        return out;
    };
    const sweep::SweepOutcome ref = outcome();
    EXPECT_TRUE(ref.same_artifacts(outcome()));

    sweep::SweepOutcome metrics_byte = outcome();
    metrics_byte.results[1].metrics["name"] = "rtt_nS";
    EXPECT_FALSE(ref.same_artifacts(metrics_byte));
    EXPECT_FALSE(metrics_byte.same_artifacts(ref));

    sweep::SweepOutcome report_row = outcome();
    report_row.results[2].report["value"] = 0.25;
    EXPECT_FALSE(ref.same_artifacts(report_row));

    sweep::SweepOutcome fewer = outcome();
    fewer.specs.pop_back();
    fewer.results.pop_back();
    EXPECT_FALSE(ref.same_artifacts(fewer));
    EXPECT_FALSE(fewer.same_artifacts(ref));
}

// ---------------------------------------------------------------------------
// Engine mechanics
// ---------------------------------------------------------------------------

// Jobs submitted out of id order still merge sorted by id — the report
// never reflects completion or submission order.
TEST(SweepRunnerTest, ReportRowsSortedByJobId) {
    std::vector<sweep::JobSpec> jobs;
    jobs.push_back(synthetic_job(5, 0.5));
    jobs.push_back(synthetic_job(1, 0.1));
    jobs.push_back(synthetic_job(3, 0.3));
    const sweep::SweepOutcome out = sweep::SweepRunner({.jobs = 2}).run(std::move(jobs));

    const obs::JsonValue doc = out.report("test_sweep", "order");
    const auto& rows = doc.at("jobs").as_array();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].at("id").as_number(), 1.0);
    EXPECT_EQ(rows[1].at("id").as_number(), 3.0);
    EXPECT_EQ(rows[2].at("id").as_number(), 5.0);
    // Results stay in submission order (parallel to specs), regardless.
    EXPECT_EQ(out.results[0].report.at("id").as_number(), 5.0);
    EXPECT_EQ(out.results[1].report.at("id").as_number(), 1.0);
}

// A throwing job is contained: its slot records ok=false with the
// exception text, every other job completes normally, and the merged
// report counts the failure.
TEST(SweepRunnerTest, ThrowingJobIsContained) {
    std::vector<sweep::JobSpec> jobs;
    jobs.push_back(synthetic_job(0, 0.0));
    sweep::JobSpec bad;
    bad.id = 1;
    bad.label = "bad";
    bad.run = []() -> sweep::JobResult { throw std::runtime_error("boom at seed 1"); };
    jobs.push_back(std::move(bad));
    jobs.push_back(synthetic_job(2, 0.2));

    const sweep::SweepOutcome out = sweep::SweepRunner({.jobs = 3}).run(std::move(jobs));
    EXPECT_EQ(out.failures(), 1u);
    EXPECT_TRUE(out.results[0].ok);
    EXPECT_FALSE(out.results[1].ok);
    EXPECT_NE(out.results[1].error.find("boom at seed 1"), std::string::npos);
    EXPECT_TRUE(out.results[2].ok);
    const obs::JsonValue doc = out.report("test_sweep", "contained");
    EXPECT_EQ(doc.at("jobs_failed").as_number(), 1.0);
    EXPECT_EQ(doc.at("jobs_total").as_number(), 3.0);
}

// Histograms with the same (node, layer, name) are summed across every
// job's metrics snapshot: counts add, per-bucket counts add.
TEST(SweepRunnerTest, MergedReportAggregatesHistogramsAcrossJobs) {
    auto hist_job = [](std::uint64_t id, std::vector<double> values) {
        sweep::JobSpec spec;
        spec.id = id;
        spec.label = "hist-" + std::to_string(id);
        spec.run = [values = std::move(values)] {
            obs::MetricsRegistry reg;
            auto& h = reg.histogram("node", "layer", "latency_ms", {10.0, 100.0});
            for (double v : values) h.observe(v);
            sweep::JobResult r;
            r.metrics = reg.snapshot("test_sweep", "hist", 0);
            r.decision_count = 2;
            return r;
        };
        return spec;
    };
    std::vector<sweep::JobSpec> jobs;
    jobs.push_back(hist_job(0, {5.0, 50.0}));
    jobs.push_back(hist_job(1, {500.0}));
    const sweep::SweepOutcome out = sweep::SweepRunner({.jobs = 2}).run(std::move(jobs));

    const obs::JsonValue doc = out.report("test_sweep", "agg");
    const auto& agg = doc.at("aggregates");
    EXPECT_EQ(agg.at("decision_count").as_number(), 4.0);
    const auto& hists = agg.at("histograms").as_array();
    ASSERT_EQ(hists.size(), 1u);
    const auto& h = hists[0];
    EXPECT_EQ(h.at("node").as_string(), "node");
    EXPECT_EQ(h.at("name").as_string(), "latency_ms");
    EXPECT_EQ(h.at("count").as_number(), 3.0);
    EXPECT_EQ(h.at("sum").as_number(), 555.0);
}

// The schema validator accepts what the engine emits and names the
// offending field when a document is malformed.
TEST(SweepRunnerTest, ValidateSweepDocument) {
    std::vector<sweep::JobSpec> jobs;
    jobs.push_back(synthetic_job(0, 1.0));
    const sweep::SweepOutcome out = sweep::SweepRunner().run(std::move(jobs));
    obs::JsonValue doc = out.report("test_sweep", "valid");
    EXPECT_TRUE(sweep::validate_sweep_document(doc).empty());

    // Round-trip through text stays valid (what bench_smoke exercises).
    const obs::JsonValue reparsed = obs::JsonValue::parse(doc.dump(2));
    EXPECT_TRUE(sweep::validate_sweep_document(reparsed).empty());

    obs::JsonValue::Object broken = doc.as_object();
    broken.erase("jobs");
    const auto errors = sweep::validate_sweep_document(obs::JsonValue(broken));
    ASSERT_FALSE(errors.empty());
    bool mentions_jobs = false;
    for (const auto& e : errors) mentions_jobs |= e.find("jobs") != std::string::npos;
    EXPECT_TRUE(mentions_jobs);

    EXPECT_FALSE(
        sweep::validate_sweep_document(obs::JsonValue("not an object")).empty());
}

// ---------------------------------------------------------------------------
// BufferPool (hot-path allocation reuse)
// ---------------------------------------------------------------------------

TEST(BufferPoolTest, RecyclesReleasedStorage) {
    net::BufferPool pool;
    auto buf = pool.acquire(128);
    EXPECT_TRUE(buf.empty());
    EXPECT_GE(buf.capacity(), 128u);
    buf.resize(100, 0xAB);
    const auto* data = buf.data();
    pool.release(std::move(buf));
    EXPECT_EQ(pool.free_count(), 1u);

    auto again = pool.acquire(64);
    EXPECT_TRUE(again.empty()) << "recycled buffer must come back cleared";
    EXPECT_EQ(again.data(), data) << "storage was not actually recycled";
    EXPECT_EQ(pool.stats().acquires, 2u);
    EXPECT_EQ(pool.stats().reuses, 1u);
    EXPECT_EQ(pool.stats().releases, 1u);
}

TEST(BufferPoolTest, JumboBuffersAreNotRetained) {
    net::BufferPool pool;
    std::vector<std::uint8_t> jumbo;
    jumbo.reserve(net::BufferPool::kMaxRetainedCapacity + 1);
    pool.release(std::move(jumbo));
    EXPECT_EQ(pool.free_count(), 0u);
    EXPECT_EQ(pool.stats().discarded, 1u);
}

TEST(BufferPoolTest, FreeListIsBounded) {
    net::BufferPool pool;
    for (std::size_t i = 0; i < net::BufferPool::kMaxFreeListSize + 10; ++i) {
        std::vector<std::uint8_t> buf;
        buf.reserve(64);
        pool.release(std::move(buf));
    }
    EXPECT_EQ(pool.free_count(), net::BufferPool::kMaxFreeListSize);
    EXPECT_EQ(pool.stats().discarded, 10u);
}

TEST(BufferPoolTest, SimulatorTrafficReusesBuffers) {
    World world;
    CorrespondentHost& ch = world.create_correspondent({}, Placement::CorrLan);
    world.create_mobile_host();
    ASSERT_TRUE(world.attach_mobile_foreign());
    transport::Pinger pinger(ch.stack());
    for (int i = 0; i < 5; ++i) {
        pinger.ping(world.mh_home_addr(), [](auto, auto&&) {}, sim::seconds(5));
        world.run_for(sim::seconds(2));
    }
    const net::BufferPool::Stats& stats = world.sim.buffer_pool().stats();
    EXPECT_GT(stats.acquires, 0u) << "send path is not using the pool";
    EXPECT_GT(stats.reuses, 0u) << "steady-state traffic never recycled a buffer";
}

// ---------------------------------------------------------------------------
// Profiler neutrality: observability stays out of the simulation
// ---------------------------------------------------------------------------

// Attaching the self-profiler must not perturb simulation results — the
// detached path is zero-overhead AND zero-influence even with the buffer
// pool in the send/receive path. Metrics JSON is the witness.
TEST(SweepDeterminismTest, ProfilerAttachmentDoesNotChangeMetrics) {
    const auto detached = run_scenario(4, /*pings=*/3, nullptr);
    sim::SimProfiler profiler;
    const auto attached = run_scenario(4, /*pings=*/3, &profiler);
    EXPECT_GT(profiler.total_dispatches(), 0u);
    EXPECT_EQ(detached.first, attached.first)
        << "attaching the profiler changed the metrics snapshot";
    EXPECT_EQ(detached.second, attached.second)
        << "attaching the profiler changed the sampled timeseries";
}

// ---------------------------------------------------------------------------
// BENCH_perf.json schema: hardware_concurrency and the city block (ISSUE 6)
// ---------------------------------------------------------------------------

#include "sweep/bench_report.h"

namespace {

/// The smallest document validate_bench_perf_document accepts.
obs::JsonValue minimal_perf_doc() {
    obs::JsonValue doc{obs::JsonValue::Object{}};
    doc["kind"] = obs::JsonValue("bench_perf");
    doc["schema_version"] = obs::JsonValue(2.0);
    doc["hardware_concurrency"] = obs::JsonValue(4.0);
    doc["scenarios"] = obs::JsonValue(obs::JsonValue::Array{});
    return doc;
}

obs::JsonValue valid_city_block() {
    obs::JsonValue city{obs::JsonValue::Object{}};
    city["seeds"] = obs::JsonValue(4.0);
    city["hosts"] = obs::JsonValue(12000.0);
    city["cells"] = obs::JsonValue(144.0);
    city["sim_seconds"] = obs::JsonValue(600.0);
    city["events"] = obs::JsonValue(4.0e6);
    city["events_per_sec"] = obs::JsonValue(2.4e6);
    city["artifacts_identical"] = obs::JsonValue(true);
    obs::JsonValue ob{obs::JsonValue::Object{}};
    ob["sampler_off_wall_ms"] = obs::JsonValue(1575.0);
    ob["sampler_on_wall_ms"] = obs::JsonValue(1654.0);
    ob["overhead_pct"] = obs::JsonValue(5.0);
    ob["metrics_interval_s"] = obs::JsonValue(30.0);
    ob["reps"] = obs::JsonValue(3.0);
    city["observability"] = ob;
    obs::JsonValue fl{obs::JsonValue::Object{}};
    fl["links"] = obs::JsonValue(261.0);
    fl["indexed_ns"] = obs::JsonValue(26.0);
    fl["linear_ns"] = obs::JsonValue(289.0);
    fl["speedup"] = obs::JsonValue(11.0);
    city["find_link"] = fl;
    return city;
}

bool mentions(const std::vector<std::string>& problems, const std::string& needle) {
    for (const auto& p : problems) {
        if (p.find(needle) != std::string::npos) return true;
    }
    return false;
}

}  // namespace

TEST(BenchPerfSchemaTest, RequiresHardwareConcurrency) {
    obs::JsonValue doc = minimal_perf_doc();
    EXPECT_TRUE(sweep::validate_bench_perf_document(doc).empty());

    obs::JsonValue::Object broken = doc.as_object();
    broken.erase("hardware_concurrency");
    EXPECT_TRUE(mentions(sweep::validate_bench_perf_document(obs::JsonValue(broken)),
                         "hardware_concurrency"));

    doc["hardware_concurrency"] = obs::JsonValue(0.0);  // a 0-core box is a lie
    EXPECT_TRUE(mentions(sweep::validate_bench_perf_document(doc),
                         "hardware_concurrency"));
}

TEST(BenchPerfSchemaTest, AcceptsValidCityBlock) {
    obs::JsonValue doc = minimal_perf_doc();
    doc["city"] = valid_city_block();
    const auto problems = sweep::validate_bench_perf_document(doc);
    EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(BenchPerfSchemaTest, CityBlockNamesItsOffendingFields) {
    obs::JsonValue doc = minimal_perf_doc();

    obs::JsonValue city = valid_city_block();
    obs::JsonValue::Object c = city.as_object();
    c.erase("events_per_sec");
    doc["city"] = obs::JsonValue(c);
    EXPECT_TRUE(mentions(sweep::validate_bench_perf_document(doc),
                         "city.events_per_sec"));

    // From schema 3 on, the observability overhead is required, and one
    // sample per side is not an overhead: reps < 2 must be rejected.
    doc["schema_version"] = obs::JsonValue(3.0);
    city = valid_city_block();
    c = city.as_object();
    c.erase("observability");
    doc["city"] = obs::JsonValue(c);
    EXPECT_TRUE(mentions(sweep::validate_bench_perf_document(doc), "city.observability"));

    city = valid_city_block();
    city["observability"]["reps"] = obs::JsonValue(1.0);
    doc["city"] = city;
    EXPECT_TRUE(mentions(sweep::validate_bench_perf_document(doc),
                         "reps >= 2"));

    city = valid_city_block();
    c = city.as_object();
    c.erase("find_link");
    doc["city"] = obs::JsonValue(c);
    EXPECT_TRUE(mentions(sweep::validate_bench_perf_document(doc), "city.find_link"));
}
