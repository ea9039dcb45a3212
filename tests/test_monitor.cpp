// Health monitors and the incident flight recorder (ISSUE 8 tentpole):
// the P^2 streaming-quantile sketch, the three detector families
// (watermark, EWMA rate spike, quantile SLO), trip/clear auditing into
// the registry and DecisionLog, incident-bundle capture + schema
// validation — plus the PR 8 sampler contracts the monitors lean on:
// delta-vs-full-walk byte identity and the stopped-sampler rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "obs/decision.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/timeseries.h"
#include "sim/simulator.h"
#include "sim/trace.h"

using namespace mip;

namespace {

// ---------------------------------------------------------------------------
// P2Quantile
// ---------------------------------------------------------------------------

TEST(P2QuantileTest, ExactBelowFiveSamples) {
    obs::P2Quantile p50(0.5);
    EXPECT_EQ(p50.estimate(), 0.0) << "empty sketch reads 0";
    p50.add(10.0);
    EXPECT_EQ(p50.estimate(), 10.0);
    p50.add(30.0);
    p50.add(20.0);
    // rank = ceil(0.5 * 3) = 2 -> second smallest of {10, 20, 30}.
    EXPECT_EQ(p50.estimate(), 20.0);
    EXPECT_EQ(p50.count(), 3u);
}

TEST(P2QuantileTest, RejectsDegenerateQuantiles) {
    EXPECT_THROW(obs::P2Quantile(0.0), std::invalid_argument);
    EXPECT_THROW(obs::P2Quantile(1.0), std::invalid_argument);
    EXPECT_THROW(obs::P2Quantile(-0.5), std::invalid_argument);
}

TEST(P2QuantileTest, TracksKnownDistributionWithinTolerance) {
    // A deterministic LCG permutation of 0..9999: true p95 = 9499.
    obs::P2Quantile p95(0.95);
    std::uint64_t x = 12345;
    for (int i = 0; i < 10000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        p95.add(static_cast<double>(x % 10000));
    }
    EXPECT_EQ(p95.count(), 10000u);
    EXPECT_NEAR(p95.estimate(), 9499.0, 250.0)
        << "P^2 p95 of uniform(0,10000) should land near 9500";
}

TEST(P2QuantileTest, MedianOfSortedStreamIsTight) {
    obs::P2Quantile p50(0.5);
    for (int i = 1; i <= 1001; ++i) p50.add(static_cast<double>(i));
    EXPECT_NEAR(p50.estimate(), 501.0, 5.0);
}

// ---------------------------------------------------------------------------
// HealthMonitor rule families
// ---------------------------------------------------------------------------

TEST(HealthMonitorTest, OffUntilStartedAndStopDisarms) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    obs::HealthMonitor monitor(simulator, reg, {.interval = sim::milliseconds(100)});
    monitor.add_watermark(
        {.name = "wm", .node = "n", .layer = "l", .metric = "g", .detail = {}});

    EXPECT_FALSE(monitor.running());
    simulator.schedule_in(sim::seconds(1), [] {});
    simulator.run();
    EXPECT_EQ(monitor.evaluations(), 0u) << "construction must not schedule";

    monitor.start();
    simulator.schedule_in(sim::seconds(1), [] {});
    simulator.run();
    const auto evals = monitor.evaluations();
    EXPECT_GE(evals, 10u);

    monitor.stop();
    simulator.schedule_in(sim::seconds(1), [] {});
    simulator.run();
    EXPECT_EQ(monitor.evaluations(), evals) << "stop() must disarm the tick";
}

TEST(HealthMonitorTest, WatermarkTripsAndClearsWithHysteresis) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    double depth = 0.0;
    reg.register_gauge("mh", "mobileip", "bindings", [&depth] { return depth; });

    obs::HealthMonitor monitor(simulator, reg);
    monitor.add_watermark({.name = "binding-pressure",
                           .node = "mh",
                           .layer = "mobileip",
                           .metric = "bindings",
                           .trip_at = 10.0,
                           .clear_at = 4.0,
                           .detail = {}});

    monitor.evaluate_now();
    EXPECT_FALSE(monitor.tripped("binding-pressure"));

    depth = 10.0;  // exactly at the watermark: trips (>= semantics)
    monitor.evaluate_now();
    EXPECT_TRUE(monitor.tripped("binding-pressure"));
    EXPECT_EQ(monitor.trips(), 1u);
    EXPECT_EQ(monitor.trip_count("binding-pressure"), 1u);

    depth = 6.0;  // inside the hysteresis band: still tripped
    monitor.evaluate_now();
    EXPECT_TRUE(monitor.tripped("binding-pressure"));
    EXPECT_EQ(monitor.clears(), 0u);

    depth = 3.0;  // below clear_at: clears
    monitor.evaluate_now();
    EXPECT_FALSE(monitor.tripped("binding-pressure"));
    EXPECT_EQ(monitor.clears(), 1u);

    depth = 12.0;  // re-trip counts again
    monitor.evaluate_now();
    EXPECT_EQ(monitor.trip_count("binding-pressure"), 2u);
    EXPECT_EQ(monitor.trips(), 2u);
}

TEST(HealthMonitorTest, TripsCountInRegistryAndAuditAsDecisions) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    double v = 0.0;
    reg.register_gauge("n", "l", "g", [&v] { return v; });

    obs::DecisionLog log;
    obs::HealthMonitor monitor(simulator, reg);
    monitor.set_decision_log(&log);
    monitor.add_watermark(
        {.name = "wm", .node = "n", .layer = "l", .metric = "g", .trip_at = 1.0, .detail = {}});

    simulator.schedule_in(sim::milliseconds(7), [] {});
    simulator.run();
    v = 5.0;
    monitor.evaluate_now();
    v = 0.0;
    monitor.evaluate_now();

    // Registry: the aggregate and per-monitor trip counters plus clears.
    const auto& counters = reg.counters();
    const auto trips = counters.find({"health-monitor", "monitor", "trips"});
    ASSERT_NE(trips, counters.end());
    EXPECT_EQ(trips->second.value(), 1u);
    const auto named = counters.find({"health-monitor", "monitor", "wm_trips"});
    ASSERT_NE(named, counters.end());
    EXPECT_EQ(named->second.value(), 1u);
    const auto clears = counters.find({"health-monitor", "monitor", "clears"});
    ASSERT_NE(clears, counters.end());
    EXPECT_EQ(clears->second.value(), 1u);

    // DecisionLog: one failed "monitor-trip" then one passed "monitor-clear".
    ASSERT_EQ(log.size(), 2u);
    const obs::DecisionEvent& trip = log.events()[0];
    EXPECT_EQ(trip.node, "health-monitor");
    EXPECT_EQ(trip.correspondent, "wm");
    EXPECT_EQ(trip.trigger, "monitor-trip");
    EXPECT_EQ(trip.test, "watermark");
    EXPECT_EQ(trip.input, "value=5 threshold=1");
    EXPECT_FALSE(trip.passed);
    EXPECT_EQ(trip.when, sim::milliseconds(7));
    const obs::DecisionEvent& clear = log.events()[1];
    EXPECT_EQ(clear.trigger, "monitor-clear");
    EXPECT_TRUE(clear.passed);
}

TEST(HealthMonitorTest, RateSpikeTripsOnDeltaNotAbsoluteValue) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    auto& failures = reg.counter("mh", "probe", "failures");

    obs::HealthMonitor monitor(simulator, reg);
    monitor.add_rate_spike({.name = "probe-failures",
                            .node = "mh",
                            .layer = "probe",
                            .metric = "failures",
                            .min_rate = 3.0,
                            .detail = {}});

    failures.add(2);
    monitor.evaluate_now();  // delta 2 < 3: quiet
    EXPECT_FALSE(monitor.tripped("probe-failures"));

    failures.add(5);
    monitor.evaluate_now();  // delta 5 >= 3: trip
    EXPECT_TRUE(monitor.tripped("probe-failures"));
    EXPECT_EQ(monitor.first_trip_at("probe-failures"), 0);

    monitor.evaluate_now();  // delta 0 < min_rate: clear
    EXPECT_FALSE(monitor.tripped("probe-failures"));

    // Absolute value is now 7 but deltas stay small: no re-trip.
    failures.add(1);
    monitor.evaluate_now();
    EXPECT_FALSE(monitor.tripped("probe-failures"));
}

TEST(HealthMonitorTest, RateSpikeEwmaBaselineAbsorbsSteadyLoad) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    auto& handoffs = reg.counter("city", "metro", "handoffs");

    // Trip only when the per-eval rate exceeds 4x the EWMA baseline; the
    // warmup lets the baseline learn the steady rate first.
    obs::HealthMonitor monitor(simulator, reg);
    monitor.add_rate_spike({.name = "handoff-storm",
                            .node = "city",
                            .layer = "metro",
                            .metric = "handoffs",
                            .min_rate = 8.0,
                            .spike_factor = 4.0,
                            .alpha = 0.5,
                            .warmup_evals = 3,
                            .detail = {}});

    for (int i = 0; i < 6; ++i) {
        handoffs.add(10);  // steady 10/eval
        monitor.evaluate_now();
        EXPECT_FALSE(monitor.tripped("handoff-storm"))
            << "steady load must not trip (eval " << i << ")";
    }
    handoffs.add(100);  // 10x the baseline: storm
    monitor.evaluate_now();
    EXPECT_TRUE(monitor.tripped("handoff-storm"));
    const obs::MonitorTrip& t = monitor.trip_log().back();
    EXPECT_EQ(t.rule, "rate-spike");
    EXPECT_EQ(t.value, 100.0);
    EXPECT_GE(t.threshold, 4.0 * 10.0 * 0.9) << "threshold tracks the EWMA";
}

TEST(HealthMonitorTest, RateSpikeWarmupSuppressesFirstSeenWholeValue) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    auto& c = reg.counter("n", "l", "c");
    c.add(1000);  // pre-existing count before the monitor ever looks

    obs::HealthMonitor monitor(simulator, reg);
    monitor.add_rate_spike({.name = "spike",
                            .node = "n",
                            .layer = "l",
                            .metric = "c",
                            .min_rate = 50.0,
                            .warmup_evals = 1,
                            .detail = {}});
    monitor.evaluate_now();  // first-seen delta = 1000, but still warming up
    EXPECT_FALSE(monitor.tripped("spike"));
    c.add(10);
    monitor.evaluate_now();
    EXPECT_FALSE(monitor.tripped("spike"));
    c.add(60);
    monitor.evaluate_now();
    EXPECT_TRUE(monitor.tripped("spike"));
}

TEST(HealthMonitorTest, QuantileSloGatesOnMinSamplesAndTrips) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    obs::HealthMonitor monitor(simulator, reg);
    monitor.add_quantile_slo({.name = "rtt-p95",
                              .quantile = 0.95,
                              .bound = 100.0,
                              .min_samples = 8,
                              .unit = "ms",
                              .detail = {}});

    for (int i = 0; i < 7; ++i) monitor.observe("rtt-p95", 500.0);
    monitor.evaluate_now();
    EXPECT_FALSE(monitor.tripped("rtt-p95")) << "below min_samples: no verdict";

    monitor.observe("rtt-p95", 500.0);
    monitor.evaluate_now();
    EXPECT_TRUE(monitor.tripped("rtt-p95"));
    EXPECT_EQ(monitor.trip_log().back().rule, "quantile-slo");
    EXPECT_GT(monitor.quantile_estimate("rtt-p95"), 100.0);

    // Feeding an unknown rule name is a harmless no-op.
    monitor.observe("no-such-slo", 1.0);
    EXPECT_EQ(monitor.quantile_estimate("no-such-slo"), 0.0);
}

TEST(HealthMonitorTest, ResolvesMetricsCreatedAfterRulesWereAdded) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    obs::HealthMonitor monitor(simulator, reg);
    monitor.add_watermark({.name = "late",
                           .node = "n",
                           .layer = "l",
                           .metric = "c",
                           .source = obs::MetricSource::Counter,
                           .trip_at = 5.0,
                           .detail = {}});

    monitor.evaluate_now();  // metric does not exist yet: reads 0
    EXPECT_FALSE(monitor.tripped("late"));

    reg.counter("n", "l", "c").add(9);  // created lazily mid-run
    monitor.evaluate_now();
    EXPECT_TRUE(monitor.tripped("late"));
}

TEST(HealthMonitorTest, TripsAreSequenceNumberedAcrossRules) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    double a = 0.0, b = 0.0;
    reg.register_gauge("n", "l", "a", [&a] { return a; });
    reg.register_gauge("n", "l", "b", [&b] { return b; });

    obs::HealthMonitor monitor(simulator, reg);
    monitor.add_watermark(
        {.name = "first", .node = "n", .layer = "l", .metric = "a", .trip_at = 1.0,
         .detail = {}});
    monitor.add_watermark(
        {.name = "second", .node = "n", .layer = "l", .metric = "b", .trip_at = 1.0,
         .detail = {}});
    a = b = 2.0;
    monitor.evaluate_now();
    ASSERT_EQ(monitor.trips(), 2u);
    EXPECT_EQ(monitor.trip_log()[0].sequence, 1u);
    EXPECT_EQ(monitor.trip_log()[0].monitor, "first");
    EXPECT_EQ(monitor.trip_log()[1].sequence, 2u);
    EXPECT_EQ(monitor.trip_log()[1].monitor, "second");
    EXPECT_EQ(monitor.first_trip_at("no-such"), -1);
}

// ---------------------------------------------------------------------------
// IncidentRecorder
// ---------------------------------------------------------------------------

/// A monitor + recorder wired over trace/decisions/sampler state with
/// enough history to exercise windowing and truncation.
class IncidentTest : public ::testing::Test {
protected:
    IncidentTest()
        : monitor_(simulator_, registry_),
          sampler_(simulator_, registry_,
                   {.interval = sim::milliseconds(100), .ring_capacity = 16}) {}

    /// Runs the simulator forward while bumping a counter each 10 ms so
    /// trace, decisions and series all have content.
    void drive(sim::Duration for_time) {
        auto& c = registry_.counter("mh", "ip", "packets");
        const sim::TimePoint until = simulator_.now() + for_time;
        while (simulator_.now() < until) {
            simulator_.schedule_in(sim::milliseconds(10), [] {});
            simulator_.run_until(simulator_.now() + sim::milliseconds(10));
            c.add(1);
            trace_.record(sim::TraceKind::PacketSent, simulator_.now(),
                          trace_.intern("mh"), nullptr, 64, 0,
                          static_cast<std::uint64_t>(simulator_.now()),
                          sim::TraceDetail::none());
            obs::DecisionEvent dev;
            dev.when = simulator_.now();
            dev.node = "mh";
            dev.trigger = "probe";
            dev.test = "delivery";
            dev.passed = true;
            decisions_.record(std::move(dev));
        }
    }

    sim::Simulator simulator_;
    obs::MetricsRegistry registry_;
    sim::TraceRecorder trace_;
    obs::DecisionLog decisions_;
    obs::HealthMonitor monitor_;
    obs::MetricsSampler sampler_;
};

TEST_F(IncidentTest, ArmedRecorderCapturesSchemaValidBundles) {
    double g = 0.0;
    registry_.register_gauge("mh", "l", "g", [&g] { return g; });
    monitor_.add_watermark({.name = "pressure",
                            .node = "mh",
                            .layer = "l",
                            .metric = "g",
                            .trip_at = 1.0,
                            .detail = "synthetic pressure"});

    obs::IncidentRecorder recorder({.window = sim::seconds(1)});
    recorder.attach_trace(&trace_);
    recorder.attach_decisions(&decisions_);
    recorder.attach_sampler(&sampler_);
    recorder.arm(monitor_, "test_bench", "case1");

    sampler_.start();
    drive(sim::seconds(2));
    g = 5.0;
    monitor_.evaluate_now();

    ASSERT_EQ(recorder.captured(), 1u);
    ASSERT_EQ(recorder.bundles().size(), 1u);
    const obs::JsonValue& bundle = recorder.bundles()[0];
    const auto problems = obs::validate_incident_document(bundle);
    EXPECT_TRUE(problems.empty()) << problems.front();

    EXPECT_EQ(bundle.at("kind").as_string(), "incident");
    EXPECT_EQ(bundle.at("bench").as_string(), "test_bench");
    EXPECT_EQ(bundle.at("sequence").as_number(), 1.0);
    EXPECT_EQ(bundle.at("monitor").at("name").as_string(), "pressure");
    EXPECT_EQ(bundle.at("monitor").at("rule").as_string(), "watermark");
    EXPECT_EQ(bundle.at("monitor").at("detail").as_string(), "synthetic pressure");
    EXPECT_EQ(bundle.at("window_ns").as_number(), 1e9);

    // The 1 s window over a 2 s history must exclude the old half: the
    // trace section reports only in-window events as its total.
    const auto& tr = bundle.at("trace");
    EXPECT_GT(tr.at("included").as_number(), 0.0);
    EXPECT_LT(tr.at("total").as_number(), 200.0);
    const auto& events = tr.at("events").as_array();
    for (const auto& ev : events) {
        EXPECT_GE(ev.at("t_ns").as_number(), 1e9) << "event outside the window";
    }
    EXPECT_GT(bundle.at("decisions").at("included").as_number(), 0.0);
    EXPECT_FALSE(bundle.at("series").as_array().empty());
}

TEST_F(IncidentTest, TruncationIsExplicitWhenHistoryExceedsCaps) {
    double g = 0.0;
    registry_.register_gauge("mh", "l", "g", [&g] { return g; });
    monitor_.add_watermark(
        {.name = "wm", .node = "mh", .layer = "l", .metric = "g", .trip_at = 1.0,
         .detail = {}});

    obs::IncidentRecorder recorder({.window = sim::seconds(10),
                                    .max_trace_events = 5,
                                    .max_decisions = 3,
                                    .max_points_per_series = 4});
    recorder.attach_trace(&trace_);
    recorder.attach_decisions(&decisions_);
    recorder.attach_sampler(&sampler_);
    recorder.arm(monitor_, "b", "l");

    sampler_.start();
    drive(sim::seconds(1));  // ~100 trace events, ~100 decisions
    g = 2.0;
    monitor_.evaluate_now();

    ASSERT_EQ(recorder.bundles().size(), 1u);
    const obs::JsonValue& bundle = recorder.bundles()[0];
    EXPECT_TRUE(obs::validate_incident_document(bundle).empty());

    const auto& tr = bundle.at("trace");
    EXPECT_EQ(tr.at("included").as_number(), 5.0);
    EXPECT_GT(tr.at("total").as_number(), 5.0);
    EXPECT_EQ(tr.at("truncated").as_bool(), true);
    EXPECT_EQ(tr.at("events").as_array().size(), 5u);
    // The newest events win: the excerpt's last event is history's last.
    EXPECT_EQ(tr.at("events").as_array().back().at("t_ns").as_number(),
              static_cast<double>(trace_.events().back().when));

    const auto& dec = bundle.at("decisions");
    EXPECT_EQ(dec.at("included").as_number(), 3.0);
    EXPECT_EQ(dec.at("truncated").as_bool(), true);

    for (const auto& series : bundle.at("series").as_array()) {
        EXPECT_LE(series.at("points").as_array().size(), 4u);
    }
}

TEST_F(IncidentTest, MaxBundlesBoundsRetentionAndCountsOverflow) {
    double g = 0.0;
    registry_.register_gauge("mh", "l", "g", [&g] { return g; });
    monitor_.add_watermark({.name = "wm",
                            .node = "mh",
                            .layer = "l",
                            .metric = "g",
                            .trip_at = 1.0,
                            .clear_at = 1.0,
                            .detail = {}});

    obs::IncidentRecorder recorder({.max_bundles = 2});
    recorder.arm(monitor_, "b", "l");

    for (int i = 0; i < 5; ++i) {
        g = 2.0;
        monitor_.evaluate_now();  // trip
        g = 0.0;
        monitor_.evaluate_now();  // clear so the next round re-trips
    }
    EXPECT_EQ(recorder.captured(), 5u);
    EXPECT_EQ(recorder.bundles().size(), 2u);
    EXPECT_EQ(recorder.overflowed(), 3u);
    // Oldest-first retention: the kept bundles are trips 1 and 2.
    EXPECT_EQ(recorder.bundles()[0].at("sequence").as_number(), 1.0);
    EXPECT_EQ(recorder.bundles()[1].at("sequence").as_number(), 2.0);
}

TEST_F(IncidentTest, AbsentSourcesExportEmptySections) {
    obs::IncidentRecorder recorder;  // nothing attached
    obs::MonitorTrip trip;
    trip.when = sim::seconds(1);
    trip.sequence = 1;
    trip.monitor = "m";
    trip.rule = "watermark";
    const obs::JsonValue bundle = recorder.capture(trip, sim::seconds(1), "b", "l");
    const auto problems = obs::validate_incident_document(bundle);
    EXPECT_TRUE(problems.empty()) << problems.front();
    EXPECT_EQ(bundle.at("trace").at("total").as_number(), 0.0);
    EXPECT_EQ(bundle.at("trace").at("events").as_array().size(), 0u);
    EXPECT_EQ(bundle.at("decisions").at("total").as_number(), 0.0);
    EXPECT_EQ(bundle.at("series").as_array().size(), 0u);
}

TEST_F(IncidentTest, ValidatorRejectsNonConformingBundles) {
    obs::IncidentRecorder recorder;
    obs::MonitorTrip trip;
    trip.when = sim::seconds(1);
    trip.sequence = 1;
    trip.monitor = "m";
    trip.rule = "watermark";
    obs::JsonValue doc = recorder.capture(trip, sim::seconds(1), "b", "l");
    ASSERT_TRUE(obs::validate_incident_document(doc).empty());

    obs::JsonValue bad_rule = doc;
    bad_rule["monitor"]["rule"] = obs::JsonValue("bogus");
    EXPECT_FALSE(obs::validate_incident_document(bad_rule).empty());

    obs::JsonValue bad_count = doc;
    bad_count["trace"]["included"] = obs::JsonValue(7);
    EXPECT_FALSE(obs::validate_incident_document(bad_count).empty());

    obs::JsonValue bad_kind = doc;
    bad_kind["kind"] = obs::JsonValue("timeseries");
    EXPECT_FALSE(obs::validate_incident_document(bad_kind).empty());

    EXPECT_FALSE(obs::validate_incident_document(obs::JsonValue(1.0)).empty());
}

// ---------------------------------------------------------------------------
// Delta sampling: byte identity against the full-walk reference
// ---------------------------------------------------------------------------

/// Runs the same registry workload through a delta sampler and a
/// full-walk sampler ticking at the same sim times, then compares the
/// rendered documents byte for byte. The first sampler built takes the
/// registry's dirty feed; the second falls back to the full walk.
class ByteIdentityTest : public ::testing::Test {
protected:
    ByteIdentityTest()
        : delta_(simulator_, registry_,
                 {.interval = sim::milliseconds(50), .ring_capacity = 8}),
          full_(simulator_, registry_,
                {.interval = sim::milliseconds(50), .ring_capacity = 8}) {
    }

    void expect_identical() {
        EXPECT_EQ(delta_.to_json_string("bench", "case"),
                  full_.to_json_string("bench", "case"));
    }

    sim::Simulator simulator_;
    obs::MetricsRegistry registry_;
    obs::MetricsSampler delta_;
    obs::MetricsSampler full_;
};

TEST_F(ByteIdentityTest, MixedWorkloadWithRingOverflow) {
    auto& packets = registry_.counter("mh", "ip", "packets");
    auto& quiet = registry_.counter("mh", "ip", "quiet");
    double g = 0.25;
    registry_.register_gauge("mh", "handoff", "cell", [&g] { return g; });
    auto& rtt = registry_.histogram("mh", "probe", "rtt", {1.0, 100.0});

    ASSERT_TRUE(delta_.delta_active());
    ASSERT_FALSE(full_.delta_active()) << "second sampler must fall back";
    delta_.start();
    full_.start();

    // 30 ticks against capacity 8: forces drops in every series. The
    // workload mixes bursts, quiet stretches, gauge steps and histogram
    // observations, plus a counter created mid-run.
    for (int i = 0; i < 30; ++i) {
        if (i % 3 == 0) packets.add(static_cast<std::uint64_t>(i));
        if (i == 7) g = 0.75;
        if (i == 9) rtt.observe(50.0);
        if (i == 11) rtt.observe(500.0);
        if (i == 13) registry_.counter("mh", "ip", "late_comer").add(42);
        if (i > 20) registry_.counter("mh", "ip", "late_comer").add(1);
        simulator_.schedule_in(sim::milliseconds(50), [] {});
        simulator_.run_until(simulator_.now() + sim::milliseconds(50));
    }
    (void)quiet;  // never bumped: both paths must still emit its series
    delta_.stop();
    full_.stop();

    expect_identical();
    // And the identity is not vacuous: drops happened and series exist.
    const obs::SeriesRing* ring = delta_.find("mh", "ip", "packets", "rate");
    ASSERT_NE(ring, nullptr);
    EXPECT_GT(ring->dropped(), 0u);
    EXPECT_EQ(ring->size(), 8u);
}

TEST_F(ByteIdentityTest, SeriesAccessorAgreesMidRunAndAfterMoreTicks) {
    auto& c = registry_.counter("n", "l", "c");
    delta_.start();
    full_.start();
    for (int i = 0; i < 5; ++i) {
        c.add(2);
        simulator_.schedule_in(sim::milliseconds(50), [] {});
        simulator_.run_until(simulator_.now() + sim::milliseconds(50));
    }
    // Reading series() mid-run materializes the delta cache...
    expect_identical();
    // ...and must not corrupt subsequent sampling.
    for (int i = 0; i < 5; ++i) {
        c.add(3);
        simulator_.schedule_in(sim::milliseconds(50), [] {});
        simulator_.run_until(simulator_.now() + sim::milliseconds(50));
    }
    expect_identical();
}

TEST_F(ByteIdentityTest, StopStartCycleRebaselinesIdentically) {
    auto& c = registry_.counter("n", "l", "c");
    double g = 1.0;
    registry_.register_gauge("n", "l", "g", [&g] { return g; });

    delta_.start();
    full_.start();
    for (int i = 0; i < 3; ++i) {
        c.add(4);
        simulator_.schedule_in(sim::milliseconds(50), [] {});
        simulator_.run_until(simulator_.now() + sim::milliseconds(50));
    }
    delta_.stop();
    full_.stop();

    // Mutations during the sealed gap: a tracked counter moves, a new
    // counter is born, the gauge steps. None may appear as a spike.
    c.add(1000);
    registry_.counter("n", "l", "born_in_gap").add(77);
    g = 9.0;

    delta_.start();
    full_.start();
    for (int i = 0; i < 3; ++i) {
        c.add(6);
        registry_.counter("n", "l", "born_in_gap").add(1);
        simulator_.schedule_in(sim::milliseconds(50), [] {});
        simulator_.run_until(simulator_.now() + sim::milliseconds(50));
    }
    delta_.stop();
    full_.stop();

    expect_identical();

    // The re-baseline rule, stated directly: the tracked counter's first
    // post-restart delta is 6, not 1006.
    const obs::SeriesRing* ring = delta_.find("n", "l", "c", "rate");
    ASSERT_NE(ring, nullptr);
    EXPECT_EQ(ring->at(ring->size() - 3).value, 6.0);
}

// ---------------------------------------------------------------------------
// The stopped-sampler contract (PR 8 satellite: sample_now after stop)
// ---------------------------------------------------------------------------

TEST(StoppedSamplerTest, SampleNowWorksInIdleRecordsNothingAfterStop) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    auto& c = reg.counter("n", "l", "c");
    obs::MetricsSampler sampler(simulator, reg, {});

    c.add(3);
    sampler.sample_now();  // Idle: allowed (manual sampling without start())
    EXPECT_EQ(sampler.samples_taken(), 1u);
    EXPECT_FALSE(sampler.stopped());

    sampler.start();
    sampler.stop();
    EXPECT_TRUE(sampler.stopped());

    c.add(100);
    sampler.sample_now();  // Stopped: sealed, must not record
    EXPECT_EQ(sampler.samples_taken(), 1u);
    const obs::SeriesRing* ring = sampler.find("n", "l", "c", "rate");
    ASSERT_NE(ring, nullptr);
    EXPECT_EQ(ring->size(), 1u);
    EXPECT_EQ(ring->at(0).value, 3.0) << "the sealed window keeps its last state";
}

TEST(StoppedSamplerTest, RestartReopensTheWindow) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    auto& c = reg.counter("n", "l", "c");
    // The full-walk path's re-baseline: claim the dirty feed first so the
    // sampler falls back to it (ByteIdentityTest covers the delta path).
    ASSERT_TRUE(reg.claim_dirty_consumer(&reg));
    obs::MetricsSampler sampler(simulator, reg, {.interval = sim::milliseconds(10)});
    ASSERT_FALSE(sampler.delta_active());

    sampler.start();
    c.add(5);
    simulator.run_until(simulator.now() + sim::milliseconds(10));
    sampler.stop();
    ASSERT_EQ(sampler.samples_taken(), 1u);

    c.add(999);  // during the gap
    sampler.start();
    EXPECT_TRUE(sampler.running());
    c.add(2);
    simulator.run_until(simulator.now() + sim::milliseconds(10));
    sampler.stop();

    const obs::SeriesRing* ring = sampler.find("n", "l", "c", "rate");
    ASSERT_NE(ring, nullptr);
    ASSERT_EQ(ring->size(), 2u);
    EXPECT_EQ(ring->at(0).value, 5.0);
    EXPECT_EQ(ring->at(1).value, 2.0)
        << "gap mutations must not surface as a rate spike";
}

// ---------------------------------------------------------------------------
// dropped_points in the export schema (PR 8 satellite)
// ---------------------------------------------------------------------------

TEST(TimeseriesSchemaTest, DroppedPointsSurfaceInExport) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    auto& c = reg.counter("n", "l", "c");
    obs::MetricsSampler sampler(simulator, reg,
                                {.interval = sim::milliseconds(10), .ring_capacity = 4});
    sampler.start();
    for (int i = 0; i < 10; ++i) {
        c.add(1);
        simulator.schedule_in(sim::milliseconds(10), [] {});
        simulator.run_until(simulator.now() + sim::milliseconds(10));
    }
    sampler.stop();

    const obs::JsonValue doc = sampler.to_json("b", "l");
    const auto problems = obs::validate_timeseries_document(doc);
    ASSERT_TRUE(problems.empty()) << problems.front();
    EXPECT_EQ(doc.at("ring_capacity").as_number(), 4.0);
    const auto& series = doc.at("series").as_array();
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series[0].at("dropped_points").as_number(), 6.0);
    EXPECT_EQ(series[0].at("points").as_array().size(), 4u);
}

TEST(TimeseriesSchemaTest, ValidatorEnforcesDropAccounting) {
    sim::Simulator simulator;
    obs::MetricsRegistry reg;
    auto& c = reg.counter("n", "l", "c");
    obs::MetricsSampler sampler(simulator, reg,
                                {.interval = sim::milliseconds(10), .ring_capacity = 4});
    sampler.start();
    for (int i = 0; i < 6; ++i) {
        c.add(1);
        simulator.schedule_in(sim::milliseconds(10), [] {});
        simulator.run_until(simulator.now() + sim::milliseconds(10));
    }
    sampler.stop();
    obs::JsonValue doc = sampler.to_json("b", "l");
    ASSERT_TRUE(obs::validate_timeseries_document(doc).empty());

    // dropped_points is required per series.
    obs::JsonValue missing = doc;
    missing["series"].as_array()[0].as_object().erase("dropped_points");
    EXPECT_FALSE(obs::validate_timeseries_document(missing).empty());

    // More retained points than ring_capacity is a contradiction.
    obs::JsonValue tiny_cap = doc;
    tiny_cap["ring_capacity"] = obs::JsonValue(2);
    EXPECT_FALSE(obs::validate_timeseries_document(tiny_cap).empty());

    // Drops with a non-full ring: the ring only evicts when full.
    obs::JsonValue phantom = doc;
    phantom["ring_capacity"] = obs::JsonValue(100);
    EXPECT_FALSE(obs::validate_timeseries_document(phantom).empty());

    // dropped + retained exceeding the tick count is over-accounting.
    obs::JsonValue overflow = doc;
    overflow["series"].as_array()[0]["dropped_points"] = obs::JsonValue(50);
    EXPECT_FALSE(obs::validate_timeseries_document(overflow).empty());

    // Negative drops are rejected.
    obs::JsonValue negative = doc;
    negative["series"].as_array()[0]["dropped_points"] = obs::JsonValue(-1);
    EXPECT_FALSE(obs::validate_timeseries_document(negative).empty());
}

}  // namespace
