// Metrics time-series sampling (ISSUE: time-resolved observability,
// part a; delta-sampled hot path: observability tentpole PR 8).
//
// A MetricsRegistry snapshot is an end-of-run photograph; the paper's
// runtime behavior — the §7.1 "series of tests", probe upgrades, mode
// flips, handoff dynamics — is a *process over time*. MetricsSampler
// turns the registry into time series: driven on a configurable sim-time
// interval (off by default; start() attaches it), each tick records
//
//   counters    -> field "rate":  the delta since the previous tick
//   gauges      -> field "value": the polled value
//   histograms  -> fields "count" and "sum": the cumulative snapshot
//
// bounded per series to the most recent `ring_capacity` ticks; older
// points are dropped and counted (`dropped_points` in the export), so a
// long run keeps the most recent window at full resolution instead of
// exhausting memory.
//
// Two internally different but byte-identical sampling strategies; the
// registry decides which one a sampler runs:
//
//   delta      taken when the registry's single dirty-consumer slot is
//              free. Per tick it visits only the counters/histograms
//              that mutated since the previous tick (plus all polled
//              gauges, which cannot self-report). Quiet metrics are
//              stored run-length / sparse and reconstructed at export.
//              This is what makes always-on sampling cheap enough to
//              leave armed at city scale.
//   full walk  the fallback when another consumer already holds the
//              slot: walks every registry entry every tick into eager
//              per-series rings. It is the reference implementation the
//              delta path is pinned against (golden + unit tests, which
//              reach it through a second sampler on the same registry
//              or by claiming the slot first).
//
// Lifecycle contract (PR 8 satellite): a sampler is Idle until start(),
// Running until stop(), and Stopped after. sample_now() records in Idle
// and Running; once stopped the observation window is sealed and
// sample_now() is a no-op (it used to keep appending with a stale
// counter baseline). start() after stop() re-opens the window and
// re-baselines counters to their current values, so mutations during the
// gap contribute no spurious rate spike.
//
// Export is deterministic JSON (docs/TRACE_FORMAT.md §5,
// validate_timeseries_document() is the schema authority) — and, via
// obs::ChromeTraceWriter (perfetto.h), Chrome-trace counter tracks
// openable in ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace mip::obs {

struct SeriesPoint {
    sim::TimePoint t_ns = 0;
    double value = 0.0;
};

/// Fixed-capacity ring of points in time order; push() drops (and counts)
/// the oldest point when full.
class SeriesRing {
public:
    explicit SeriesRing(std::size_t capacity);

    void push(SeriesPoint p);

    std::size_t size() const noexcept { return size_; }
    std::size_t capacity() const noexcept { return points_.size(); }
    std::uint64_t dropped() const noexcept { return dropped_; }

    /// Accounts for points that were logically dropped without ever being
    /// pushed — used when a ring is materialized from the delta store,
    /// which never held the evicted points in the first place.
    void add_dropped(std::uint64_t n) noexcept { dropped_ += n; }

    /// i-th retained point, oldest first (0 <= i < size()).
    const SeriesPoint& at(std::size_t i) const;

    /// Retained points, oldest first.
    std::vector<SeriesPoint> points() const;

private:
    std::vector<SeriesPoint> points_;  // fixed size = capacity
    std::size_t head_ = 0;             // index of the oldest retained point
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
};

struct SamplerConfig {
    /// Simulated time between ticks.
    sim::Duration interval = sim::milliseconds(100);
    /// Points retained per series; older points are dropped (and counted).
    std::size_t ring_capacity = 4096;
};

/// Samples a MetricsRegistry on a simulated-time interval. Off by
/// default: construction records nothing and schedules nothing; start()
/// arms the repeating tick (tagged "metrics-sample" for the
/// self-profiler), stop() (or destruction) disarms it and seals the
/// window. The registry and simulator must outlive the sampler.
class MetricsSampler {
public:
    /// (node, layer, name, field) — field is "rate", "value", "count" or
    /// "sum" per the class comment.
    using SeriesKey = std::tuple<std::string, std::string, std::string, std::string>;

    MetricsSampler(sim::Simulator& sim, const MetricsRegistry& registry,
                   SamplerConfig config = {});
    ~MetricsSampler();

    MetricsSampler(const MetricsSampler&) = delete;
    MetricsSampler& operator=(const MetricsSampler&) = delete;

    void start();
    void stop();
    bool running() const noexcept { return phase_ == Phase::Running; }
    /// True once stop() has sealed the window (sample_now() is a no-op).
    bool stopped() const noexcept { return phase_ == Phase::Stopped; }
    /// True when the cheap dirty-feed path is active (this sampler won
    /// the registry's single consumer slot at construction).
    bool delta_active() const noexcept { return delta_mode_; }

    /// Takes one sample immediately (also usable without start()).
    /// No-op after stop() — the stopped-sampler contract.
    void sample_now();

    std::uint64_t samples_taken() const noexcept { return samples_; }
    const SamplerConfig& config() const noexcept { return config_; }

    /// Per-series rings, (node, layer, name, field)-sorted. In delta mode
    /// this materializes (and caches) the rings from the sparse store.
    const std::map<SeriesKey, SeriesRing>& series() const;
    /// The ring for one series, or nullptr when never recorded.
    const SeriesRing* find(const std::string& node, const std::string& layer,
                           const std::string& name, const std::string& field) const;

    /// Renders every series into the docs/TRACE_FORMAT.md §5 document:
    ///   {"schema_version":2, "kind":"timeseries", "bench":..., "label":...,
    ///    "interval_ns":..., "samples":..., "ring_capacity":..., "series":[...]}
    /// Series appear sorted by (node, layer, name, field).
    JsonValue to_json(const std::string& bench, const std::string& label) const;

    /// Convenience: to_json() serialized with 2-space indentation.
    std::string to_json_string(const std::string& bench, const std::string& label) const;

private:
    enum class Phase { Idle, Running, Stopped };

    // Delta-mode sparse stores. Tick indices are 0-based; tick i's
    // timestamp lives in tick_times_[i % cap] while i is within the
    // retained window [samples_ - min(samples_, cap), samples_).
    struct CounterSeries {
        MetricsRegistry::Key key;
        const Counter* src = nullptr;
        std::uint64_t first_tick = 0;
        std::uint64_t baseline = 0;  // counter value already accounted for
        std::deque<std::pair<std::uint64_t, double>> deltas;  // (tick, nonzero delta)
    };
    struct GaugeSeries {
        MetricsRegistry::Key key;
        const MetricsRegistry::GaugeFn* src = nullptr;
        std::uint64_t first_tick = 0;
        std::deque<std::pair<std::uint64_t, double>> values;  // run-length: (tick, new value)
    };
    struct HistSeries {
        MetricsRegistry::Key key;
        const Histogram* src = nullptr;
        std::uint64_t first_tick = 0;
        // run-length: (tick, cumulative count, cumulative sum)
        std::deque<std::tuple<std::uint64_t, std::uint64_t, double>> points;
    };

    void tick();
    void sample_full_walk(sim::TimePoint now);
    void sample_delta(sim::TimePoint now);
    void sync_plan(std::uint64_t t);  // fold new registry entries into the stores
    void rebaseline_counters();      // start()-after-stop(): discard gap deltas
    void materialize() const;        // rebuild series_ from the sparse stores

    sim::Simulator& sim_;
    const MetricsRegistry& registry_;
    SamplerConfig config_;
    std::size_t cap_;  // effective ring capacity (>= 1)
    Phase phase_ = Phase::Idle;
    bool delta_mode_ = false;
    sim::EventId timer_ = 0;
    std::uint64_t samples_ = 0;

    // Full-walk state (also the materialized cache in delta mode).
    mutable std::map<SeriesKey, SeriesRing> series_;
    mutable bool series_stale_ = false;  // delta mode: cache behind the stores
    std::map<MetricsRegistry::Key, std::uint64_t> last_counter_;

    // Delta-mode state.
    std::uint64_t plan_generation_ = 0;  // registry structure gen last folded in
    bool hist_resync_ = false;           // restart: re-check every histogram once
    std::vector<sim::TimePoint> tick_times_;  // ring of the last `cap_` tick times
    std::vector<CounterSeries> counter_series_;
    std::vector<GaugeSeries> gauge_series_;
    std::vector<HistSeries> hist_series_;
    std::unordered_map<const void*, std::size_t> counter_index_;  // Counter* -> idx
    std::unordered_map<const void*, std::size_t> gauge_index_;    // GaugeFn* -> idx
    std::unordered_map<const void*, std::size_t> hist_index_;     // Histogram* -> idx
    std::vector<Counter*> dirty_counters_scratch_;
    std::vector<Histogram*> dirty_hists_scratch_;
};

/// Checks a parsed document against the time-series schema in
/// docs/TRACE_FORMAT.md §5. Empty result = valid. Shared by the unit
/// tests and the validate_metrics binary (bench_smoke), like the §4
/// metrics validator.
std::vector<std::string> validate_timeseries_document(const JsonValue& doc);

}  // namespace mip::obs
