#include "obs/timeseries.h"

#include <algorithm>
#include <stdexcept>

namespace mip::obs {

// ---- SeriesRing -------------------------------------------------------------

SeriesRing::SeriesRing(std::size_t capacity) : points_(capacity == 0 ? 1 : capacity) {}

void SeriesRing::push(SeriesPoint p) {
    if (size_ < points_.size()) {
        points_[(head_ + size_) % points_.size()] = p;
        ++size_;
        return;
    }
    // Full: overwrite the oldest slot and advance the head.
    points_[head_] = p;
    head_ = (head_ + 1) % points_.size();
    ++dropped_;
}

const SeriesPoint& SeriesRing::at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("SeriesRing::at");
    return points_[(head_ + i) % points_.size()];
}

std::vector<SeriesPoint> SeriesRing::points() const {
    std::vector<SeriesPoint> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back(at(i));
    return out;
}

// ---- MetricsSampler ---------------------------------------------------------

MetricsSampler::MetricsSampler(sim::Simulator& sim, const MetricsRegistry& registry,
                               SamplerConfig config)
    : sim_(sim),
      registry_(registry),
      config_(config),
      cap_(config.ring_capacity == 0 ? 1 : config.ring_capacity) {
    if (config_.interval <= 0) {
        throw std::invalid_argument("MetricsSampler: interval must be positive");
    }
    delta_mode_ = registry_.claim_dirty_consumer(this);
    if (delta_mode_) tick_times_.resize(cap_);
}

MetricsSampler::~MetricsSampler() {
    stop();
    if (delta_mode_) registry_.release_dirty_consumer(this);
}

void MetricsSampler::start() {
    if (phase_ == Phase::Running) return;
    if (phase_ == Phase::Stopped) {
        // Re-opening a sealed window: mutations during the gap must not
        // show up as one giant delta at the next tick, so counters the
        // sampler already tracked are re-baselined at their current
        // values. (Counters *created* during the gap keep the first-seen
        // rule: their whole value is the first delta.) Histograms are
        // cumulative snapshots, but in delta mode a gap mutation may have
        // had its dirty flag drained into the discard below — re-check
        // every histogram once on the next tick.
        rebaseline_counters();
        if (delta_mode_) hist_resync_ = true;
    }
    phase_ = Phase::Running;
    timer_ = sim_.schedule_in(config_.interval, [this] { tick(); }, "metrics-sample");
}

void MetricsSampler::stop() {
    if (phase_ != Phase::Running) return;
    phase_ = Phase::Stopped;
    sim_.cancel(timer_);
}

void MetricsSampler::rebaseline_counters() {
    if (delta_mode_) {
        for (CounterSeries& cs : counter_series_) cs.baseline = cs.src->value();
        return;
    }
    for (auto& [key, baseline] : last_counter_) {
        const auto it = registry_.counters().find(key);
        if (it != registry_.counters().end()) baseline = it->second.value();
    }
}

void MetricsSampler::tick() {
    if (phase_ != Phase::Running) return;
    sample_now();
    timer_ = sim_.schedule_in(config_.interval, [this] { tick(); }, "metrics-sample");
}

void MetricsSampler::sample_now() {
    if (phase_ == Phase::Stopped) return;  // the window is sealed
    const sim::TimePoint now = sim_.now();
    if (delta_mode_) {
        sample_delta(now);
    } else {
        sample_full_walk(now);
    }
    ++samples_;
}

// The reference path: walk every registry entry, append one point per
// series per tick. The delta path below is pinned byte-identical to this.
void MetricsSampler::sample_full_walk(sim::TimePoint now) {
    const auto record = [&](const MetricsRegistry::Key& key, const char* field,
                            double value) {
        const SeriesKey skey{std::get<0>(key), std::get<1>(key), std::get<2>(key), field};
        auto it = series_.find(skey);
        if (it == series_.end()) {
            it = series_.emplace(skey, SeriesRing(config_.ring_capacity)).first;
        }
        it->second.push(SeriesPoint{now, value});
    };

    for (const auto& [key, counter] : registry_.counters()) {
        // Rate: the counter's delta since the previous tick. A counter
        // first seen mid-run contributes its whole value as the first
        // delta (it grew from nothing inside this window).
        const std::uint64_t value = counter.value();
        auto [it, fresh] = last_counter_.try_emplace(key, 0);
        const std::uint64_t delta = value - it->second;
        it->second = value;
        (void)fresh;
        record(key, "rate", static_cast<double>(delta));
    }
    for (const auto& [key, provider] : registry_.gauges()) {
        record(key, "value", provider ? provider() : 0.0);
    }
    for (const auto& [key, histogram] : registry_.histograms()) {
        record(key, "count", static_cast<double>(histogram.count()));
        record(key, "sum", histogram.sum());
    }
}

// Folds registry entries created since the last tick into the sparse
// stores. A new counter with a nonzero value records that value as its
// first delta (same first-seen rule as the full walk); a new histogram
// records its current cumulative state as the run-length base.
void MetricsSampler::sync_plan(std::uint64_t t) {
    if (plan_generation_ == registry_.structure_generation()) return;
    for (const auto& [key, c] : registry_.counters()) {
        if (counter_index_.find(&c) != counter_index_.end()) continue;
        counter_index_.emplace(&c, counter_series_.size());
        CounterSeries cs;
        cs.key = key;
        cs.src = &c;
        cs.first_tick = t;
        const std::uint64_t v = c.value();
        if (v != 0) {
            cs.deltas.emplace_back(t, static_cast<double>(v));
            cs.baseline = v;
        }
        counter_series_.push_back(std::move(cs));
    }
    for (const auto& [key, fn] : registry_.gauges()) {
        if (gauge_index_.find(&fn) != gauge_index_.end()) continue;
        gauge_index_.emplace(&fn, gauge_series_.size());
        GaugeSeries gs;
        gs.key = key;
        gs.src = &fn;
        gs.first_tick = t;
        gauge_series_.push_back(std::move(gs));  // first poll below seeds values
    }
    for (const auto& [key, h] : registry_.histograms()) {
        if (hist_index_.find(&h) != hist_index_.end()) continue;
        hist_index_.emplace(&h, hist_series_.size());
        HistSeries hs;
        hs.key = key;
        hs.src = &h;
        hs.first_tick = t;
        hs.points.emplace_back(t, h.count(), h.sum());
        hist_series_.push_back(std::move(hs));
    }
    plan_generation_ = registry_.structure_generation();
}

void MetricsSampler::sample_delta(sim::TimePoint now) {
    const std::uint64_t t = samples_;  // 0-based index of this tick
    sync_plan(t);
    tick_times_[t % cap_] = now;
    // Retained window once this tick lands: [ws, t]. Entries at ticks
    // below ws can no longer appear in any export; run-length stores keep
    // one base entry at or before ws so the window start has a value.
    const std::uint64_t ws = (t + 1 > cap_) ? t + 1 - cap_ : 0;

    registry_.drain_dirty(dirty_counters_scratch_, dirty_hists_scratch_);

    for (Counter* c : dirty_counters_scratch_) {
        const auto idx = counter_index_.find(c);
        if (idx == counter_index_.end()) continue;
        CounterSeries& cs = counter_series_[idx->second];
        const std::uint64_t v = cs.src->value();
        if (v != cs.baseline) {
            cs.deltas.emplace_back(t, static_cast<double>(v - cs.baseline));
            cs.baseline = v;
            while (!cs.deltas.empty() && cs.deltas.front().first < ws) {
                cs.deltas.pop_front();
            }
        }
    }

    const auto hist_update = [&](HistSeries& hs) {
        const std::uint64_t c = hs.src->count();
        const double s = hs.src->sum();
        const auto& back = hs.points.back();
        if (std::get<1>(back) != c || std::get<2>(back) != s) {
            hs.points.emplace_back(t, c, s);
            while (hs.points.size() >= 2 && std::get<0>(hs.points[1]) <= ws) {
                hs.points.pop_front();
            }
        }
    };
    if (hist_resync_) {
        hist_resync_ = false;
        for (HistSeries& hs : hist_series_) hist_update(hs);
    } else {
        for (Histogram* h : dirty_hists_scratch_) {
            const auto idx = hist_index_.find(h);
            if (idx != hist_index_.end()) hist_update(hist_series_[idx->second]);
        }
    }

    // Gauges are polled provider callbacks — they cannot mark themselves
    // dirty, so every gauge is polled every tick and stored run-length.
    for (GaugeSeries& gs : gauge_series_) {
        const double v = (*gs.src) ? (*gs.src)() : 0.0;
        if (gs.values.empty() || gs.values.back().second != v) {
            gs.values.emplace_back(t, v);
            while (gs.values.size() >= 2 && gs.values[1].first <= ws) {
                gs.values.pop_front();
            }
        }
    }

    series_stale_ = true;
}

// Rebuilds the eager per-series rings from the sparse stores, exactly as
// the full walk would have produced them: one point per tick from the
// series' first tick, capped to the most recent `cap_` ticks with the
// overflow counted as dropped_points.
void MetricsSampler::materialize() const {
    series_.clear();
    const std::uint64_t T = samples_;

    const auto window = [&](std::uint64_t first_tick, SeriesRing& ring) {
        const std::uint64_t n_all = T - first_tick;
        const std::uint64_t n_keep = std::min<std::uint64_t>(n_all, cap_);
        ring.add_dropped(n_all - n_keep);
        return T - n_keep;  // first tick index reconstructed into the ring
    };

    for (const CounterSeries& cs : counter_series_) {
        SeriesRing ring(config_.ring_capacity);
        const std::uint64_t start = window(cs.first_tick, ring);
        auto it = cs.deltas.begin();
        while (it != cs.deltas.end() && it->first < start) ++it;
        for (std::uint64_t i = start; i < T; ++i) {
            double v = 0.0;
            if (it != cs.deltas.end() && it->first == i) {
                v = it->second;
                ++it;
            }
            ring.push(SeriesPoint{tick_times_[i % cap_], v});
        }
        series_.emplace(
            SeriesKey{std::get<0>(cs.key), std::get<1>(cs.key), std::get<2>(cs.key), "rate"},
            std::move(ring));
    }

    for (const GaugeSeries& gs : gauge_series_) {
        SeriesRing ring(config_.ring_capacity);
        const std::uint64_t start = window(gs.first_tick, ring);
        auto it = gs.values.begin();
        double cur = 0.0;
        for (std::uint64_t i = start; i < T; ++i) {
            while (it != gs.values.end() && it->first <= i) {
                cur = it->second;
                ++it;
            }
            ring.push(SeriesPoint{tick_times_[i % cap_], cur});
        }
        series_.emplace(
            SeriesKey{std::get<0>(gs.key), std::get<1>(gs.key), std::get<2>(gs.key), "value"},
            std::move(ring));
    }

    for (const HistSeries& hs : hist_series_) {
        SeriesRing count_ring(config_.ring_capacity);
        SeriesRing sum_ring(config_.ring_capacity);
        const std::uint64_t start = window(hs.first_tick, count_ring);
        sum_ring.add_dropped(count_ring.dropped());
        auto it = hs.points.begin();
        std::uint64_t cc = 0;
        double ss = 0.0;
        for (std::uint64_t i = start; i < T; ++i) {
            while (it != hs.points.end() && std::get<0>(*it) <= i) {
                cc = std::get<1>(*it);
                ss = std::get<2>(*it);
                ++it;
            }
            count_ring.push(SeriesPoint{tick_times_[i % cap_], static_cast<double>(cc)});
            sum_ring.push(SeriesPoint{tick_times_[i % cap_], ss});
        }
        series_.emplace(
            SeriesKey{std::get<0>(hs.key), std::get<1>(hs.key), std::get<2>(hs.key), "count"},
            std::move(count_ring));
        series_.emplace(
            SeriesKey{std::get<0>(hs.key), std::get<1>(hs.key), std::get<2>(hs.key), "sum"},
            std::move(sum_ring));
    }
}

const std::map<MetricsSampler::SeriesKey, SeriesRing>& MetricsSampler::series() const {
    if (delta_mode_ && series_stale_) {
        materialize();
        series_stale_ = false;
    }
    return series_;
}

const SeriesRing* MetricsSampler::find(const std::string& node, const std::string& layer,
                                       const std::string& name,
                                       const std::string& field) const {
    const auto& all = series();
    const auto it = all.find(SeriesKey{node, layer, name, field});
    return it != all.end() ? &it->second : nullptr;
}

JsonValue MetricsSampler::to_json(const std::string& bench, const std::string& label) const {
    JsonValue::Array series;
    for (const auto& [key, ring] : this->series()) {
        JsonValue::Object s;
        s["node"] = std::get<0>(key);
        s["layer"] = std::get<1>(key);
        s["name"] = std::get<2>(key);
        s["field"] = std::get<3>(key);
        s["dropped_points"] = ring.dropped();
        JsonValue::Array points;
        for (std::size_t i = 0; i < ring.size(); ++i) {
            const SeriesPoint& p = ring.at(i);
            JsonValue::Object point;
            point["t_ns"] = static_cast<std::uint64_t>(p.t_ns);
            point["v"] = p.value;
            points.emplace_back(std::move(point));
        }
        s["points"] = std::move(points);
        series.emplace_back(std::move(s));
    }

    JsonValue::Object doc;
    doc["schema_version"] = 2;
    doc["kind"] = "timeseries";
    doc["bench"] = bench;
    doc["label"] = label;
    doc["interval_ns"] = static_cast<std::uint64_t>(config_.interval);
    doc["samples"] = samples_;
    doc["ring_capacity"] = static_cast<std::uint64_t>(cap_);
    doc["series"] = std::move(series);
    return JsonValue(std::move(doc));
}

std::string MetricsSampler::to_json_string(const std::string& bench,
                                           const std::string& label) const {
    return to_json(bench, label).dump(2) + "\n";
}

// ---- schema validation ------------------------------------------------------

namespace {

void require(std::vector<std::string>& problems, bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
}

}  // namespace

std::vector<std::string> validate_timeseries_document(const JsonValue& doc) {
    std::vector<std::string> problems;
    if (!doc.is_object()) {
        problems.push_back("document is not a JSON object");
        return problems;
    }
    require(problems,
            doc.contains("schema_version") && doc.at("schema_version").is_number() &&
                doc.at("schema_version").as_number() == 2,
            "schema_version must be the number 2");
    require(problems,
            doc.contains("kind") && doc.at("kind").is_string() &&
                doc.at("kind").as_string() == "timeseries",
            "kind must be the string \"timeseries\"");
    for (const char* key : {"bench", "label"}) {
        require(problems, doc.contains(key) && doc.at(key).is_string(),
                std::string(key) + " must be a string");
    }
    require(problems,
            doc.contains("interval_ns") && doc.at("interval_ns").is_number() &&
                doc.at("interval_ns").as_number() > 0,
            "interval_ns must be a positive number");
    require(problems,
            doc.contains("samples") && doc.at("samples").is_number() &&
                doc.at("samples").as_number() >= 0,
            "samples must be a non-negative number");
    const bool has_capacity = doc.contains("ring_capacity") &&
                              doc.at("ring_capacity").is_number() &&
                              doc.at("ring_capacity").as_number() >= 1;
    require(problems, has_capacity, "ring_capacity must be a number >= 1");
    const double capacity = has_capacity ? doc.at("ring_capacity").as_number() : 0.0;
    const double samples = doc.contains("samples") && doc.at("samples").is_number()
                               ? doc.at("samples").as_number()
                               : 0.0;
    if (!doc.contains("series") || !doc.at("series").is_array()) {
        problems.push_back("series must be an array");
        return problems;
    }

    std::size_t i = 0;
    for (const JsonValue& s : doc.at("series").as_array()) {
        const std::string where = "series[" + std::to_string(i++) + "]";
        if (!s.is_object()) {
            problems.push_back(where + " is not an object");
            continue;
        }
        for (const char* key : {"node", "layer", "name", "field"}) {
            require(problems, s.contains(key) && s.at(key).is_string(),
                    where + "." + key + " must be a string");
        }
        if (s.contains("field") && s.at("field").is_string()) {
            const std::string& field = s.at("field").as_string();
            require(problems,
                    field == "rate" || field == "value" || field == "count" ||
                        field == "sum",
                    where + ".field must be rate, value, count or sum");
        }
        const bool has_dropped = s.contains("dropped_points") &&
                                 s.at("dropped_points").is_number() &&
                                 s.at("dropped_points").as_number() >= 0;
        require(problems, has_dropped,
                where + ".dropped_points must be a non-negative number");
        if (!s.contains("points") || !s.at("points").is_array()) {
            problems.push_back(where + ".points must be an array");
            continue;
        }
        const double npoints = static_cast<double>(s.at("points").as_array().size());
        if (has_capacity) {
            require(problems, npoints <= capacity,
                    where + ": points exceed ring_capacity");
            if (has_dropped && s.at("dropped_points").as_number() > 0) {
                // Drops only happen once the ring is full, so a series
                // that dropped anything must still be at capacity.
                require(problems, npoints == capacity,
                        where + ": dropped_points > 0 requires a full ring");
            }
        }
        if (has_dropped) {
            require(problems,
                    s.at("dropped_points").as_number() + npoints <= samples,
                    where + ": dropped_points + points exceed samples");
        }
        double prev_t = -1.0;
        std::size_t j = 0;
        for (const JsonValue& p : s.at("points").as_array()) {
            const std::string pwhere = where + ".points[" + std::to_string(j++) + "]";
            if (!p.is_object() || !p.contains("t_ns") || !p.contains("v") ||
                !p.at("t_ns").is_number() || !p.at("v").is_number()) {
                problems.push_back(pwhere + " must be {t_ns: number, v: number}");
                continue;
            }
            const double t = p.at("t_ns").as_number();
            require(problems, t >= 0, pwhere + ".t_ns must be non-negative");
            require(problems, t >= prev_t, pwhere + ": timestamps must be non-decreasing");
            prev_t = t;
        }
    }
    return problems;
}

}  // namespace mip::obs
