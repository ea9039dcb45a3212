// Simulator self-profiler (ISSUE: time-resolved observability, part c).
//
// The ROADMAP's north star is a simulator that runs as fast as the
// hardware allows — which requires measuring the simulator *itself*, not
// just the network it simulates. A SimProfiler, when attached via
// Simulator::set_profiler(), records for every dispatched event:
//
//   * per-event-kind dispatch counts and wall-clock time (events are
//     tagged at their schedule site: "frame-delivery", "tcp-rto",
//     "handoff-sample", ...; untagged events fall under "event")
//   * high-water marks for the event-queue depth and for the cancelled
//     events still queued (tombstones awaiting their pop)
//
// Cost model: when no profiler is attached (the default) the simulator
// pays a single pointer comparison per event — the guard is at attach
// time, and bench_perf verifies the disabled overhead is unmeasurable.
// When attached, each dispatch adds two steady_clock reads and a scan of
// the distinct tag pointers seen so far (a few dozen string literals at
// most); the by-name view is merged from them only when asked for.
//
// Wall-clock readings are inherently non-deterministic; everything else
// in this library is bit-reproducible, so profiler output is kept out of
// the deterministic trace/metrics paths and exported separately
// (obs::publish_profiler bridges it into a MetricsRegistry on demand).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace mip::sim {

/// Aggregate for one event kind.
struct EventKindProfile {
    std::uint64_t dispatches = 0;
    std::uint64_t wall_ns = 0;      ///< total wall-clock time in the handlers
    std::uint64_t max_wall_ns = 0;  ///< slowest single dispatch

    double mean_wall_ns() const noexcept {
        return dispatches == 0 ? 0.0
                               : static_cast<double>(wall_ns) / static_cast<double>(dispatches);
    }
};

class SimProfiler {
public:
    /// Called by the Simulator after each dispatch (only when attached).
    void record(const char* kind, std::uint64_t wall_ns, std::size_t queue_depth,
                std::size_t cancelled_size);

    /// Aggregates by kind name. Tags with equal text merge, whatever
    /// their address; the map is rebuilt when records arrived since the
    /// last call, which invalidates references into the previous one.
    const std::map<std::string, EventKindProfile>& by_kind() const;

    std::uint64_t total_dispatches() const noexcept { return total_dispatches_; }
    std::uint64_t total_wall_ns() const noexcept { return total_wall_ns_; }
    std::size_t max_queue_depth() const noexcept { return max_queue_depth_; }
    std::size_t max_cancelled_size() const noexcept { return max_cancelled_size_; }

    /// Dispatches per wall-clock second over everything recorded so far.
    double events_per_second() const noexcept;

    /// Multi-line human-readable table, kinds sorted by total wall time.
    std::string summary() const;

    void reset();

private:
    std::vector<std::pair<const char*, EventKindProfile>> by_tag_;
    mutable std::map<std::string, EventKindProfile> by_kind_;
    mutable bool merged_ = true;  ///< by_kind_ reflects by_tag_
    std::uint64_t total_dispatches_ = 0;
    std::uint64_t total_wall_ns_ = 0;
    std::size_t max_queue_depth_ = 0;
    std::size_t max_cancelled_size_ = 0;
};

}  // namespace mip::sim
