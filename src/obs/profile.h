// Bridge from the simulator self-profiler into the metrics registry
// (ISSUE: time-resolved observability, part c).
//
// sim::SimProfiler keeps its own storage because wall-clock readings are
// non-deterministic and must stay out of the bit-reproducible snapshot
// path by default. When a bench *wants* profiler data in its metrics
// document (or sampled into time series), publish_profiler() registers
// polled gauges under the pseudo-node "simulator":
//
//   ("simulator", "profiler", "dispatches")         total events dispatched
//   ("simulator", "profiler", "wall_ns")            total handler wall time
//   ("simulator", "profiler", "events_per_sec")     dispatch rate so far
//   ("simulator", "profiler", "max_queue_depth")    queue high-water mark
//   ("simulator", "profiler", "max_cancelled")      queued-cancellation high-water
//   ("simulator", "queue", "depth")                 live pending-event count
//   ("simulator", "queue", "cancelled_backlog")     cancelled events still queued
//   ("simulator", "profiler", "kind/<kind>")        per-kind dispatch count
//
// Gauges poll live, so a MetricsSampler attached to the same registry
// turns queue depth and dispatch counts into time series for free. The
// profiler and simulator must outlive the registry's use of the gauges.
#pragma once

#include "obs/metrics.h"
#include "sim/profiler.h"
#include "sim/simulator.h"

namespace mip::obs {

void publish_profiler(const sim::SimProfiler& profiler, const sim::Simulator& sim,
                      MetricsRegistry& registry);

}  // namespace mip::obs
