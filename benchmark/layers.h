// The traced rep's per-layer measurements (README.md, "Layers").
//
// Everything here is measured from outside the program: a SimProfiler on
// the simulator, a pass-through counting LinkFault on every link, the
// public Stats of nodes, connections, the buffer pool and the record
// arena, and timed direct calls into each layer's public functions on
// inputs shaped like the workload's.
#pragma once

#include <memory>
#include <vector>

#include "obs/json.h"
#include "sim/profiler.h"
#include "workloads.h"

namespace m4x4_benchmark {

struct LayerMetric {
    const char* name;
    const char* unit;
    /// On a traced run's result line (BENCHMARK.json per_layer). Times
    /// that are zero by construction on some workload stay in
    /// layers.json only.
    bool reported = true;
};

/// Keeps the compiler from discarding a timed computation's result.
template <typename T>
void keep(const T& value) {
    asm volatile("" : : "g"(&value) : "memory");
}

/// Every layer metric the traced rep reports, in print order.
extern const std::vector<LayerMetric> kLayerMetrics;

class CountingHook;
struct MobileState;

/// Attached between a workload's setup() and run(); finish() after run()
/// returns the layer metrics this process can measure. The driver adds
/// the ones that need the untraced reps' medians.
class LayerRecorder {
public:
    explicit LayerRecorder(Workload& workload);
    ~LayerRecorder();
    LayerRecorder(const LayerRecorder&) = delete;
    LayerRecorder& operator=(const LayerRecorder&) = delete;

    /// @p traced_wall_s is the traced run() span. Returns
    /// {"metrics": {name: value}, "modes": ..., "est_ms": ...,
    ///  "unattributed_ms": ..., "event_kinds": ...}.
    mip::obs::JsonValue::Object finish(double traced_wall_s);

private:
    Workload& workload_;
    mip::sim::SimProfiler profiler_;
    /// Declared before hooks_, which point into it.
    std::unique_ptr<MobileState> mobile_;
    std::vector<std::unique_ptr<CountingHook>> hooks_;
    Counts before_;
};

}  // namespace m4x4_benchmark
