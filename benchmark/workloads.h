// The four fixed workloads the benchmark times (README.md, "Workloads").
//
// A workload runs in three phases the driver times separately: setup()
// builds the world or city, creates the hosts, registers and warms ARP
// and caches; run() applies the load, all of it defined in simulated
// time, so each rep is a fixed batch; outcome() checks the results and
// folds every simulated outcome into a digest. Only public APIs of src/
// are used, and the seed alone decides the inputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "obs/perfetto.h"
#include "sim/simulator.h"

namespace m4x4_benchmark {

inline constexpr const char* kWorkloadNames[] = {"bulk_tcp", "grid_udp", "city", "reg_storm"};

struct Params {
    std::uint64_t seed = 1;
    bool smoke = false;
    /// Builds World workloads with WorldConfig::tracing=false, whatever
    /// the workload's own setting (the obs.recorder_share rep).
    bool untraced_world = false;
};

/// Host-time spans around each call the benchmark makes into a layer.
/// Only the traced rep keeps one; elsewhere the pointer is null and a
/// span is just the call.
class SpanLog {
public:
    SpanLog();
    void add(const char* track, const std::string& name, std::int64_t begin_ns,
             std::int64_t end_ns);
    std::int64_t now_ns() const;
    mip::obs::ChromeTraceWriter& writer() { return writer_; }

private:
    std::int64_t origin_ns_;
    mip::obs::ChromeTraceWriter writer_;
};

template <typename F>
void span(SpanLog* log, const char* track, const std::string& name, F&& call) {
    if (log == nullptr) {
        call();
        return;
    }
    const std::int64_t begin = log->now_ns();
    call();
    log->add(track, name, begin, log->now_ns());
}

/// Simulated outcome of one rep.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// FNV-1a over simulated outcomes only: no event, pool or arena counts.
    std::uint64_t digest = 0;
    /// Violated invariants, empty when the rep is correct.
    std::vector<std::string> errors;
};

/// Exact counters, cumulative since construction, keyed by layer metric
/// name ("stack.sent", "core.reg_handled", ...). The traced rep reports
/// their change over run().
using Counts = std::map<std::string, double>;

/// What the traced rep's probes should look like for this workload.
struct ProbeShape {
    std::size_t datagram_bytes = 40;  ///< IP payload of the typical datagram
    std::size_t bindings = 1;         ///< binding-table size to probe at
};

class Workload {
public:
    virtual ~Workload() = default;
    virtual void setup(SpanLog* spans) = 0;
    virtual void run(SpanLog* spans) = 0;
    virtual Outcome outcome() = 0;

    virtual mip::sim::Simulator& simulator() = 0;
    /// The World behind a packet workload; null for the city.
    virtual mip::core::World* world() = 0;
    virtual Counts counts() = 0;
    virtual ProbeShape probe_shape() = 0;
    /// Packets the mobile host must send and receive in each delivery
    /// mode during run() ("out_ie", "in_dh", ...); empty when the
    /// workload does not pin modes.
    virtual std::map<std::string, std::uint64_t> expected_modes() { return {}; }
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, const Params& params);

/// FNV-1a accumulator the digests are built with.
class Digest {
public:
    void add(std::uint64_t v);
    void add(const std::string& s);
    std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace m4x4_benchmark
