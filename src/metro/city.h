// City-scale metro simulation engine (ISSUE 6 tentpole).
//
// CitySim drives a Population across a MetroTopology on one Simulator
// and exports the three metric families the city-scale experiments are
// about, all through the existing observability pipelines:
//
//   handoff storms   per-cell handoff counters plus a sliding storm
//                    window (handoffs in the last storm_window); the
//                    peak is exported as a gauge and threshold
//                    crossings are recorded in the DecisionLog — the
//                    audit trail answers "which cells melted down, when"
//   binding pressure per-home-agent registration/renewal counters and a
//                    live table-size gauge over real core::BindingTable
//                    instances (the flat-map structure the refactor in
//                    core/flat_map.h exists for)
//   deliverability   periodic probe sweeps that check a deterministic
//                    host sample against its home agent's table: is the
//                    registered care-of the cell the host is actually
//                    in? counters split delivered / stale / unbound
//
// The engine is event-driven end to end: per-host position samples
// (staggered so 10k timers do not beat on one instant), in-flight
// registrations with hop-proportional latency and epoch guards against
// stale completions, 80%-of-lifetime renewals, storm-window decay, home
// agent GC, and probe sweeps. Everything is a pure function of the
// config, so runs are byte-reproducible at any SweepRunner --jobs.
//
// A sample also looks ahead over the following sample instants and
// schedules the next sample event at the first that finds a new cell,
// handing it the cell found there: the instants in between, where
// nothing could change, get no event, so every sample event is a first
// attach or a handoff. The look-ahead (next_cell_change) skips every
// instant that the model's current motion segment proves inside the
// cell and evaluates the model only at the rest. DESIGN.md §11 gives
// the soundness argument and the ordering argument for equal-time ties.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/binding.h"
#include "core/overload.h"
#include "core/registration_client.h"
#include "metro/population.h"
#include "metro/topology.h"
#include "obs/decision.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/timeseries.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace mip::metro {

/// Control-plane overload model for the city (ISSUE 9): when enabled,
/// every registration exchange runs through a per-home-agent
/// core::RegistrationQueue (bounded, renewal-priority, token-bucket
/// admission), with a reply timeout and a core::RegistrationClient per
/// host, instead of the analytic always-succeeds exchange. An optional
/// agent flap wipes one agent's table mid-run so its whole homed
/// population re-registers inside flap_notice_window: the registration
/// storm the protections exist for.
struct CityOverloadConfig {
    bool enabled = false;
    /// true = protected leg (bounded queue + token bucket + jittered
    /// retries + retry budget); false = collapse leg (unbounded queue,
    /// synchronized doubling retries, no budget).
    bool protection = true;
    /// Agent-side queue shape, applied to every home agent. On the
    /// unprotected leg queue_capacity and new_tokens_per_sec are forced
    /// to 0 (unbounded, no admission).
    core::OverloadConfig agent;
    /// Reply timeout beyond the round trip, and the clients' retry base.
    sim::Duration reply_timeout = sim::milliseconds(500);
    sim::Duration retry_cap = sim::seconds(8);  ///< retry backoff cap (both legs)
    /// Protected leg: retries before the circuit opens (0 = no budget).
    unsigned retry_budget = 6;
    /// Park-and-probe interval while the circuit is open (jittered ±25%).
    sim::Duration circuit_probe = sim::seconds(10);
    /// Agent flap: at flap_at (0 = never) flap_agent's binding table is
    /// wiped; its homed hosts notice within flap_notice_window and storm
    /// back in. Recovery is self-measured (see storm_recovery()).
    sim::Duration flap_at = 0;
    std::uint32_t flap_agent = 0;
    sim::Duration flap_notice_window = sim::seconds(2);
    /// Shed-rate floor for the flapped agent's spike monitor.
    double shed_rate_floor = 4.0;
};

/// The first sample instant at which a host is found in another cell.
struct CellChange {
    /// That instant, or the first sample instant past the horizon when
    /// the host stays in its cell until then.
    sim::TimePoint at = 0;
    /// The cell found at `at`; -1 when `at` is past the horizon.
    std::int32_t cell = -1;
};

/// Looks ahead over the sample instants next, next + interval, ... up to
/// @p horizon for the first at which @p model is outside cell @p cell.
/// An instant that model.segment_at proves inside the cell — the
/// segment's disk, widened by a millimetre, strictly inside
/// topo.cell_bounds(cell) — is skipped without evaluating the model;
/// every other instant is evaluated. The answer is the one a walk that
/// evaluates every instant would give.
CellChange next_cell_change(const MetroTopology& topo, mobility::MobilityModel& model,
                            std::size_t cell, sim::TimePoint next, sim::Duration interval,
                            sim::TimePoint horizon);

struct CityConfig {
    MetroConfig metro;
    PopulationConfig population;
    /// Simulated span of the run.
    sim::Duration duration = sim::seconds(600);
    /// Per-host radio sampling interval (each host is staggered inside it).
    sim::Duration sample_interval = sim::seconds(2);
    /// Registration lifetime granted by home agents; hosts renew at 80%.
    sim::Duration registration_lifetime = sim::seconds(120);
    /// Registration latency = base + hops * per_hop + jitter(<1ms).
    sim::Duration reg_base_latency = sim::milliseconds(4);
    sim::Duration reg_hop_latency = sim::milliseconds(3);
    /// Handoff-storm window: per-cell handoffs within the last
    /// storm_window; crossing storm_threshold records a decision event.
    sim::Duration storm_window = sim::seconds(10);
    std::uint32_t storm_threshold = 40;
    /// Deliverability probe sweeps: every interval, probes_per_sweep
    /// hosts are drawn deterministically and checked against their HA.
    sim::Duration probe_interval = sim::seconds(15);
    std::size_t probes_per_sweep = 256;
    /// Attach a MetricsSampler at this interval (0 = off).
    sim::Duration metrics_interval = 0;
    /// Attach a HealthMonitor at this interval (0 = off). The monitor
    /// watches the citywide handoff wave: an EWMA rate-spike rule over
    /// the aggregate city/metro/handoffs counter trips when one
    /// evaluation's handoffs exceed max(storm_rate_floor,
    /// storm_spike_factor x baseline) — the online cousin of the
    /// per-cell sliding-window storm counters. Trips are audited in the
    /// DecisionLog and captured as §10 incident bundles.
    sim::Duration monitor_interval = 0;
    double storm_spike_factor = 3.0;
    double storm_rate_floor = 50.0;
    /// (bench, label) stamped into captured incident bundles.
    std::string label = "city";
    /// Overload protection + registration-storm model (ISSUE 9). Off by
    /// default: the analytic exchange below stays byte-identical.
    CityOverloadConfig overload;
};

class CitySim {
public:
    explicit CitySim(CityConfig config);
    ~CitySim();

    CitySim(const CitySim&) = delete;
    CitySim& operator=(const CitySim&) = delete;

    /// Runs the full configured duration. Callable once.
    void run();

    const CityConfig& config() const noexcept { return config_; }
    const MetroTopology& topology() const noexcept { return topo_; }
    const Population& population() const noexcept { return pop_; }
    sim::Simulator& simulator() noexcept { return sim_; }
    obs::MetricsRegistry& metrics() noexcept { return registry_; }
    const obs::DecisionLog& decisions() const noexcept { return decisions_; }
    const obs::MetricsSampler* sampler() const noexcept { return sampler_.get(); }
    /// The storm monitor / flight recorder (nullptr when monitor_interval
    /// is 0).
    const obs::HealthMonitor* monitor() const noexcept { return monitor_.get(); }
    const obs::IncidentRecorder* incidents() const noexcept { return incidents_.get(); }

    std::uint64_t events_fired() const noexcept { return sim_.events_fired(); }
    std::uint64_t handoffs_total() const noexcept { return handoffs_total_; }
    std::uint64_t registrations_total() const noexcept { return registrations_total_; }
    std::uint64_t probes_total() const noexcept { return probes_total_; }

    /// The home agent tables (index = home-agent index) — tests assert
    /// against them directly.
    const std::vector<core::BindingTable>& binding_tables() const noexcept {
        return tables_;
    }

    /// Per-agent overload queue (nullptr when the overload model is off).
    const core::RegistrationQueue* overload_queue(std::size_t agent) const {
        return agent < queues_.size() ? queues_[agent].get() : nullptr;
    }
    /// Time from the agent flap to recovery (flapped agent's table back
    /// to >= 90% of its pre-flap size with a drained queue); nullopt when
    /// no flap was configured or recovery never happened within the run.
    std::optional<sim::Duration> storm_recovery() const noexcept {
        return storm_recovery_;
    }
    std::size_t pre_flap_bindings() const noexcept { return pre_flap_bindings_; }

    /// End-of-run metrics document / JSON (docs/TRACE_FORMAT.md §4).
    obs::JsonValue snapshot(const std::string& bench, const std::string& label) const;
    std::string snapshot_json(const std::string& bench, const std::string& label) const;

private:
    struct CellStats {
        obs::Counter* handoffs = nullptr;
        obs::Counter* storms = nullptr;
        std::uint32_t occupancy = 0;
        std::uint32_t window = 0;      ///< handoffs inside the storm window
        std::uint32_t window_peak = 0;
    };
    struct AgentStats {
        obs::Counter* registrations = nullptr;
        obs::Counter* renewals = nullptr;
        obs::Counter* expired = nullptr;
    };

    /// Samples host @p index: hands off if its cell changed, then looks
    /// ahead and schedules its next sample at its next cell change.
    /// @p found is the cell the look-ahead found for this instant, or -1
    /// (first sample) to evaluate the model here.
    void sample_host(std::uint32_t index, std::int32_t found);
    void begin_registration(MetroHost* host, bool renewal);
    void finish_registration(std::uint32_t index, std::uint32_t epoch);
    void probe_sweep(std::uint64_t sweep_index);
    sim::Duration member_jitter(std::size_t host_index, std::uint32_t epoch) const;
    /// Hop-proportional one-way latency between @p host's current cell
    /// and its home agent, jittered per exchange epoch.
    sim::Duration one_way_latency(const MetroHost* host, bool observe);

    // --- overload model (ISSUE 9; all no-ops unless overload.enabled) ---
    /// Carries out the host client's Send decision: the request travels to
    /// the agent and a reply timeout is armed.
    void send_request(MetroHost* host, bool renewal,
                      const core::RegistrationClient::Decision& send);
    void client_timeout(MetroHost* host, bool renewal, std::uint64_t xid);
    void client_reply(MetroHost* host, std::uint64_t xid);
    void server_arrival(MetroHost* host, std::uint32_t epoch, std::int32_t cell,
                        bool renewal, std::uint64_t xid);
    void serve_registration(MetroHost* host, std::uint32_t epoch, std::int32_t cell,
                            bool renewal, std::uint64_t xid);
    void flap_agent_now();
    void check_recovery();

    CityConfig config_;
    MetroTopology topo_;
    Population pop_;
    sim::Simulator sim_;
    obs::MetricsRegistry registry_;
    obs::DecisionLog decisions_;
    std::unique_ptr<obs::MetricsSampler> sampler_;
    std::unique_ptr<obs::HealthMonitor> monitor_;
    std::unique_ptr<obs::IncidentRecorder> incidents_;
    std::vector<core::BindingTable> tables_;
    std::vector<CellStats> cells_;
    std::vector<AgentStats> agents_;
    /// Overload model state (empty when overload.enabled is false).
    std::vector<std::unique_ptr<core::RegistrationQueue>> queues_;
    /// One registration client per host (held here, not in MetroHost:
    /// the arena-built host record stays POD).
    std::vector<core::RegistrationClient> clients_;
    obs::Counter* ov_retries_ = nullptr;
    obs::Counter* ov_timeouts_ = nullptr;
    obs::Counter* ov_circuit_opens_ = nullptr;
    obs::Counter* ov_circuit_probes_ = nullptr;
    obs::Counter* ov_flaps_ = nullptr;
    std::size_t pre_flap_bindings_ = 0;
    std::optional<sim::Duration> storm_recovery_;
    obs::Counter* handoffs_agg_ = nullptr;
    obs::Counter* probes_ = nullptr;
    obs::Counter* delivered_ = nullptr;
    obs::Counter* stale_ = nullptr;
    obs::Counter* unbound_ = nullptr;
    obs::Histogram* reg_latency_ = nullptr;
    obs::Histogram* reg_hops_ = nullptr;
    std::uint64_t handoffs_total_ = 0;
    std::uint64_t registrations_total_ = 0;
    std::uint64_t probes_total_ = 0;
    bool ran_ = false;
};

}  // namespace mip::metro
