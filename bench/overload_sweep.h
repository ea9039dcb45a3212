// The registration-storm seed job behind abl_overload (ISSUE 9): the
// same storm, with the overload protections on or off.
//
// Small leg (per seed, per protection leg): the standard World with the
// home agent's RegistrationQueue armed, one mobile host renewing on a
// short lifetime (the tenant whose service must survive), and a storm
// source on the correspondent LAN forging a burst of *new* registrations
// for distinct home addresses — a registration storm arriving on UDP 434
// faster than the agent's service rate. Measured: renewal goodput
// through the storm, queue peak, sheds by class, and time for the queue
// to drain after the burst ends. The overload monitors (shed-rate spike
// + queue-depth watermark) watch live; the protected leg must trip the
// spike and *never* the watermark, the unprotected leg is expected to
// blow through the watermark (unbounded queue growth — the collapse
// evidence).
//
// Metro leg: a CitySim with the overload model enabled and an agent flap
// mid-run — the flapped agent's homed population storms back inside the
// notice window. Recovery (table back to >= 90% of pre-flap size with a
// drained queue) is self-measured by the engine; the legs differ only in
// CityOverloadConfig::protection.
//
// Every job builds its world inside the run callback and communicates
// only through its JobResult (the SweepRunner determinism contract,
// DESIGN.md §10), so reports and per-job metrics snapshots are
// byte-identical at any --jobs.
#pragma once

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "core/overload.h"
#include "metro/city.h"
#include "net/protocol.h"
#include "obs/incident.h"
#include "obs/monitor.h"
#include "sweep/sweep.h"

namespace bench::overload {

/// The protected queue shape both legs are judged against: the watermark
/// trips at 4 x this capacity, which a bounded queue cannot reach.
inline constexpr std::size_t kQueueCapacity = 16;
inline constexpr double kDepthTrip = 4.0 * static_cast<double>(kQueueCapacity);

/// Bounded-recovery assertion for the small leg: the queue must drain
/// within this of the last storm arrival on the protected leg.
inline constexpr mip::sim::Duration kDrainBound = mip::sim::seconds(1);

/// Storm shape: @p n forged new registrations over @p window. The full
/// shape arrives at 4x the agent's service rate (10 ms/request), the
/// smoke shape at the same rate over a shorter window.
struct StormShape {
    std::size_t n = 400;
    mip::sim::Duration window = mip::sim::seconds(1);
};

inline StormShape storm_shape(bool smoke) {
    return smoke ? StormShape{120, mip::sim::milliseconds(300)}
                 : StormShape{400, mip::sim::seconds(1)};
}

inline mip::core::OverloadConfig agent_overload(bool protection) {
    mip::core::OverloadConfig qc;
    qc.service_time = mip::sim::milliseconds(10);
    if (protection) {
        qc.queue_capacity = kQueueCapacity;
        qc.new_tokens_per_sec = 40.0;
        qc.new_token_burst = 8.0;
    } else {
        qc.queue_capacity = 0;       // unbounded — the collapse leg
        qc.new_tokens_per_sec = 0.0; // no admission control
    }
    return qc;
}

/// Runs one seeded small-leg storm and returns its report row and
/// metrics snapshot.
///
/// Row: seed, protection, storm_n; the agent queue's outcome (queue_peak,
/// shed_bucket, shed_queue, served_new, served_renewal); the tenant's
/// (renewals accepted during/after the storm, binding_expiries,
/// backoffs); the queue drain from the last storm arrival (drained,
/// drain_ms — capped at the poll horizon when it never drained); and the
/// monitors' (spike_trips, spike_cleared = tripped during the storm and
/// clear at the end, watermark_trips, incidents).
inline mip::sweep::JobResult run_seed(std::uint64_t seed, bool protection, bool smoke,
                                      const HarnessOptions& opt) {
    using namespace mip;
    using namespace mip::core;

    const StormShape storm = storm_shape(smoke);

    WorldConfig cfg;
    cfg.backbone_routers = 2;
    cfg.seed = seed;
    cfg.home_agent.overload = agent_overload(protection);
    World world{cfg};

    // The tenant: a short-lifetime mobile host whose renewals must keep
    // landing while the storm rages (the renewal fast-path contract).
    MobileHostConfig mcfg = world.mobile_config();
    mcfg.registration_lifetime = 2;
    mcfg.registration_backoff_cap = sim::seconds(2);
    MobileHost& mh = world.create_mobile_host(std::move(mcfg));
    world.enable_decision_log();
    if (!world.attach_mobile_foreign()) throw std::runtime_error("attach failed");

    // The storm source: a plain host on the correspondent LAN forging
    // first-contact registrations for distinct (valid-key) home
    // addresses. Fire-and-forget — a real storm's clients would retry,
    // but the burst alone is already past the service rate.
    CorrespondentHost& ch = world.create_correspondent({}, Placement::CorrLan);
    transport::UdpService storm_udp(ch.stack());
    auto storm_socket = storm_udp.open(4434);
    const net::Ipv4Address ha_addr = world.home_agent_addr();
    const auto send_forged = [&, ha_addr](std::size_t k) {
        RegistrationRequest req;
        req.lifetime = 30;
        req.home_address = world.home_domain.host(2000 + static_cast<std::uint32_t>(k));
        req.home_agent = ha_addr;
        req.care_of_address = ch.address();
        req.id = 0x535452ull << 16 | k;  // "STR"
        net::BufferWriter w;
        req.serialize(w, cfg.home_agent.registration_key);
        storm_socket->send_to(ha_addr, net::ports::kMobileIpRegistration, w.take());
    };

    // Overload monitors + flight recorder, armed before the storm.
    obs::MetricsSampler sampler(world.sim, world.metrics,
                                {.interval = sim::milliseconds(100)});
    sampler.start();
    obs::HealthMonitor monitor(world.sim, world.metrics,
                               {.interval = sim::milliseconds(100)});
    arm_overload_monitors(monitor, "home-agent", kDepthTrip, /*shed_min_rate=*/4.0);
    monitor.set_decision_log(&world.decisions);
    obs::IncidentRecorder recorder;
    recorder.attach_trace(&world.trace);
    recorder.attach_decisions(&world.decisions);
    recorder.attach_sampler(&sampler);
    const std::string label = std::string(protection ? "on" : "off") + "-seed" +
                              std::to_string(seed);
    recorder.arm(monitor, "abl_overload", label);
    monitor.start();

    // Renewal baseline settles for 1 s, then the storm: n arrivals across
    // the window at seeded offsets (order and spacing vary per seed, the
    // aggregate rate does not).
    HomeAgent& ha = world.home_agent();
    const std::size_t renewed_before = ha.stats().registrations_renewed;
    world.run_for(sim::seconds(1));
    const auto window = static_cast<std::uint64_t>(storm.window);
    for (std::size_t k = 0; k < storm.n; ++k) {
        const sim::Duration at = static_cast<sim::Duration>(
            mix64(seed ^ 0x73746f726dull ^ k) % window);
        world.sim.schedule_in(at, [&send_forged, k] { send_forged(k); },
                              "storm-forge");
    }
    world.run_for(storm.window);

    // Drain watch: poll the queue until empty (bounded horizon). The
    // protected queue holds <= capacity requests and drains in
    // capacity x service_time; the unbounded one holds the whole backlog.
    RegistrationQueue* queue = ha.overload_queue();
    const sim::TimePoint drain_from = world.sim.now();
    const sim::Duration horizon = sim::seconds(smoke ? 6 : 10);
    while (queue->depth() > 0 && world.sim.now() - drain_from < horizon) {
        world.run_for(sim::milliseconds(10));
    }
    sweep::JobResult job;
    obs::JsonValue::Object& row = job.report;
    row["seed"] = seed;
    row["protection"] = protection;
    row["storm_n"] = storm.n;
    row["drained"] = queue->depth() == 0;
    row["drain_ms"] = sim::to_milliseconds(world.sim.now() - drain_from);

    // Post-storm tail: renewals keep flowing and the shed-spike monitor
    // gets quiet evaluations to clear on.
    world.run_for(sim::seconds(3));

    const RegistrationQueue::Stats& qs = queue->stats();
    row["queue_peak"] = qs.queue_peak;
    row["shed_bucket"] = qs.shed_new_bucket;
    row["shed_queue"] = qs.shed_new_queue + qs.shed_renewal_queue;
    row["served_new"] = qs.served_new;
    row["served_renewal"] = qs.served_renewal;
    row["renewals"] = ha.stats().registrations_renewed - renewed_before;
    row["binding_expiries"] = mh.stats().binding_expiries;
    row["backoffs"] = mh.stats().registration_backoffs;
    const std::uint64_t spike_trips = monitor.trip_count("home-agent-shed-spike");
    row["spike_trips"] = spike_trips;
    row["spike_cleared"] = spike_trips > 0 && !monitor.tripped("home-agent-shed-spike");
    row["watermark_trips"] = monitor.trip_count("home-agent-queue-watermark");
    row["incidents"] = recorder.captured();

    monitor.stop();
    sampler.stop();
    export_metrics(opt, world, "abl_overload", label);
    export_decisions(opt, world.decisions, "abl_overload", label);
    export_incidents(opt, recorder, "abl_overload", label);

    job.metrics = world.metrics.snapshot("abl_overload", label, world.sim.now());
    job.decision_count = world.decisions.size();
    return job;
}

/// Both legs for seeds 1..@p seeds, protection-on first (job ids keep
/// the merge order deterministic).
inline std::vector<mip::sweep::JobSpec> seed_jobs(int seeds, bool smoke,
                                                  const HarnessOptions& opt) {
    std::vector<mip::sweep::JobSpec> jobs;
    jobs.reserve(static_cast<std::size_t>(seeds) * 2);
    for (const bool protection : {true, false}) {
        for (int s = 1; s <= seeds; ++s) {
            const auto seed = static_cast<std::uint64_t>(s);
            jobs.push_back({seed * 2 + (protection ? 0 : 1),
                            std::string(protection ? "on" : "off") + "-seed" +
                                std::to_string(seed),
                            [seed, protection, smoke, opt] {
                                return run_seed(seed, protection, smoke, opt);
                            }});
        }
    }
    return jobs;
}

// ---- metro leg -------------------------------------------------------------

struct CityOutcome {
    bool protection = true;
    bool recovered = false;
    double recovery_s = 0.0;
    std::size_t pre_flap = 0;
    std::size_t queue_peak = 0;
    std::size_t shed_total = 0;
    std::size_t served_renewal = 0;
    std::uint64_t spike_trips = 0;
    bool spike_cleared = false;
    std::uint64_t watermark_trips = 0;
    std::uint64_t events = 0;
    double wall_ms = 0.0;
    std::string snapshot;  ///< metrics JSON for the determinism check
};

/// City recovery bound for the protected leg (flap -> table restored).
inline constexpr mip::sim::Duration kCityRecoveryBound = mip::sim::seconds(60);

inline mip::metro::CityConfig city_config(std::uint64_t seed, bool protection,
                                          bool smoke) {
    using namespace mip;
    metro::CityConfig cfg;
    const int grid = smoke ? 6 : 8;
    cfg.metro.cells_x = grid;
    cfg.metro.cells_y = grid;
    cfg.metro.cell_size_m = 400.0;
    // Two home agents concentrate the flapped population: the storm must
    // overwhelm one agent, not dilute across eight.
    cfg.metro.home_agents = 2;
    cfg.population.hosts = smoke ? 400 : 1200;
    cfg.population.seed = seed;
    cfg.population.metro_lines = 2;
    cfg.duration = smoke ? sim::seconds(100) : sim::seconds(180);
    cfg.registration_lifetime = sim::seconds(60);
    cfg.metrics_interval = sim::seconds(10);
    cfg.probes_per_sweep = 64;
    // Fast monitor cadence: the flap storm plays out in seconds. The
    // citywide handoff rule's floor is raised so only the overload rules
    // matter to this figure.
    cfg.monitor_interval = sim::seconds(1);
    cfg.storm_rate_floor = static_cast<double>(cfg.population.hosts);
    cfg.label = std::string("storm-") + (protection ? "on" : "off");

    cfg.overload.enabled = true;
    cfg.overload.protection = protection;
    cfg.overload.agent = agent_overload(true);  // unprotected leg strips it itself
    // A deliberately slower city agent (15 ms/request = 66/s): above the
    // steady city load — train handoff waves re-register ~50 hosts/s —
    // but far below the flap storm, where the whole homed population
    // arrives inside one notice-window second. The storm is the only
    // thing that outruns the server, so the unprotected leg collapses
    // under it while the protected leg's shed monitor trips on the storm
    // and goes quiet again afterwards.
    cfg.overload.agent.service_time = sim::milliseconds(15);
    cfg.overload.reply_timeout = sim::milliseconds(500);
    cfg.overload.retry_cap = sim::seconds(8);
    cfg.overload.retry_budget = 6;
    cfg.overload.circuit_probe = sim::seconds(10);
    cfg.overload.flap_at = cfg.duration / 3;
    cfg.overload.flap_agent = 0;
    cfg.overload.flap_notice_window = sim::seconds(1);
    cfg.overload.shed_rate_floor = 4.0;
    return cfg;
}

inline CityOutcome run_city_leg(std::uint64_t seed, bool protection, bool smoke,
                                const HarnessOptions& opt, bool export_artifacts) {
    using namespace mip;
    metro::CitySim city(city_config(seed, protection, smoke));
    const auto t0 = std::chrono::steady_clock::now();
    city.run();
    const auto t1 = std::chrono::steady_clock::now();

    CityOutcome out;
    out.protection = protection;
    out.recovered = city.storm_recovery().has_value();
    out.recovery_s = out.recovered ? sim::to_seconds(*city.storm_recovery()) : -1.0;
    out.pre_flap = city.pre_flap_bindings();
    const core::RegistrationQueue* q = city.overload_queue(0);
    if (q != nullptr) {
        out.queue_peak = q->stats().queue_peak;
        out.shed_total = q->shed_total();
        out.served_renewal = q->stats().served_renewal;
    }
    if (city.monitor() != nullptr) {
        out.spike_trips = city.monitor()->trip_count("ha-0-shed-spike");
        out.spike_cleared = out.spike_trips > 0 && !city.monitor()->tripped("ha-0-shed-spike");
        out.watermark_trips = city.monitor()->trip_count("ha-0-queue-watermark");
    }
    out.events = city.events_fired();
    out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    const std::string label = city.config().label + "-seed" + std::to_string(seed);
    out.snapshot = city.snapshot_json("abl_overload", label);

    if (export_artifacts) {
        export_metrics(opt, city.metrics(), "abl_overload", label,
                       city.simulator().now());
        export_decisions(opt, city.decisions(), "abl_overload", label);
        if (city.incidents() != nullptr) {
            export_incidents(opt, *city.incidents(), "abl_overload", label);
        }
    }
    return out;
}

}  // namespace bench::overload
