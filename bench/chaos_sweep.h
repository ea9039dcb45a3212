// The chaos-convergence seed job, shared between abl_chaos (the figure
// and CI assertion) and bench_perf (the sweep-scaling measurement).
//
// Per seed: build a world, attach the mobile host to the foreign segment,
// generate FaultPlan::random(seed) (link flaps, burst loss, corruption,
// duplication, reorder, jitter, home-agent crashes, boundary filter
// churn), hand it to a FaultInjector, and probe end-to-end delivery with
// a periodic ICMP echo from the mobile host's *home address* to a
// correspondent across the backbone — the path that exercises the full
// Mobile IP machinery (binding at the home agent, outgoing-mode
// selection, boundary filters). Recovery time is the gap between the
// plan's last clearing action and the first successful round trip that
// started after it. A seed converges iff that happens within the bound.
//
// Each job builds its World inside the run callback and communicates
// only through its JobResult — the SweepRunner determinism contract
// (DESIGN.md §10) — so the per-seed report, metrics snapshot and
// exported artifacts are byte-identical for any --jobs value.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/incident.h"
#include "obs/monitor.h"
#include "sweep/sweep.h"

namespace bench::chaos {

/// How long after the last clearing action delivery must be restored.
inline constexpr mip::sim::Duration kRecoveryBound = mip::sim::seconds(10);
inline constexpr mip::sim::Duration kProbeInterval = mip::sim::milliseconds(250);
inline constexpr mip::sim::Duration kProbeTimeout = mip::sim::seconds(1);

/// Attribution: the class of the plan's last-clearing fault — the fault
/// whose disappearance recovery is measured from. (With overlapping
/// windows other faults may still share blame; the decision log has the
/// full timeline when the aggregate is not enough.)
inline const char* fault_class(mip::fault::FaultKind kind) {
    using mip::fault::FaultKind;
    switch (mip::fault::clearing_kind(kind)) {
        case FaultKind::LinkUp: return "link-flap";
        case FaultKind::BurstLossOff: return "burst-loss";
        case FaultKind::CorruptionOff: return "corruption";
        case FaultKind::DuplicationOff: return "duplication";
        case FaultKind::ReorderOff: return "reorder";
        case FaultKind::JitterOff: return "jitter";
        case FaultKind::AgentRestart: return "agent-crash";
        case FaultKind::FilterChurnOff: return "filter-churn";
        default: return "none";
    }
}

inline const char* last_fault_class(const mip::fault::FaultPlan& plan) {
    const mip::fault::FaultAction* last = nullptr;
    for (const mip::fault::FaultAction& a : plan.actions()) {
        if (!mip::fault::is_clearing(a.kind)) continue;
        if (last == nullptr || a.at >= last->at) last = &a;
    }
    return last != nullptr ? fault_class(last->kind) : "none";
}

/// The monitors every chaos run arms, and which fault classes each one is
/// evidence for. "probe-failures" is the end-to-end canary — any injected
/// fault that breaks delivery shows up there — while the others pin the
/// symptom to a mechanism (registration machinery, binding lifetime, RTT
/// inflation).
inline bool monitor_matches_class(const std::string& monitor, const std::string& cls) {
    if (monitor == "probe-failures") return true;  // delivery canary: any class
    if (monitor == "registration-backoff") {
        return cls == "agent-crash" || cls == "link-flap" || cls == "burst-loss" ||
               cls == "corruption" || cls == "filter-churn";
    }
    if (monitor == "binding-expiry") {
        return cls == "agent-crash" || cls == "link-flap";
    }
    if (monitor == "probe-rtt-p95") {
        return cls == "jitter" || cls == "reorder" || cls == "duplication" ||
               cls == "burst-loss";
    }
    if (monitor == "transport-give-up") {
        // The TCP canary gives up only after a sustained delivery outage —
        // the same fault classes that starve the registration machinery.
        return cls == "agent-crash" || cls == "link-flap" || cls == "burst-loss" ||
               cls == "corruption" || cls == "filter-churn";
    }
    return false;
}

inline const char* const kChaosMonitors[] = {
    "probe-failures", "registration-backoff", "binding-expiry", "probe-rtt-p95",
    "transport-give-up"};

/// p95 end-to-end RTT SLO for the chaos probes (the "p95 delivery within
/// bound" style of rule from the issue). The clean tunnel path (MH home
/// address -> HA -> backbone -> correspondent and back) has a p95 around
/// 45 ms, so 500 ms flags only genuine degradation — queueing pileups or
/// repeated near-timeout exchanges — with >10x margin against false
/// trips on the fault-free control leg.
inline constexpr double kRttSloNs = 5.0e8;

/// Arms the standard chaos monitor set on @p monitor (see
/// monitor_matches_class for the class attribution).
inline void arm_chaos_monitors(mip::obs::HealthMonitor& monitor) {
    using namespace mip;
    obs::RateSpikeRule probe;
    probe.name = "probe-failures";
    probe.node = "mobile-host";
    probe.layer = "chaos";
    probe.metric = "probe_failures";
    probe.source = obs::MetricSource::Counter;
    probe.min_rate = 1.0;
    probe.detail = "end-to-end chaos probe timed out";
    monitor.add_rate_spike(probe);

    obs::RateSpikeRule backoff;
    backoff.name = "registration-backoff";
    backoff.node = "mobile-host";
    backoff.layer = "mobileip";
    backoff.metric = "registration_backoffs";
    backoff.source = obs::MetricSource::Gauge;
    backoff.min_rate = 1.0;
    backoff.detail = "registration request went unanswered";
    monitor.add_rate_spike(backoff);

    obs::WatermarkRule expiry;
    expiry.name = "binding-expiry";
    expiry.node = "mobile-host";
    expiry.layer = "mobileip";
    expiry.metric = "binding_expiries";
    expiry.source = obs::MetricSource::Gauge;
    expiry.trip_at = 1.0;
    expiry.detail = "home binding expired without renewal";
    monitor.add_watermark(expiry);

    // PR 10: the transport give-up audit. TcpService counts every
    // connection that exhausts its retransmission budget under
    // ("mobile-host","transport","give_ups") and records a cc-give-up
    // decision event; one give-up on the canary flow trips this rule.
    obs::WatermarkRule give_up;
    give_up.name = "transport-give-up";
    give_up.node = "mobile-host";
    give_up.layer = "transport";
    give_up.metric = "give_ups";
    give_up.source = obs::MetricSource::Counter;
    give_up.trip_at = 1.0;
    give_up.detail = "tcp canary exhausted its retransmission budget";
    monitor.add_watermark(give_up);

    obs::QuantileSloRule rtt;
    rtt.name = "probe-rtt-p95";
    rtt.quantile = 0.95;
    rtt.bound = kRttSloNs;
    rtt.min_samples = 20;
    rtt.unit = "ns";
    rtt.detail = "p95 end-to-end probe RTT above SLO";
    monitor.add_quantile_slo(rtt);
}

/// Runs one seeded chaos scenario to completion and returns its report
/// row and metrics snapshot. @p opt gates the per-seed metrics/decisions/
/// timeseries files — bench_perf's scaling runs pass exports-disabled
/// options so repeated sweeps measure pure compute and never clobber the
/// figure's artifacts.
///
/// Monitors and the flight recorder are always armed (that is the PR 8
/// point: detection is cheap enough to leave on). @p inject false runs
/// the identical scenario with the fault plan generated but never
/// executed — the fault-free control leg that must produce zero trips.
///
/// Row: seed, plan_size, last_clear_s, fault_class (class of the plan's
/// last-clearing fault), converged, recovery_ms, probes_failed,
/// cancelled_backlog, monitor_trips (across all monitors),
/// monitor_matched (a monitor matching fault_class tripped before
/// recovery), first_trip_ms (that first matching trip, -1 if none) and
/// incidents (bundles the flight recorder captured).
inline mip::sweep::JobResult run_seed(std::uint64_t seed, bool smoke,
                                      const HarnessOptions& opt, bool inject = true) {
    using namespace mip;
    using namespace mip::core;

    WorldConfig cfg;
    cfg.backbone_routers = smoke ? 2 : 4;
    cfg.seed = seed;
    World world{cfg};
    CorrespondentHost& ch = world.create_correspondent({}, Placement::CorrLan);

    MobileHostConfig mcfg = world.mobile_config();
    // Short lifetime + capped backoff: recovery from a home-agent crash
    // rides the ordinary re-registration cycle instead of waiting out the
    // default 300 s binding.
    mcfg.registration_lifetime = 5;
    mcfg.registration_backoff_cap = sim::seconds(2);
    // Stale cached modes re-probe the strategy's initial pick, so a host
    // that downgraded under filter churn climbs back up once it clears.
    mcfg.cache.mode_ttl = sim::seconds(5);
    // Short give-up fuse for the TCP canary below: four doubling RTOs
    // (~3 s of sustained outage) before the transport declares the path
    // dead — well inside any fault window that also breaks the probes,
    // and unreachable on the fault-free control leg.
    mcfg.tcp.rto = sim::milliseconds(200);
    mcfg.tcp.max_retries = 4;
    MobileHost& mh = world.create_mobile_host(std::move(mcfg));
    world.enable_decision_log();

    if (!world.attach_mobile_foreign()) throw std::runtime_error("attach failed");
    mip::sweep::JobResult job;
    mip::obs::JsonValue::Object& row = job.report;
    row["seed"] = seed;

    fault::ChaosProfile profile;
    profile.horizon = smoke ? sim::seconds(8) : sim::seconds(15);
    if (smoke) profile.impairments = 1;
    fault::FaultPlan plan = fault::FaultPlan::random(seed, profile);
    row["plan_size"] = plan.size();
    const std::string cls = last_fault_class(plan);
    row["fault_class"] = cls;
    const sim::TimePoint last_clear = plan.last_clear_time();
    row["last_clear_s"] = sim::to_seconds(last_clear);

    fault::FaultInjector injector(world, /*seed=*/seed ^ 0xc4a05);
    if (inject) injector.execute(plan);

    const std::string label = inject ? "seed" + std::to_string(seed) : "control";

    // TCP canary (PR 10): a persistent trickle flow from the mobile host's
    // home address to the correspondent. Any fault that severs delivery
    // long enough exhausts the short retransmission fuse above; the
    // give-up is audited as a counter + decision event by TcpService and
    // the transport-give-up watermark turns it into a monitor trip. The
    // fault-free control leg must keep the counter at zero.
    mh.tcp().set_observability("mobile-host", &world.metrics, &world.decisions);
    ch.tcp().listen(7500, [](transport::TcpConnection& c) {
        c.set_data_callback([](std::span<const std::uint8_t>, const transport::RxMeta&) {});
    });
    transport::TcpConnection& canary = mh.tcp().connect(ch.address(), 7500);
    std::function<void()> canary_tick = [&] {
        if (!canary.alive()) return;  // gave up: the watermark has its trip
        if (canary.established()) {
            canary.send(std::vector<std::uint8_t>(64, 0xca));
        }
        world.sim.schedule_in(sim::milliseconds(500), canary_tick, "chaos-canary");
    };
    world.sim.schedule_in(sim::milliseconds(500), canary_tick, "chaos-canary");

    // Always-on observability: the delta-sampled time series feeds the
    // flight recorder's excerpts, and the health monitors watch the run
    // live. Deep exports (the full timeseries + Perfetto files) stay
    // gated on the metrics dir.
    mip::obs::MetricsSampler sampler(world.sim, world.metrics,
                                     {.interval = sim::milliseconds(100)});
    const bool deep_export = opt.metrics_enabled() || opt.perfetto_enabled();
    sampler.start();

    mip::obs::HealthMonitor monitor(world.sim, world.metrics,
                                    {.interval = sim::milliseconds(250)});
    arm_chaos_monitors(monitor);
    monitor.set_decision_log(&world.decisions);
    mip::obs::IncidentRecorder recorder;
    recorder.attach_trace(&world.trace);
    recorder.attach_decisions(&world.decisions);
    recorder.attach_sampler(&sampler);
    recorder.arm(monitor, "abl_chaos", label);
    monitor.start();

    // Periodic end-to-end probe, self-scheduling from t=now. Recovery is
    // the completion time of the first successful exchange *sent* at or
    // after last_clear (an exchange that straddles the boundary proves
    // nothing about the fault-free network).
    mip::transport::Pinger pinger(mh.stack());
    bool recovered = false;
    sim::TimePoint recovered_at = 0;
    std::size_t failed = 0;
    std::function<void()> probe = [&] {
        const sim::TimePoint sent_at = world.sim.now();
        pinger.ping(
            ch.address(),
            [&, sent_at](std::optional<sim::Duration> rtt, const transport::RxMeta&) {
                if (rtt.has_value()) {
                    mh.method_cache().report_success(ch.address(), world.sim.now());
                    monitor.observe("probe-rtt-p95", static_cast<double>(*rtt));
                    if (!recovered && sent_at >= last_clear) {
                        recovered = true;
                        recovered_at = world.sim.now();
                    }
                } else {
                    ++failed;
                    world.metrics.counter("mobile-host", "chaos", "probe_failures").add();
                    mh.method_cache().report_failure(ch.address(), world.sim.now(),
                                                     "chaos-probe-timeout");
                }
            },
            kProbeTimeout, 56, mh.home_address());
        if (!recovered) {
            world.sim.schedule_in(kProbeInterval, probe, "chaos-probe");
        }
    };
    world.sim.schedule_in(0, probe, "chaos-probe");

    const sim::TimePoint deadline = last_clear + kRecoveryBound;
    while (!recovered && world.sim.now() < deadline) {
        world.run_for(kProbeInterval);
    }
    // Let the last in-flight echo resolve.
    world.run_for(kProbeTimeout + kProbeInterval);

    const double recovery_ms =
        recovered ? sim::to_milliseconds(std::max<sim::Duration>(
                        0, recovered_at - last_clear))
                  : sim::to_milliseconds(kRecoveryBound);
    row["converged"] = recovered;
    row["recovery_ms"] = recovery_ms;
    row["probes_failed"] = failed;
    row["cancelled_backlog"] = world.sim.cancelled_backlog();

    // Monitor outcome: did a monitor whose class set covers this seed's
    // fault class trip, and did its first trip precede recovery?
    row["monitor_trips"] = monitor.trips();
    row["incidents"] = recorder.captured();
    const sim::TimePoint recovery_cutoff = recovered ? recovered_at : deadline;
    sim::TimePoint first_match = -1;
    for (const char* name : kChaosMonitors) {
        if (monitor.trip_count(name) == 0) continue;
        if (!monitor_matches_class(name, cls)) continue;
        const sim::TimePoint ft = monitor.first_trip_at(name);
        if (ft >= 0 && (first_match < 0 || ft < first_match)) first_match = ft;
    }
    row["monitor_matched"] = first_match >= 0 && first_match <= recovery_cutoff;
    row["first_trip_ms"] = first_match >= 0 ? sim::to_milliseconds(first_match) : -1.0;

    world.metrics
        .histogram("mobile-host", "chaos", "recovery_ms",
                   {50, 100, 250, 500, 1000, 2000, 5000, 10000})
        .observe(recovery_ms);
    mip::obs::DecisionEvent ev;
    ev.when = world.sim.now();
    ev.node = "chaos-harness";
    ev.correspondent = cls;
    ev.trigger = "recovery";
    ev.test = "delivery-restored";
    ev.input = "bound=" +
               std::to_string(static_cast<long long>(sim::to_milliseconds(kRecoveryBound))) +
               "ms";
    ev.passed = recovered;
    ev.detail = recovered
                    ? "end-to-end delivery restored after last fault cleared"
                    : "no successful round trip inside the recovery bound";
    world.decisions.record(std::move(ev));

    monitor.stop();
    sampler.stop();
    export_metrics(opt, world, "abl_chaos", label);
    export_decisions(opt, world.decisions, "abl_chaos", label);
    export_incidents(opt, recorder, "abl_chaos", label);
    if (deep_export) {
        export_timeseries(opt, sampler, "abl_chaos", label);
        mip::obs::ChromeTraceWriter writer;
        writer.add_series(sampler);
        export_perfetto(opt, writer, "abl_chaos", label);
    }

    job.metrics = world.metrics.snapshot("abl_chaos", label, world.sim.now());
    job.decision_count = world.decisions.size();
    return job;
}

/// Seeds 1..@p seeds as a job list ready for SweepRunner::run.
inline std::vector<mip::sweep::JobSpec> seed_jobs(int seeds, bool smoke,
                                                  const HarnessOptions& opt) {
    std::vector<mip::sweep::JobSpec> jobs;
    jobs.reserve(static_cast<std::size_t>(seeds));
    for (int s = 1; s <= seeds; ++s) {
        const auto seed = static_cast<std::uint64_t>(s);
        jobs.push_back({seed, "seed" + std::to_string(seed),
                        [seed, smoke, opt] { return run_seed(seed, smoke, opt); }});
    }
    return jobs;
}

}  // namespace bench::chaos
