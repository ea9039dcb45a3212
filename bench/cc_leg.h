// One leg of the handoff x congestion-control ablation (ISSUE 10): a
// continuous, app-clocked TCP flow from the mobile host to a correspondent
// across the backbone, with two mid-flow handoffs and an optional
// bandwidth squeeze and/or Gilbert-Elliott wireless loss on the access
// uplinks.
//
// This header is the byte-identity anchor for the StaticController
// default: the same scenario ran against the pre-refactor transport to
// produce bench/golden/cc_static.txt, so every API it touches must keep
// its seed behaviour bit-exact under the default transport::Config.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "fault/link_faults.h"

namespace mip::bench_cc {

/// Network condition for a leg. Squeeze narrows the backbone/uplink
/// bandwidth to force queueing at the access router; Wireless puts a
/// seeded Gilbert-Elliott burst-loss chain on both visited-network
/// uplinks (non-congestive loss the controllers must not mistake for
/// queue pressure).
enum class Plan { Clean, Squeeze, Wireless, SqueezeWireless };

inline const char* to_string(Plan p) {
    switch (p) {
        case Plan::Clean: return "clean";
        case Plan::Squeeze: return "squeeze";
        case Plan::Wireless: return "wireless";
        case Plan::SqueezeWireless: return "squeeze+wireless";
    }
    return "?";
}

inline bool squeezed(Plan p) {
    return p == Plan::Squeeze || p == Plan::SqueezeWireless;
}
inline bool wireless(Plan p) {
    return p == Plan::Wireless || p == Plan::SqueezeWireless;
}

struct LegParams {
    std::string controller = "static";  ///< label only; `tune` does the wiring
    core::OutMode mode = core::OutMode::IE;
    Plan plan = Plan::Clean;
    bool smoke = false;
    /// Hook that configures the transport (controller factory, pacing).
    /// Empty = the default config, i.e. the StaticController path.
    std::function<void(core::MobileHostConfig&)> tune;
};

struct LegResult {
    std::string label;
    bool completed = false;
    std::uint64_t duration_ns = 0;
    std::size_t bytes_acked = 0;
    std::size_t segments = 0;
    std::size_t retransmissions = 0;
    std::size_t duplicates = 0;
    std::size_t ip_hops = 0;
    std::size_t ip_bytes = 0;
    std::size_t frames_lost = 0;
    std::uint64_t trace_digest = 0;
    /// Per-ack queueing-delay samples (rtt - min_rtt, milliseconds) in
    /// arrival order. Empty on builds/legs without the rtt observer.
    std::vector<double> queue_delay_ms;
    /// Simulator events executed inside the leg's run loop (throughput
    /// denominator for the perf trendline; not part of the golden render).
    std::uint64_t sim_events = 0;
};

inline std::string leg_label(const LegParams& p) {
    return p.controller + "/" + core::to_string(p.mode) + "/" + to_string(p.plan);
}

/// FNV-1a over every retained trace event, excluding the link pointer
/// (not stable across processes). Pins the full event stream, so any
/// behavioural drift in the default transport shows up as one number.
inline std::uint64_t digest_trace(const sim::TraceRecorder& trace) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    };
    for (const sim::TraceEvent& ev : trace.events()) {
        const std::uint64_t kind = static_cast<std::uint64_t>(ev.kind);
        const std::uint64_t when = static_cast<std::uint64_t>(ev.when);
        const std::uint64_t bytes = ev.bytes;
        const std::uint64_t ethertype = ev.ethertype;
        mix(&kind, sizeof kind);
        mix(&when, sizeof when);
        mix(&bytes, sizeof bytes);
        mix(&ethertype, sizeof ethertype);
        mix(&ev.packet_id, sizeof ev.packet_id);
        mix(ev.node.data(), ev.node.size());
        mix(ev.detail.data(), ev.detail.size());
    }
    return h;
}

/// Renders the golden-comparable slice of a result: everything except
/// queue_delay_ms (a post-refactor observable that must stay out of the
/// pre-refactor anchor).
inline std::string render_leg(const LegResult& r) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "leg=%s completed=%d dur_ns=%llu acked=%zu segs=%zu retx=%zu dup=%zu "
                  "hops=%zu ip_bytes=%zu lost=%zu digest=%016llx",
                  r.label.c_str(), r.completed ? 1 : 0,
                  static_cast<unsigned long long>(r.duration_ns), r.bytes_acked, r.segments,
                  r.retransmissions, r.duplicates, r.ip_hops, r.ip_bytes, r.frames_lost,
                  static_cast<unsigned long long>(r.trace_digest));
    return buf;
}

/// Loads the pre-refactor StaticController golden, @p dir/cc_static.txt
/// (lines of "<full|smoke> <render_leg output>"), for one scale: leg
/// label -> rendered line. Empty when the file cannot be read.
inline std::map<std::string, std::string> load_golden(const std::string& dir, bool smoke) {
    std::map<std::string, std::string> golden;
    std::ifstream in(dir + "/cc_static.txt");
    const std::string want = smoke ? "smoke " : "full ";
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(want, 0) != 0) continue;
        const std::string rendered = line.substr(want.size());
        // rendered starts "leg=<label> ..."
        golden[rendered.substr(4, rendered.find(' ') - 4)] = rendered;
    }
    return golden;
}

/// Observer the post-refactor bench installs to collect queueing-delay
/// samples; the seed-era golden generator leaves it empty. Passive — it
/// must never influence the simulation.
struct LegObservers {
    std::function<void(core::World&, transport::TcpService&, LegResult&)> on_transport;
    /// Runs after the leg's stats are collected, while the World is still
    /// alive — the place to snapshot metrics/decisions/pool stats.
    std::function<void(core::World&, LegResult&)> on_complete;
};

inline LegResult run_leg(const LegParams& p, const LegObservers& observers = {}) {
    using namespace mip::core;

    LegResult result;
    result.label = leg_label(p);

    WorldConfig cfg;
    cfg.backbone_routers = 2;
    cfg.seed = 1;
    if (squeezed(p.plan)) {
        cfg.backbone_bandwidth_bps = 1.2e6;  // ~150 mss-sized segments/s
    }
    World world(cfg);

    CorrespondentHost& ch =
        world.create_correspondent({Awareness::DecapCapable}, Placement::CorrLan);
    std::size_t received = 0;
    ch.tcp().listen(7400, [&](transport::TcpConnection& c) {
        c.set_data_callback(
            [&received](std::span<const std::uint8_t> d, const transport::RxMeta&) {
                received += d.size();
            });
    });

    MobileHostConfig mcfg = world.mobile_config();
    if (p.tune) p.tune(mcfg);
    MobileHost& mh = world.create_mobile_host(std::move(mcfg));
    if (!world.attach_mobile_foreign()) return result;
    mh.force_mode(ch.address(), p.mode);

    // Wireless loss rides the visited networks' access uplinks — it
    // follows the host across the mid-flow moves.
    fault::GilbertElliottConfig ge;
    ge.p_good_to_bad = 0.015;
    ge.p_bad_to_good = 0.25;
    ge.loss_good = 0.0;
    ge.loss_bad = 0.35;
    std::unique_ptr<fault::GilbertElliottLoss> ge_foreign, ge_corr;
    if (wireless(p.plan)) {
        ge_foreign = std::make_unique<fault::GilbertElliottLoss>(ge, 0xcc01);
        ge_corr = std::make_unique<fault::GilbertElliottLoss>(ge, 0xcc02);
        world.find_link("foreign-gw-uplink")->set_fault(ge_foreign.get());
        world.find_link("corr-gw-uplink")->set_fault(ge_corr.get());
    }

    if (observers.on_transport) observers.on_transport(world, mh.tcp(), result);

    transport::TcpConnection& conn = mh.tcp().connect(ch.address(), 7400);
    conn.set_data_callback([](std::span<const std::uint8_t>, const transport::RxMeta&) {});

    // App-clocked continuous flow: a 20 ms tick tops the send buffer up to
    // a bounded backlog until the leg's payload is fully queued.
    const std::size_t total = p.smoke ? 60'000 : 240'000;
    const std::size_t chunk = 4'000;
    const std::size_t backlog_cap = 24'000;
    std::size_t queued = 0;
    std::function<void()> tick = [&] {
        if (!conn.alive() || queued >= total) return;
        const std::size_t backlog = conn.stats().bytes_sent - conn.stats().bytes_acked;
        if (conn.established() && backlog < backlog_cap) {
            const std::size_t n = std::min(chunk, total - queued);
            conn.send(std::vector<std::uint8_t>(n, 0x55));
            queued += n;
        }
        world.sim.schedule_in(sim::milliseconds(20), tick, "cc-app-tick");
    };
    world.sim.schedule_in(sim::milliseconds(20), tick, "cc-app-tick");

    // Two mid-flow moves: foreign LAN -> correspondent-domain LAN -> back.
    const sim::TimePoint start = world.sim.now();
    world.sim.schedule_at(start + sim::milliseconds(1500), [&] {
        mh.attach_foreign(world.corr_lan(), world.corr_domain.host(10),
                          world.corr_domain.prefix, world.corr_gateway_addr());
    }, "cc-handoff");
    world.sim.schedule_at(start + sim::milliseconds(3000), [&] {
        mh.attach_foreign(world.foreign_lan(), world.mh_care_of_addr(),
                          world.foreign_domain.prefix, world.foreign_gateway_addr());
    }, "cc-handoff");

    const sim::TimePoint limit = start + (p.smoke ? sim::seconds(12) : sim::seconds(30));
    while (world.sim.now() < limit && conn.alive() &&
           (queued < total || conn.stats().bytes_acked < total)) {
        result.sim_events += world.sim.run_until(world.sim.now() + sim::milliseconds(5));
    }

    result.completed = conn.stats().bytes_acked >= total;
    result.duration_ns = static_cast<std::uint64_t>(world.sim.now() - start);
    result.bytes_acked = conn.stats().bytes_acked;
    result.segments = conn.stats().segments_sent;
    result.retransmissions = conn.stats().retransmissions;
    result.duplicates = conn.stats().duplicate_segments_received;
    result.ip_hops = world.trace.ip_hops();
    result.ip_bytes = world.trace.ip_tx_bytes();
    result.frames_lost = world.trace.count(sim::TraceKind::FrameLost);
    result.trace_digest = digest_trace(world.trace);
    if (observers.on_complete) observers.on_complete(world, result);
    return result;
}

}  // namespace mip::bench_cc
