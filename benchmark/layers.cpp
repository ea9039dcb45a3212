#include "layers.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "core/binding.h"
#include "core/overload.h"
#include "core/registration.h"
#include "net/packet.h"
#include "sim/link.h"
#include "tunnel/encapsulator.h"

namespace m4x4_benchmark {

using namespace mip;

const std::vector<LayerMetric> kLayerMetrics = {
    {"sim.events", "count"},
    {"sim.events_per_cpu_s", "1/s"},
    {"sim.self_ms", "ms"},
    {"sim.queue_hwm", "count"},
    {"sim.cancelled_hwm", "count"},
    {"sim.probe.dispatch_ns", "ns"},
    {"sim.probe.cancel_ns", "ns"},
    {"link.frames", "count"},
    {"link.bytes", "B"},
    {"link.stations_max", "count"},
    {"link.frame_ns", "ns", false},
    {"net.pool_acquires", "count"},
    {"net.pool_reuse_ratio", "ratio"},
    {"net.probe.wire_ns.32", "ns"},
    {"net.probe.wire_ns.1040", "ns"},
    {"stack.sent", "count"},
    {"stack.forwarded", "count"},
    {"stack.delivered", "count"},
    {"stack.drops", "count"},
    {"routing.probe.lookup_ns", "ns"},
    {"tunnel.encaps", "count"},
    {"tunnel.decaps", "count"},
    {"tunnel.probe.encap_ns", "ns"},
    {"tunnel.probe.decap_ns", "ns"},
    {"transport.segments", "count"},
    {"transport.retransmissions", "count"},
    {"transport.retx_ratio", "ratio"},
    {"transport.pace_dispatches", "count"},
    {"transport.rto_dispatches", "count"},
    {"core.reg_handled", "count"},
    {"core.reg_shed", "count"},
    {"core.reg_queue_peak", "count"},
    {"core.bindings_max", "count"},
    {"core.overload_service_ns", "ns", false},
    {"core.probe.binding_set_ns", "ns"},
    {"core.probe.binding_lookup_ns", "ns"},
    {"core.probe.reg_codec_ns", "ns"},
    {"metro.samples", "count"},
    {"metro.sample_ns", "ns", false},
    {"metro.registrations", "count"},
    {"metro.handoffs", "count"},
    {"obs.trace_records", "count"},
    {"obs.arena_allocations", "count"},
    {"obs.recorder_share", "ratio", false},
};

// ---- counting hook -------------------------------------------------------------

/// Where the mobile host's packets leave and arrive, by delivery mode.
/// Counted on the wire because MobileHost::Stats::out_* count resolver
/// calls, not packets.
struct Modes {
    std::uint64_t out_ie = 0, out_de = 0, out_dh = 0, out_dt = 0;
    std::uint64_t in_ie = 0, in_de = 0, in_dh = 0, in_dt = 0;
};

/// The mobile host's wire identity and what the hooks counted for it.
struct MobileState {
    sim::MacAddress mac;
    std::uint32_t home = 0, care_of = 0, agent = 0;
    Modes modes;
};

/// Pass-through LinkFault: never drops, delays or duplicates, so the
/// simulation is unchanged; it only counts what crosses the link.
class CountingHook final : public sim::LinkFault {
public:
    CountingHook(sim::Link& link, MobileState& mobile) : link_(link), mobile_(mobile) {
        link_.set_fault(this);
    }
    ~CountingHook() override { link_.set_fault(nullptr); }
    CountingHook(const CountingHook&) = delete;
    CountingHook& operator=(const CountingHook&) = delete;

    sim::FaultVerdict on_transmit(sim::Frame& frame, sim::TimePoint) override {
        ++frames;
        bytes += frame.wire_size();
        stations_max = std::max(stations_max, link_.attached_count());
        classify(frame);
        return {};
    }

    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::size_t stations_max = 0;

private:
    static std::uint32_t u32(const std::vector<std::uint8_t>& p, std::size_t at) {
        return static_cast<std::uint32_t>(p[at]) << 24 | static_cast<std::uint32_t>(p[at + 1]) << 16 |
               static_cast<std::uint32_t>(p[at + 2]) << 8 | p[at + 3];
    }

    void classify(const sim::Frame& frame) {
        const bool from = frame.src == mobile_.mac;
        const bool to = frame.dst == mobile_.mac;
        const std::vector<std::uint8_t>& p = frame.payload;
        if ((!from && !to) || frame.type != net::EtherType::Ipv4 || p.size() < 20) return;
        const std::size_t ihl = static_cast<std::size_t>(p[0] & 0x0f) * 4;
        const auto proto = static_cast<net::IpProto>(p[9]);
        const std::uint32_t src = u32(p, 12);
        const std::uint32_t dst = u32(p, 16);
        if (proto == net::IpProto::Udp && p.size() >= ihl + 4) {
            const auto sport = static_cast<std::uint16_t>(p[ihl] << 8 | p[ihl + 1]);
            const auto dport = static_cast<std::uint16_t>(p[ihl + 2] << 8 | p[ihl + 3]);
            if (sport == net::ports::kMobileIpRegistration ||
                dport == net::ports::kMobileIpRegistration) {
                return;  // control plane, not a delivery mode
            }
        }
        const bool tunneled = proto == net::IpProto::IpInIp || proto == net::IpProto::Gre ||
                              proto == net::IpProto::MinEnc;
        if (from) {
            if (tunneled) {
                ++(dst == mobile_.agent ? mobile_.modes.out_ie : mobile_.modes.out_de);
            } else if (src == mobile_.home) {
                ++mobile_.modes.out_dh;
            } else if (src == mobile_.care_of) {
                ++mobile_.modes.out_dt;
            }
        } else if (tunneled) {
            ++(src == mobile_.agent ? mobile_.modes.in_ie : mobile_.modes.in_de);
        } else if (dst == mobile_.home) {
            ++mobile_.modes.in_dh;
        } else if (dst == mobile_.care_of) {
            ++mobile_.modes.in_dt;
        }
    }

    sim::Link& link_;
    MobileState& mobile_;
};

namespace {

// ---- probes ------------------------------------------------------------------

/// Median ns per call over 9 batches, each calibrated to about 2 ms.
double ns_per_call(const std::function<void()>& call) {
    using clock = std::chrono::steady_clock;
    const auto time_batch = [&](std::size_t n) {
        const auto t0 = clock::now();
        for (std::size_t i = 0; i < n; ++i) call();
        return std::chrono::duration<double, std::nano>(clock::now() - t0).count();
    };
    std::size_t batch = 8;
    while (batch < (std::size_t{1} << 24) && time_batch(batch) < 2e6) batch *= 2;
    std::vector<double> per_call;
    for (int i = 0; i < 9; ++i) per_call.push_back(time_batch(batch) / static_cast<double>(batch));
    std::sort(per_call.begin(), per_call.end());
    return per_call[per_call.size() / 2];
}

/// Classic hold model: every event reschedules itself within the horizon,
/// so the queue stays at the depth it was filled to.
struct Hold {
    sim::Simulator* sim;
    std::uint64_t* rng;
    void operator()() const {
        *rng = core::mix64(*rng);
        sim->schedule_in(1 + static_cast<sim::Duration>(*rng % kHorizon), *this, "probe-hold");
    }
    static constexpr std::uint64_t kHorizon = 2'000'000'000;  // 2 s simulated
};

void fill(sim::Simulator& s, std::uint64_t& rng, std::size_t depth) {
    for (std::size_t i = 0; i < depth; ++i) Hold{&s, &rng}();
}

struct Probes {
    double dispatch_ns, cancel_ns, wire32_ns, wire1040_ns, lookup_ns, encap_ns, decap_ns,
        binding_set_ns, binding_lookup_ns, reg_codec_ns;
};

Probes run_probes(const ProbeShape& shape, std::size_t queue_depth, core::World* world) {
    Probes p{};
    const std::size_t depth = std::max<std::size_t>(queue_depth, 1);
    {
        sim::Simulator s;
        std::uint64_t rng = 1;
        fill(s, rng, depth);
        p.dispatch_ns = ns_per_call([&] { s.run(1); });
    }
    {
        // Schedule and cancel a decoy per dispatch; the decoy is skipped
        // when the queue reaches it. The difference is the cancel cost.
        sim::Simulator s;
        std::uint64_t rng = 2;
        fill(s, rng, depth);
        p.cancel_ns = ns_per_call([&] {
                          rng = core::mix64(rng);
                          s.cancel(s.schedule_in(1 + static_cast<sim::Duration>(rng % Hold::kHorizon),
                                                 [] {}, "probe-decoy"));
                          s.run(1);
                      }) -
                      p.dispatch_ns;
    }

    const net::Ipv4Address a(10, 1, 0, 10);
    const net::Ipv4Address b(10, 3, 0, 20);
    const auto wire = [&](std::size_t payload) {
        net::BufferPool pool;
        const net::Packet packet =
            net::make_packet(a, b, net::IpProto::Udp, std::vector<std::uint8_t>(payload, 0x5a));
        return ns_per_call([&] {
            std::vector<std::uint8_t> bytes = packet.to_wire(pool);
            const net::Packet parsed = net::Packet::from_wire(bytes);
            keep(parsed);
            pool.release(std::move(bytes));
        });
    };
    p.wire32_ns = wire(32);
    p.wire1040_ns = wire(1040);

    // The city has no packets: its packet-layer probes use a default World.
    std::unique_ptr<core::World> reference;
    if (world == nullptr) {
        core::WorldConfig cfg;
        cfg.tracing = false;
        reference = std::make_unique<core::World>(cfg);
        world = reference.get();
    }
    const routing::ForwardingTable& table =
        world->backbone_router(world->backbone_size() / 2).stack().routes();
    const std::vector<net::Ipv4Address> destinations = {
        world->mh_home_addr(),        world->mh_care_of_addr(),       world->home_agent_addr(),
        world->corr_domain.host(20),  world->foreign_gateway_addr(), world->corr_gateway_addr(),
        world->home_domain.host(2000)};
    std::size_t next = 0;
    p.lookup_ns = ns_per_call([&] { keep(table.lookup(destinations[next++ % destinations.size()])); });

    const auto encap = tunnel::make_encapsulator(tunnel::EncapScheme::IpInIp);
    const net::Packet inner = net::make_packet(a, b, net::IpProto::Udp,
                                               std::vector<std::uint8_t>(shape.datagram_bytes, 0x5a));
    const net::Packet outer = encap->encapsulate(inner, world->home_agent_addr(), world->mh_care_of_addr());
    p.encap_ns = ns_per_call(
        [&] { keep(encap->encapsulate(inner, world->home_agent_addr(), world->mh_care_of_addr())); });
    p.decap_ns = ns_per_call([&] { keep(encap->decapsulate(outer)); });

    core::BindingTable bindings;
    const std::size_t n = std::max<std::size_t>(shape.bindings, 1);
    const auto key = [](std::size_t i) { return net::Ipv4Address(0x0a000000u + static_cast<std::uint32_t>(i)); };
    for (std::size_t i = 0; i < n; ++i) bindings.set(key(i), b, sim::seconds(3600));
    next = 0;
    p.binding_set_ns = ns_per_call([&] { bindings.set(key(next++ % n), a, sim::seconds(3600)); });
    p.binding_lookup_ns = ns_per_call([&] { keep(bindings.lookup(key(next++ % n), 0)); });

    core::RegistrationRequest req;
    req.home_address = a;
    req.home_agent = world->home_agent_addr();
    req.care_of_address = b;
    req.id = 42;
    p.reg_codec_ns = ns_per_call([&] {
        net::BufferWriter w(core::kRegistrationRequestSize);
        req.serialize(w, 7);
        const std::vector<std::uint8_t> bytes = w.take();
        net::BufferReader r(bytes);
        keep(core::RegistrationRequest::parse(r));
        keep(core::RegistrationRequest::authenticate(bytes, 7));
    });
    return p;
}

double kind_dispatches(const sim::SimProfiler& prof, const char* kind) {
    const auto it = prof.by_kind().find(kind);
    return it == prof.by_kind().end() ? 0.0 : static_cast<double>(it->second.dispatches);
}

double kind_mean_ns(const sim::SimProfiler& prof, const char* kind) {
    const auto it = prof.by_kind().find(kind);
    return it == prof.by_kind().end() ? 0.0 : it->second.mean_wall_ns();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

bool is_level(const std::string& name) {
    return name.ends_with("_max") || name.ends_with("_peak");
}

}  // namespace

// ---- recorder ----------------------------------------------------------------

LayerRecorder::LayerRecorder(Workload& workload)
    : workload_(workload), mobile_(std::make_unique<MobileState>()) {
    before_ = workload_.counts();
    workload_.simulator().set_profiler(&profiler_);
    if (core::World* w = workload_.world()) {
        mobile_->mac = w->mobile_host().nic(0).mac();
        mobile_->home = w->mh_home_addr().value();
        mobile_->care_of = w->mh_care_of_addr().value();
        mobile_->agent = w->home_agent_addr().value();
        for (sim::Link* link : w->all_links()) {
            hooks_.push_back(std::make_unique<CountingHook>(*link, *mobile_));
        }
    }
}

LayerRecorder::~LayerRecorder() { workload_.simulator().set_profiler(nullptr); }

obs::JsonValue::Object LayerRecorder::finish(double traced_wall_s) {
    workload_.simulator().set_profiler(nullptr);
    obs::JsonValue::Object m;
    for (const LayerMetric& lm : kLayerMetrics) m[lm.name] = 0.0;

    const Counts after = workload_.counts();
    for (const auto& [name, value] : after) {
        const auto it = before_.find(name);
        m[name] = is_level(name) || it == before_.end() ? value : value - it->second;
    }

    const sim::SimProfiler& prof = profiler_;
    const double events = static_cast<double>(prof.total_dispatches());
    m["sim.events"] = events;
    m["sim.self_ms"] = traced_wall_s * 1e3 - static_cast<double>(prof.total_wall_ns()) / 1e6;
    m["sim.queue_hwm"] = static_cast<double>(prof.max_queue_depth());
    m["sim.cancelled_hwm"] = static_cast<double>(prof.max_cancelled_size());
    m["link.frame_ns"] = kind_mean_ns(prof, "frame-delivery");
    m["transport.pace_dispatches"] = kind_dispatches(prof, "tcp-pace");
    m["transport.rto_dispatches"] = kind_dispatches(prof, "tcp-rto");
    m["core.overload_service_ns"] = kind_mean_ns(prof, "overload-service");
    m["metro.samples"] = kind_dispatches(prof, "city-sample");
    m["metro.sample_ns"] = kind_mean_ns(prof, "city-sample");

    Modes modes;
    if (!hooks_.empty()) {
        modes = mobile_->modes;
        double frames = 0, bytes = 0, stations = 0;
        for (const auto& h : hooks_) {
            frames += static_cast<double>(h->frames);
            bytes += static_cast<double>(h->bytes);
            stations = std::max(stations, static_cast<double>(h->stations_max));
        }
        m["link.frames"] = frames;
        m["link.bytes"] = bytes;
        m["link.stations_max"] = stations;
        m["tunnel.encaps"] =
            m.at("tunnel.agent_encaps").as_number() + static_cast<double>(modes.out_ie + modes.out_de);
        m["tunnel.decaps"] =
            m.at("tunnel.agent_decaps").as_number() + static_cast<double>(modes.in_ie + modes.in_de);
        hooks_.clear();
    }
    const auto num = [&m](const char* k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second.as_number();
    };
    m["net.pool_reuse_ratio"] = ratio(num("net.pool_reuses"), num("net.pool_acquires"));
    m["transport.retx_ratio"] = ratio(num("transport.retransmissions"), num("transport.segments"));

    const std::size_t depth = prof.max_queue_depth();
    const Probes p = run_probes(workload_.probe_shape(), depth, workload_.world());
    m["sim.probe.dispatch_ns"] = p.dispatch_ns;
    m["sim.probe.cancel_ns"] = p.cancel_ns;
    m["net.probe.wire_ns.32"] = p.wire32_ns;
    m["net.probe.wire_ns.1040"] = p.wire1040_ns;
    m["routing.probe.lookup_ns"] = p.lookup_ns;
    m["tunnel.probe.encap_ns"] = p.encap_ns;
    m["tunnel.probe.decap_ns"] = p.decap_ns;
    m["core.probe.binding_set_ns"] = p.binding_set_ns;
    m["core.probe.binding_lookup_ns"] = p.binding_lookup_ns;
    m["core.probe.reg_codec_ns"] = p.reg_codec_ns;

    // Estimated time per layer: probe cost times the exact count of calls
    // of that kind. The wire cost is interpolated at the mean frame size.
    const double frames = num("link.frames");
    const double mean_frame = ratio(num("link.bytes"), frames);
    const double wire_ns =
        p.wire32_ns + (p.wire1040_ns - p.wire32_ns) * std::clamp((mean_frame - 32.0) / 1008.0, 0.0, 1.0);
    obs::JsonValue::Object est;
    est["sim"] = p.dispatch_ns * events / 1e6;
    est["net"] = wire_ns * frames / 1e6;
    est["routing"] = p.lookup_ns * (num("stack.sent") + num("stack.forwarded")) / 1e6;
    est["tunnel"] = (p.encap_ns * num("tunnel.encaps") + p.decap_ns * num("tunnel.decaps")) / 1e6;
    est["core"] = ((p.reg_codec_ns + p.binding_set_ns) * num("core.reg_handled") +
                   p.binding_lookup_ns * (num("core.reg_handled") + num("tunnel.encaps"))) /
                  1e6;
    est["metro"] = num("metro.sample_ns") * num("metro.samples") / 1e6;
    double attributed = 0;
    for (const auto& [layer, ms] : est) attributed += ms.as_number();

    obs::JsonValue::Object kinds;
    for (const auto& [kind, profile] : prof.by_kind()) {
        obs::JsonValue::Object k;
        k["dispatches"] = static_cast<double>(profile.dispatches);
        k["wall_ns"] = static_cast<double>(profile.wall_ns);
        kinds[kind] = std::move(k);
    }
    obs::JsonValue::Object mode_counts;
    for (const auto& [name, v] :
         {std::pair{"out_ie", modes.out_ie}, {"out_de", modes.out_de}, {"out_dh", modes.out_dh},
          {"out_dt", modes.out_dt}, {"in_ie", modes.in_ie}, {"in_de", modes.in_de},
          {"in_dh", modes.in_dh}, {"in_dt", modes.in_dt}}) {
        mode_counts[name] = static_cast<double>(v);
    }
    obs::JsonValue::Array errors;
    for (const auto& [name, expected] : workload_.expected_modes()) {
        const double counted = mode_counts[name].as_number();
        if (counted != static_cast<double>(expected)) {
            errors.emplace_back(name + ": " + std::to_string(static_cast<std::uint64_t>(counted)) +
                                " packets on the wire, expected " + std::to_string(expected));
        }
    }

    obs::JsonValue::Object out;
    out["errors"] = std::move(errors);
    out["metrics"] = std::move(m);
    out["modes"] = std::move(mode_counts);
    out["est_ms"] = std::move(est);
    out["unattributed_ms"] = traced_wall_s * 1e3 - attributed;
    out["event_kinds"] = std::move(kinds);
    return out;
}

}  // namespace m4x4_benchmark
