#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>

#include "core/overload.h"
#include "core/registration.h"
#include "metro/city.h"
#include "net/protocol.h"
#include "transport/cc/controller.h"

namespace m4x4_benchmark {

using namespace mip;
using core::InMode;
using core::OutMode;

// ---- spans and digests -------------------------------------------------------

namespace {
std::int64_t steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}
}  // namespace

SpanLog::SpanLog() : origin_ns_(steady_ns()) {}

std::int64_t SpanLog::now_ns() const { return steady_ns() - origin_ns_; }

void SpanLog::add(const char* track, const std::string& name, std::int64_t begin_ns,
                  std::int64_t end_ns) {
    writer_.add_span(track, begin_ns, end_ns, name);
}

void Digest::add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
}

void Digest::add(const std::string& s) {
    for (const char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ull;
    }
    add(s.size());
}

namespace {

/// Byte @p offset of the seeded payload pattern with @p salt: cheap
/// enough to check every echoed byte inside the timed span.
std::uint8_t pattern(std::uint64_t salt, std::size_t offset) {
    return static_cast<std::uint8_t>(
        ((static_cast<std::uint32_t>(offset) * 2654435761u) >> 16) ^ salt);
}

/// Seeded phase in [0, span) for source @p index.
sim::Duration phase(std::uint64_t seed, std::uint64_t tag, std::uint64_t index,
                    sim::Duration span) {
    return static_cast<sim::Duration>(core::mix64(seed ^ tag ^ (index << 24)) %
                                      static_cast<std::uint64_t>(span));
}

void put_u32(std::vector<std::uint8_t>& out, std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = v << 8 | in[at + i];
    return v;
}

/// A datagram of @p size bytes: source id, sequence number, then the
/// pattern salted with both, so an echo proves every byte came back.
std::vector<std::uint8_t> make_datagram(std::size_t size, std::uint32_t id, std::uint32_t seq) {
    std::vector<std::uint8_t> d(size);
    put_u32(d, 0, id);
    put_u32(d, 4, seq);
    for (std::size_t i = 8; i < size; ++i) d[i] = pattern(id * 7919ull + seq, i);
    return d;
}

/// Sequence number of an intact datagram from source @p id; nullopt when
/// any byte differs from what make_datagram wrote.
std::optional<std::uint32_t> check_datagram(std::span<const std::uint8_t> d, std::size_t size,
                                            std::uint32_t id) {
    if (d.size() != size || get_u32(d, 0) != id) return std::nullopt;
    const std::uint32_t seq = get_u32(d, 4);
    for (std::size_t i = 8; i < size; ++i) {
        if (d[i] != pattern(id * 7919ull + seq, i)) return std::nullopt;
    }
    return seq;
}

// ---- the packet workloads' shared World plumbing -----------------------------

class WorldWorkload : public Workload {
public:
    sim::Simulator& simulator() override { return world_->sim; }
    core::World* world() override { return world_.get(); }
    Counts counts() override;

protected:
    explicit WorldWorkload(const Params& params) : params_(params) {}

    core::WorldConfig config(int backbone_routers, bool tracing) const {
        core::WorldConfig cfg;
        cfg.backbone_routers = backbone_routers;
        cfg.seed = params_.seed;
        cfg.tracing = tracing && !params_.untraced_world;
        return cfg;
    }

    void build(const core::WorldConfig& cfg, SpanLog* spans) {
        span(spans, "core", "World()", [&] { world_ = std::make_unique<core::World>(cfg); });
    }

    core::CorrespondentHost& add_correspondent(core::CorrespondentConfig cfg,
                                               core::Placement placement,
                                               std::uint32_t host_index) {
        core::CorrespondentHost& ch = world_->create_correspondent(cfg, placement, host_index);
        correspondents_.push_back(&ch);
        return ch;
    }

    void attach_mobile(SpanLog* spans) {
        bool ok = false;
        span(spans, "core", "attach_mobile_foreign", [&] { ok = world_->attach_mobile_foreign(); });
        if (!ok) throw std::runtime_error("mobile host registration was not accepted");
    }

    /// Advances simulated time in one-second slices until @p duration has
    /// passed or @p done holds. After each slice the trace and decision
    /// windows are handed back to the arena (the record-now/format-later
    /// steady state) and on_second() runs the workload's live checks.
    void advance(sim::Duration duration, SpanLog* spans,
                 const std::function<bool()>& done = {}) {
        const sim::TimePoint end = world_->sim.now() + duration;
        while (world_->sim.now() < end && !(done && done())) {
            const sim::TimePoint next = std::min(end, world_->sim.now() + sim::seconds(1));
            span(spans, "sim",
                 "run_for t=" + std::to_string(world_->sim.now() / sim::seconds(1)) + "s",
                 [&] { world_->sim.run_until(next); });
            trace_records_ += world_->trace.record_count();
            world_->trace.clear();
            decision_records_ += world_->decisions.size();
            world_->decisions.clear();
            bindings_max_ = std::max(bindings_max_, world_->home_agent().bindings().size());
            on_second();
        }
    }

    virtual void on_second() {}

    /// Probes at @p datagram_bytes and the agent's largest binding table.
    ProbeShape shape(std::size_t datagram_bytes) const { return {datagram_bytes, bindings_max_}; }

    /// Every node's and connection's simulated Stats, the agent's binding
    /// table and the clock: what a speed-only change must leave intact.
    void digest_world(Digest& d);

    Params params_;
    std::unique_ptr<core::World> world_;
    std::vector<core::CorrespondentHost*> correspondents_;
    /// Both ends of every TCP connection the workload opens.
    std::vector<transport::TcpConnection*> connections_;

private:
    std::uint64_t trace_records_ = 0;
    std::uint64_t decision_records_ = 0;
    std::size_t bindings_max_ = 0;
};

std::vector<const stack::IpStack*> all_stacks(core::World& w,
                                              const std::vector<core::CorrespondentHost*>& chs) {
    std::vector<const stack::IpStack*> out;
    for (std::size_t i = 0; i < w.backbone_size(); ++i) out.push_back(&w.backbone_router(i).stack());
    out.push_back(&w.home_gateway().stack());
    out.push_back(&w.foreign_gateway().stack());
    out.push_back(&w.corr_gateway().stack());
    out.push_back(&w.home_agent().stack());
    if (w.has_mobile_host()) out.push_back(&w.mobile_host().stack());
    for (const core::CorrespondentHost* ch : chs) out.push_back(&ch->stack());
    return out;
}

Counts WorldWorkload::counts() {
    Counts c;
    for (const stack::IpStack* s : all_stacks(*world_, correspondents_)) {
        const stack::IpStack::Stats& st = s->stats();
        c["stack.sent"] += static_cast<double>(st.packets_sent);
        c["stack.forwarded"] += static_cast<double>(st.packets_forwarded);
        c["stack.delivered"] += static_cast<double>(st.packets_delivered);
        c["stack.drops"] += static_cast<double>(st.ingress_filter_drops + st.egress_filter_drops +
                                                st.no_route_drops + st.ttl_drops +
                                                st.arp_failures);
    }
    const core::HomeAgent& ha = world_->home_agent();
    const core::HomeAgent::Stats& hs = ha.stats();
    c["core.reg_handled"] = static_cast<double>(hs.registrations_accepted +
                                                hs.registrations_denied_auth + hs.deregistrations);
    c["core.reg_shed"] = 0;
    c["core.reg_queue_peak"] = 0;
    if (const core::RegistrationQueue* q = world_->home_agent().overload_queue()) {
        c["core.reg_shed"] = static_cast<double>(q->shed_total());
        c["core.reg_queue_peak"] = static_cast<double>(q->stats().queue_peak);
    }
    c["core.bindings_max"] = static_cast<double>(bindings_max_);
    double agent_encaps = static_cast<double>(hs.packets_tunneled);
    double agent_decaps = static_cast<double>(hs.packets_reverse_forwarded);
    for (const core::CorrespondentHost* ch : correspondents_) {
        agent_encaps += static_cast<double>(ch->stats().in_de_sent);
        agent_decaps += static_cast<double>(ch->stats().decapsulated);
    }
    c["tunnel.agent_encaps"] = agent_encaps;
    c["tunnel.agent_decaps"] = agent_decaps;
    c["transport.segments"] = 0;
    c["transport.retransmissions"] = 0;
    for (const transport::TcpConnection* conn : connections_) {
        c["transport.segments"] += static_cast<double>(conn->stats().segments_sent);
        c["transport.retransmissions"] += static_cast<double>(conn->stats().retransmissions);
    }
    const net::BufferPool::Stats& pool = world_->sim.buffer_pool().stats();
    c["net.pool_acquires"] = static_cast<double>(pool.acquires);
    c["net.pool_reuses"] = static_cast<double>(pool.reuses);
    c["obs.trace_records"] = static_cast<double>(trace_records_ + world_->trace.record_count());
    c["obs.decision_records"] = static_cast<double>(decision_records_ + world_->decisions.size());
    c["obs.arena_allocations"] =
        static_cast<double>(world_->sim.record_arena().stats().allocations);
    return c;
}

void WorldWorkload::digest_world(Digest& d) {
    for (const stack::IpStack* s : all_stacks(*world_, correspondents_)) {
        const stack::IpStack::Stats& st = s->stats();
        for (const std::size_t v :
             {st.packets_sent, st.packets_received, st.packets_forwarded, st.packets_delivered,
              st.ingress_filter_drops, st.egress_filter_drops, st.no_route_drops, st.ttl_drops,
              st.arp_failures, st.fragments_sent, st.reassembled}) {
            d.add(v);
        }
    }
    core::HomeAgent& ha = world_->home_agent();
    const core::HomeAgent::Stats& hs = ha.stats();
    for (const std::size_t v :
         {hs.registrations_accepted, hs.registrations_renewed, hs.registrations_denied_auth,
          hs.deregistrations, hs.packets_tunneled, hs.packets_reverse_forwarded, hs.adverts_sent,
          hs.multicast_relayed, hs.crashes, hs.bindings_expired, hs.gc_rearms}) {
        d.add(v);
    }
    for (const core::Binding& b : ha.bindings().snapshot()) {
        d.add(b.home_address.value());
        d.add(b.care_of_address.value());
        d.add(static_cast<std::uint64_t>(b.expires));
    }
    if (const core::RegistrationQueue* q = ha.overload_queue()) {
        const core::RegistrationQueue::Stats& qs = q->stats();
        for (const std::size_t v : {qs.served_renewal, qs.served_new, qs.shed_new_bucket,
                                    qs.shed_new_queue, qs.shed_renewal_queue, qs.deferred,
                                    qs.queue_peak}) {
            d.add(v);
        }
    }
    // MobileHost::Stats::out_* count resolver calls, not packets, so they
    // stay out: modes are counted where packets leave (layers.cpp).
    const core::MobileHost& mh = world_->mobile_host();
    const core::MobileHost::Stats& ms = mh.stats();
    for (const std::size_t v :
         {ms.registrations_sent, ms.registration_backoffs, ms.registration_circuit_opens,
          ms.registration_circuit_probes, ms.binding_expiries, ms.failure_signals,
          ms.success_signals, ms.icmp_feedback_signals}) {
        d.add(v);
    }
    d.add(mh.registered());
    for (const core::CorrespondentHost* ch : correspondents_) {
        const core::CorrespondentHost::Stats& cs = ch->stats();
        for (const std::size_t v :
             {cs.in_de_sent, cs.in_dh_sent, cs.decapsulated, cs.adverts_learned}) {
            d.add(v);
        }
    }
    for (const transport::TcpConnection* conn : connections_) {
        const transport::TcpConnection::Stats& ts = conn->stats();
        for (const std::size_t v :
             {ts.bytes_sent, ts.bytes_acked, ts.bytes_received, ts.segments_sent,
              ts.retransmissions, ts.duplicate_segments_received, ts.rtt_samples}) {
            d.add(v);
        }
        d.add(static_cast<std::uint64_t>(conn->state()));
    }
    d.add(static_cast<std::uint64_t>(world_->sim.now()));
}

// ---- bulk_tcp ----------------------------------------------------------------

/// Six correspondents each echo 1 MiB from a mobile host that is away
/// with a co-located care-of address; the host's transport runs the
/// delay-gradient controller with pacing. Closed loop: the run ends when
/// every byte has come back.
class BulkTcp final : public WorldWorkload {
public:
    explicit BulkTcp(const Params& p) : WorldWorkload(p) {}

    void setup(SpanLog* spans) override {
        build(config(params_.smoke ? 4 : 16, /*tracing=*/true), spans);
        for (std::size_t i = 0; i < flows(); ++i) {
            core::CorrespondentHost& ch =
                add_correspondent({}, core::Placement::CorrLan, static_cast<std::uint32_t>(20 + i));
            ch.tcp().listen(kPort, [this](transport::TcpConnection& c) {
                connections_.push_back(&c);
                c.set_data_callback([&c](std::span<const std::uint8_t> d, const transport::RxMeta&) {
                    c.send(std::vector<std::uint8_t>(d.begin(), d.end()));
                });
            });
        }
        core::MobileHostConfig mcfg = world_->mobile_config();
        mcfg.tcp.controller = transport::cc::delay_gradient_factory();
        mcfg.tcp.paced = true;
        core::MobileHost& mh = world_->create_mobile_host(std::move(mcfg));
        attach_mobile(spans);

        // Handshakes fill every ARP cache on the path, both ways.
        flows_.resize(flows());
        span(spans, "transport", "connect", [&] {
            for (std::size_t i = 0; i < flows(); ++i) {
                Flow& f = flows_[i];
                f.salt = core::mix64(params_.seed ^ (i + 1)) & 0xff;
                f.conn = &mh.tcp().connect(correspondents_[i]->address(), kPort);
                connections_.push_back(f.conn);
                f.conn->set_data_callback(
                    [&f](std::span<const std::uint8_t> d, const transport::RxMeta&) {
                        for (const std::uint8_t b : d) {
                            if (b != pattern(f.salt, f.echoed)) ++f.corrupt;
                            ++f.echoed;
                        }
                    });
                f.payload.resize(bytes());
                for (std::size_t k = 0; k < bytes(); ++k) f.payload[k] = pattern(f.salt, k);
            }
        });
        const sim::TimePoint deadline = world_->sim.now() + sim::seconds(10);
        while (world_->sim.now() < deadline &&
               !std::all_of(flows_.begin(), flows_.end(),
                            [](const Flow& f) { return f.conn->established(); })) {
            world_->sim.run_until(world_->sim.now() + sim::milliseconds(10));
        }
        for (const Flow& f : flows_) {
            if (!f.conn->established()) throw std::runtime_error("a connection never opened");
        }
    }

    void run(SpanLog* spans) override {
        span(spans, "transport", "send", [&] {
            for (std::size_t i = 0; i < flows(); ++i) {
                world_->sim.schedule_in(
                    phase(params_.seed, 0x73656e64, i, sim::milliseconds(50)),
                    [this, i] { flows_[i].conn->send(std::move(flows_[i].payload)); },
                    "bench-send");
            }
        });
        advance(sim::seconds(60), spans, [this] {
            return std::all_of(flows_.begin(), flows_.end(),
                               [this](const Flow& f) { return f.echoed >= bytes(); });
        });
    }

    Outcome outcome() override {
        Outcome o;
        Digest d;
        digest_world(d);
        std::size_t corrupt = 0;
        for (const Flow& f : flows_) {
            o.attempted += bytes();
            o.failed += bytes() - std::min(f.echoed, bytes());
            corrupt += f.corrupt;
            d.add(f.echoed);
        }
        o.digest = d.value();
        if (corrupt > 0) o.errors.push_back(std::to_string(corrupt) + " echoed bytes corrupted");
        if (o.failed > 0) {
            o.errors.push_back(std::to_string(o.failed) + " bytes not echoed by the 60 s deadline");
        }
        return o;
    }

    ProbeShape probe_shape() override {
        // One full segment: mss payload plus the 20-byte TCP header.
        return shape(world_->mobile_host().tcp().config().mss + 20);
    }

private:
    static constexpr std::uint16_t kPort = 7200;
    std::size_t flows() const { return params_.smoke ? 2 : 6; }
    std::size_t bytes() const { return params_.smoke ? 64 * 1024 : 1024 * 1024; }

    struct Flow {
        transport::TcpConnection* conn = nullptr;
        std::vector<std::uint8_t> payload;
        std::uint64_t salt = 0;
        std::size_t echoed = 0;
        std::size_t corrupt = 0;
    };
    std::vector<Flow> flows_;
};

// ---- grid_udp ----------------------------------------------------------------

/// The seven useful cells of Figure 10, one group of correspondents each.
struct Cell {
    InMode in;
    OutMode out;
};
constexpr Cell kUsefulCells[] = {
    {InMode::IE, OutMode::IE}, {InMode::IE, OutMode::DE}, {InMode::IE, OutMode::DH},
    {InMode::DE, OutMode::DE}, {InMode::DE, OutMode::DH}, {InMode::DH, OutMode::DH},
    {InMode::DT, OutMode::DT},
};

/// Each correspondent sends 32-byte datagrams at 10/s to the mobile host,
/// which echoes them in the mode its cell dictates. Open loop, one
/// pending timer per source.
class GridUdp final : public WorldWorkload {
public:
    explicit GridUdp(const Params& p) : WorldWorkload(p) {}

    void setup(SpanLog* spans) override {
        build(config(params_.smoke ? 4 : 8, /*tracing=*/false), spans);
        const std::size_t group = params_.smoke ? 2 : 16;
        std::uint32_t corr_index = 20;
        std::uint32_t foreign_index = 100;
        for (const Cell& cell : kUsefulCells) {
            for (std::size_t j = 0; j < group; ++j) {
                core::CorrespondentConfig cfg;
                if (cell.in == InMode::DE || cell.in == InMode::DH) {
                    cfg.awareness = core::Awareness::MobileAware;
                } else if (cell.out == OutMode::DE) {
                    cfg.awareness = core::Awareness::DecapCapable;
                }
                const bool same_segment = cell.in == InMode::DH;
                auto src = std::make_unique<Source>();
                src->cell = cell;
                src->id = static_cast<std::uint32_t>(sources_.size());
                src->ch = &add_correspondent(
                    cfg, same_segment ? core::Placement::ForeignLan : core::Placement::CorrLan,
                    same_segment ? foreign_index++ : corr_index++);
                sources_.push_back(std::move(src));
            }
        }
        core::MobileHostConfig mcfg = world_->mobile_config();
        mcfg.enable_port_heuristics = false;  // the cell dictates the mode
        core::MobileHost& mh = world_->create_mobile_host(std::move(mcfg));
        attach_mobile(spans);

        const net::Ipv4Address home = world_->mh_home_addr();
        const net::Ipv4Address care_of = world_->mh_care_of_addr();
        home_echo_ = echo_socket(mh, kHomePort, home);
        care_of_echo_ = echo_socket(mh, kCareOfPort, care_of);
        for (auto& s : sources_) {
            Source& src = *s;
            if (src.ch->awareness() == core::Awareness::MobileAware) {
                src.ch->learn_binding(home, care_of, sim::seconds(3600));
            }
            if (src.cell.out != OutMode::DT) mh.force_mode(src.ch->address(), src.cell.out);
            src.target = src.cell.in == InMode::DT ? care_of : home;
            src.port = src.cell.in == InMode::DT ? kCareOfPort : kHomePort;
            src.seen.assign(datagrams() + 1, false);
            src.socket = src.ch->udp().open();
            // Like any real transport, accept only replies from the
            // endpoint that was addressed (§6.5).
            src.socket->set_receiver(
                [&src](std::span<const std::uint8_t> d, const transport::RxMeta& meta) {
                    const auto seq = meta.peer.addr == src.target && meta.peer.port == src.port
                                         ? check_datagram(d, kDatagramBytes, src.id)
                                         : std::nullopt;
                    if (!seq || *seq > src.seen.size() - 1 || src.seen[*seq]) {
                        ++src.bad;
                        return;
                    }
                    src.seen[*seq] = true;
                    if (*seq > 0) ++src.echoed;
                });
        }
        // Warm-up: sequence 0 from every source fills ARP and caches.
        for (auto& s : sources_) {
            s->socket->send_to(s->target, s->port, make_datagram(kDatagramBytes, s->id, 0));
        }
        world_->run_for(sim::seconds(1));
        for (const auto& s : sources_) {
            if (!s->seen[0]) throw std::runtime_error("a grid cell failed its warm-up echo");
        }
    }

    void run(SpanLog* spans) override {
        for (auto& s : sources_) {
            Source* src = s.get();
            world_->sim.schedule_in(phase(params_.seed, 0x67726964, src->id, kInterval),
                                    [this, src] { send_next(*src); }, "bench-send");
        }
        advance(seconds() + sim::seconds(2), spans);
    }

    Outcome outcome() override {
        Outcome o;
        Digest d;
        digest_world(d);
        std::size_t bad = 0;
        for (const auto& s : sources_) {
            o.attempted += s->sent;
            o.failed += s->sent - s->echoed;
            bad += s->bad;
            d.add(s->echoed);
        }
        o.digest = d.value();
        if (bad > 0) o.errors.push_back(std::to_string(bad) + " corrupt, misaddressed or repeated echoes");
        if (o.failed > 0) o.errors.push_back(std::to_string(o.failed) + " datagrams never echoed");
        return o;
    }

    ProbeShape probe_shape() override { return shape(kDatagramBytes + 8); }

    /// Every datagram of a cell arrives in the cell's In-mode and its echo
    /// leaves in the cell's Out-mode.
    std::map<std::string, std::uint64_t> expected_modes() override {
        static constexpr const char* kSuffix[] = {"ie", "de", "dh", "dt"};  // enum order
        std::map<std::string, std::uint64_t> m;
        for (const char* s : kSuffix) {
            m[std::string("out_") + s] = 0;
            m[std::string("in_") + s] = 0;
        }
        for (const auto& s : sources_) {
            m[std::string("out_") + kSuffix[static_cast<int>(s->cell.out)]] += s->sent;
            m[std::string("in_") + kSuffix[static_cast<int>(s->cell.in)]] += s->sent;
        }
        return m;
    }

private:
    static constexpr std::uint16_t kHomePort = 7000;
    static constexpr std::uint16_t kCareOfPort = 7001;
    static constexpr std::size_t kDatagramBytes = 32;
    static constexpr sim::Duration kInterval = sim::milliseconds(100);

    struct Source {
        Cell cell{};
        std::uint32_t id = 0;
        core::CorrespondentHost* ch = nullptr;
        std::unique_ptr<transport::UdpSocket> socket;
        net::Ipv4Address target;
        std::uint16_t port = 0;
        std::vector<bool> seen;
        std::size_t sent = 0;
        std::size_t echoed = 0;
        std::size_t bad = 0;
    };

    sim::Duration seconds() const { return sim::seconds(params_.smoke ? 5 : 60); }
    std::size_t datagrams() const {
        return static_cast<std::size_t>(seconds() / kInterval);
    }

    static std::unique_ptr<transport::UdpSocket> echo_socket(core::MobileHost& mh,
                                                             std::uint16_t port,
                                                             net::Ipv4Address bound) {
        auto socket = mh.udp().open(port);
        socket->bind_address(bound);
        transport::UdpSocket* raw = socket.get();
        socket->set_receiver([raw](std::span<const std::uint8_t> d, const transport::RxMeta& meta) {
            raw->send_to(meta.peer.addr, meta.peer.port, std::vector<std::uint8_t>(d.begin(), d.end()));
        });
        return socket;
    }

    void send_next(Source& src) {
        ++src.sent;
        src.socket->send_to(src.target, src.port,
                            make_datagram(kDatagramBytes, src.id, static_cast<std::uint32_t>(src.sent)));
        if (src.sent < datagrams()) {
            world_->sim.schedule_in(kInterval, [this, s = &src] { send_next(*s); }, "bench-send");
        }
    }

    std::vector<std::unique_ptr<Source>> sources_;
    std::unique_ptr<transport::UdpSocket> home_echo_;
    std::unique_ptr<transport::UdpSocket> care_of_echo_;
};

// ---- reg_storm ---------------------------------------------------------------

/// A forger floods the protected home agent with valid registrations
/// while a tenant mobile host renews a 2 s lifetime and receives a steady
/// In-IE stream. Open loop.
class RegStorm final : public WorldWorkload {
public:
    explicit RegStorm(const Params& p) : WorldWorkload(p) {}

    void setup(SpanLog* spans) override {
        // abl_overload's protected shape: 10 ms service, 16 deep, 40 new
        // registrations/s admitted.
        core::OverloadConfig qc;
        qc.service_time = sim::milliseconds(10);
        qc.queue_capacity = 16;
        qc.new_tokens_per_sec = 40.0;
        qc.new_token_burst = 8.0;
        core::WorldConfig cfg = config(4, /*tracing=*/true);
        cfg.home_agent.overload = qc;
        build(cfg, spans);
        core::MobileHostConfig mcfg = world_->mobile_config();
        mcfg.registration_lifetime = 2;
        mcfg.registration_backoff_cap = sim::seconds(2);
        core::MobileHost& mh = world_->create_mobile_host(std::move(mcfg));
        attach_mobile(spans);

        tenant_ = mh.udp().open(kTenantPort);
        seen_.assign(datagrams() + 1, false);
        tenant_->set_receiver([this](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            const auto seq = check_datagram(d, kDatagramBytes, kTenantId);
            if (!seq || *seq > datagrams() || seen_[*seq]) {
                ++bad_;
                return;
            }
            seen_[*seq] = true;
            if (*seq > 0) ++received_;
        });
        core::CorrespondentHost& sender = add_correspondent({}, core::Placement::CorrLan, 20);
        sender_ = sender.udp().open();
        core::CorrespondentHost& forger = add_correspondent({}, core::Placement::CorrLan, 21);
        forger_address_ = forger.address();
        forger_ = forger.udp().open(kForgerPort);
        forger_->set_receiver([this](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            net::BufferReader r(d);
            if (core::RegistrationReply::parse(r).accepted()) ++forged_accepted_;
        });

        sender_->send_to(world_->mh_home_addr(), kTenantPort,
                         make_datagram(kDatagramBytes, kTenantId, 0));
        world_->run_for(sim::seconds(1));
        if (!seen_[0]) throw std::runtime_error("the tenant missed its warm-up datagram");
        expiries_before_ = mh.stats().binding_expiries;
        renewals_before_ = mh.stats().registrations_sent;
    }

    void run(SpanLog* spans) override {
        world_->sim.schedule_in(phase(params_.seed, 0x74656e74, 0, kTenantInterval),
                                [this] { send_tenant(); }, "bench-send");
        world_->sim.schedule_in(phase(params_.seed, 0x73746f72, 0, kForgeInterval),
                                [this] { forge(); }, "bench-send");
        advance(seconds() + sim::seconds(2), spans);
    }

    Outcome outcome() override {
        Outcome o;
        Digest d;
        digest_world(d);
        const core::MobileHost::Stats& ms = world_->mobile_host().stats();
        const std::size_t expiries = ms.binding_expiries - expiries_before_;
        o.attempted = tenant_sent_ + (ms.registrations_sent - renewals_before_);
        o.failed = (tenant_sent_ - received_) + expiries;
        d.add(received_);
        d.add(forged_accepted_);
        o.digest = d.value();
        if (bad_ > 0) o.errors.push_back(std::to_string(bad_) + " corrupt or repeated tenant datagrams");
        if (tenant_sent_ != received_) {
            o.errors.push_back(std::to_string(tenant_sent_ - received_) + " tenant datagrams lost");
        }
        if (expiries > 0 || unbound_seconds_ > 0) {
            o.errors.push_back("the tenant lost its binding (" + std::to_string(expiries) +
                               " expiries, unbound at " + std::to_string(unbound_seconds_) +
                               " one-second checks)");
        }
        return o;
    }

    ProbeShape probe_shape() override { return shape(kDatagramBytes + 8); }

protected:
    void on_second() override {
        if (!world_->home_agent().is_registered(world_->mh_home_addr())) ++unbound_seconds_;
    }

private:
    static constexpr std::uint16_t kTenantPort = 7000;
    static constexpr std::uint16_t kForgerPort = 4434;
    static constexpr std::uint32_t kTenantId = 1;
    static constexpr std::size_t kDatagramBytes = 64;
    static constexpr sim::Duration kTenantInterval = sim::milliseconds(10);
    /// Two forged requests per tick: 2,000/s.
    static constexpr sim::Duration kForgeInterval = sim::milliseconds(1);
    static constexpr std::uint32_t kForgedAddresses = 2000;
    /// A forged address is repeated this many ticks after its first
    /// contact, once the agent has served (or shed) the first; with a 1 s
    /// binding lifetime and a 2 s cycle, repeats are the only renewals.
    static constexpr std::uint32_t kRepeatLag = 250;

    sim::Duration seconds() const { return sim::seconds(params_.smoke ? 5 : 60); }
    std::size_t datagrams() const {
        return static_cast<std::size_t>(seconds() / kTenantInterval);
    }

    void send_tenant() {
        ++tenant_sent_;
        sender_->send_to(world_->mh_home_addr(), kTenantPort,
                         make_datagram(kDatagramBytes, kTenantId,
                                       static_cast<std::uint32_t>(tenant_sent_)));
        if (tenant_sent_ < datagrams()) {
            world_->sim.schedule_in(kTenantInterval, [this] { send_tenant(); }, "bench-send");
        }
    }

    void send_forged(std::uint32_t address_index, std::uint64_t id) {
        core::RegistrationRequest req;
        req.lifetime = 1;
        req.home_address = world_->home_domain.host(2000 + address_index);
        req.home_agent = world_->home_agent_addr();
        req.care_of_address = forger_address_;
        req.id = id;
        net::BufferWriter w(core::kRegistrationRequestSize);
        req.serialize(w, world_->config().home_agent.registration_key);
        forger_->send_to(world_->home_agent_addr(), net::ports::kMobileIpRegistration, w.take());
    }

    void forge() {
        const std::uint32_t offset =
            static_cast<std::uint32_t>(core::mix64(params_.seed ^ 0x666f7267) % kForgedAddresses);
        const std::uint32_t k = forge_ticks_++;
        send_forged((offset + k) % kForgedAddresses, 2ull * k);
        if (k >= kRepeatLag) {
            send_forged((offset + k - kRepeatLag) % kForgedAddresses, 2ull * k + 1);
        }
        if (forge_ticks_ < static_cast<std::uint32_t>(seconds() / kForgeInterval)) {
            world_->sim.schedule_in(kForgeInterval, [this] { forge(); }, "bench-send");
        }
    }

    std::unique_ptr<transport::UdpSocket> tenant_;
    std::unique_ptr<transport::UdpSocket> sender_;
    std::unique_ptr<transport::UdpSocket> forger_;
    net::Ipv4Address forger_address_;
    std::vector<bool> seen_;
    std::size_t tenant_sent_ = 0;
    std::size_t received_ = 0;
    std::size_t bad_ = 0;
    std::size_t forged_accepted_ = 0;
    std::uint32_t forge_ticks_ = 0;
    std::size_t unbound_seconds_ = 0;
    std::size_t expiries_before_ = 0;
    std::size_t renewals_before_ = 0;
};

// ---- city --------------------------------------------------------------------

/// bench_city's full configuration for one seed: 12,000 hosts over 144
/// cells and 4 metro lines for 600 simulated seconds. No packets.
class City final : public Workload {
public:
    explicit City(const Params& p) : params_(p) {}

    void setup(SpanLog* spans) override {
        span(spans, "metro", "CitySim()",
             [&] { city_ = std::make_unique<metro::CitySim>(config()); });
    }

    void run(SpanLog* spans) override {
        span(spans, "metro", "CitySim::run", [&] { city_->run(); });
    }

    Outcome outcome() override {
        Outcome o;
        const std::uint64_t delivered = counter("probes_delivered");
        const std::uint64_t stale = counter("probes_stale");
        const std::uint64_t unbound = counter("probes_unbound");
        // A stale probe is the modelled handoff window (the registration
        // is in flight), bounded by the deliverability check below; a
        // probe whose host has no binding at all is a failed operation.
        o.attempted = city_->probes_total();
        o.failed = unbound;
        Digest d;
        d.add(city_->snapshot_json("m4x4_benchmark", "city"));
        for (const std::uint64_t v : {city_->handoffs_total(), city_->registrations_total(),
                                      city_->probes_total(), delivered, stale, unbound,
                                      static_cast<std::uint64_t>(city_->decisions().size())}) {
            d.add(v);
        }
        for (const core::BindingTable& t : city_->binding_tables()) d.add(t.size());
        o.digest = d.value();
        const double deliverability =
            o.attempted == 0 ? 0.0 : static_cast<double>(delivered) / static_cast<double>(o.attempted);
        // bench_city's floor; the smoke city has 1,024 probes, so there a
        // single stale probe is already 0.1%.
        const double floor = params_.smoke ? 0.99 : 0.999;
        if (deliverability < floor) {
            o.errors.push_back("deliverability " + std::to_string(deliverability) + " < " +
                               std::to_string(floor));
        }
        if (unbound > 0) o.errors.push_back(std::to_string(unbound) + " probes found no binding");
        return o;
    }

    sim::Simulator& simulator() override { return city_->simulator(); }
    core::World* world() override { return nullptr; }

    Counts counts() override {
        std::size_t bindings = 0;
        for (const core::BindingTable& t : city_->binding_tables()) bindings += t.size();
        return {
            {"metro.registrations", static_cast<double>(city_->registrations_total())},
            {"metro.handoffs", static_cast<double>(city_->handoffs_total())},
            {"core.reg_handled", static_cast<double>(city_->registrations_total())},
            {"core.bindings_max", static_cast<double>(bindings)},
            {"obs.decision_records", static_cast<double>(city_->decisions().size())},
        };
    }

    ProbeShape probe_shape() override {
        return {40, std::size_t{params_.smoke ? 600u : 12000u} / 8};
    }

private:
    metro::CityConfig config() const {
        metro::CityConfig cfg;
        const std::size_t hosts = params_.smoke ? 600 : 12000;
        cfg.metro.cells_x = cfg.metro.cells_y = params_.smoke ? 6 : 12;
        cfg.metro.cell_size_m = params_.smoke ? 400.0 : 500.0;
        cfg.population.hosts = hosts;
        cfg.population.seed = params_.seed;
        cfg.population.metro_lines = params_.smoke ? 2 : 4;
        cfg.duration = sim::seconds(params_.smoke ? 120 : 600);
        cfg.registration_lifetime = sim::seconds(params_.smoke ? 60 : 120);
        cfg.storm_threshold = params_.smoke ? 25 : 50;
        cfg.metrics_interval = sim::seconds(params_.smoke ? 15 : 30);
        cfg.probes_per_sweep = params_.smoke ? 64 : 256;
        cfg.monitor_interval = sim::seconds(5);
        cfg.storm_rate_floor = static_cast<double>(hosts) / 40.0;
        cfg.storm_spike_factor = 3.0;
        cfg.label = "seed" + std::to_string(params_.seed);
        return cfg;
    }

    std::uint64_t counter(const char* name) {
        return city_->metrics().counter("city", "metro", name).value();
    }

    Params params_;
    std::unique_ptr<metro::CitySim> city_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const Params& params) {
    if (name == "bulk_tcp") return std::make_unique<BulkTcp>(params);
    if (name == "grid_udp") return std::make_unique<GridUdp>(params);
    if (name == "city") return std::make_unique<City>(params);
    if (name == "reg_storm") return std::make_unique<RegStorm>(params);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace m4x4_benchmark
