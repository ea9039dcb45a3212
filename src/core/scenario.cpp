#include "core/scenario.h"

#include <map>
#include <queue>
#include <stdexcept>

namespace mip::core {

namespace {
int resolve_attach(int requested, int backbone_len) {
    const int idx = requested < 0 ? backbone_len - 1 : requested;
    if (idx < 0 || idx >= backbone_len) {
        throw std::invalid_argument("backbone attach index out of range");
    }
    return idx;
}
}  // namespace

World::World(WorldConfig config)
    : trace(&sim.record_arena()),
      decisions(&sim.record_arena()),
      config_(std::move(config)) {
    if (config_.backbone_routers < 1) {
        throw std::invalid_argument("backbone needs at least one router");
    }
    trace.set_sampling(config_.trace_sample_rate, config_.trace_sample_seed);

    home_lan_ = &make_link("home-lan", config_.lan_latency, config_.lan_bandwidth_bps,
                           config_.lan_mtu);
    foreign_lan_ = &make_link("foreign-lan", config_.lan_latency, config_.lan_bandwidth_bps,
                              config_.lan_mtu);
    corr_lan_ = &make_link("corr-lan", config_.lan_latency, config_.lan_bandwidth_bps,
                           config_.lan_mtu);

    // Backbone chain.
    for (int i = 0; i < config_.backbone_routers; ++i) {
        backbone_.push_back(
            std::make_unique<stack::Router>(sim, "bb-r" + std::to_string(i)));
        adopt_stack(backbone_.back()->stack());
    }
    for (int i = 0; i + 1 < config_.backbone_routers; ++i) {
        sim::Link& l = make_link("bb-link" + std::to_string(i), config_.backbone_latency,
                                 config_.backbone_bandwidth_bps, config_.backbone_mtu);
        const std::uint32_t net = next_p2p_net_++;
        const net::Prefix p2p(net::Ipv4Address(0xc0a80000u + net * 4), 30);
        const net::Ipv4Address a(p2p.base().value() + 1);
        const net::Ipv4Address b(p2p.base().value() + 2);
        const std::size_t ia = backbone_[i]->attach(l, a, p2p);
        const std::size_t ib = backbone_[i + 1]->attach(l, b, p2p);
        add_edge_pair(backbone_[i]->stack(), ia, a, backbone_[i + 1]->stack(), ib, b);
    }

    // Domain gateways.
    home_gw_ = std::make_unique<stack::Router>(sim, "home-gw");
    foreign_gw_ = std::make_unique<stack::Router>(sim, "foreign-gw");
    corr_gw_ = std::make_unique<stack::Router>(sim, "corr-gw");
    for (auto* gw : {home_gw_.get(), foreign_gw_.get(), corr_gw_.get()}) {
        adopt_stack(gw->stack());
    }

    connect_gateway(*home_gw_, resolve_attach(config_.home_attach, config_.backbone_routers),
                    home_gateway_addr(), home_domain.prefix, *home_lan_);
    connect_gateway(*foreign_gw_,
                    resolve_attach(config_.foreign_attach, config_.backbone_routers),
                    foreign_gateway_addr(), foreign_domain.prefix, *foreign_lan_);
    connect_gateway(*corr_gw_, resolve_attach(config_.corr_attach, config_.backbone_routers),
                    corr_gateway_addr(), corr_domain.prefix, *corr_lan_);

    // Boundary filter policy (paper §3.1). Interface 1 of each gateway is
    // the outside-facing one (see connect_gateway).
    if (config_.home_ingress_spoof_filter) {
        home_gw_->add_ingress_filter(
            1, std::make_shared<routing::SourceSpoofIngressRule>(home_domain.prefix));
    }
    if (config_.home_egress_antispoof) {
        home_gw_->add_egress_filter(
            1, std::make_shared<routing::ForeignSourceEgressRule>(home_domain.prefix));
    }
    if (config_.foreign_egress_antispoof) {
        foreign_gw_->add_egress_filter(
            1, std::make_shared<routing::ForeignSourceEgressRule>(foreign_domain.prefix));
    }
    if (config_.foreign_no_transit) {
        foreign_gw_->add_egress_filter(
            1, std::make_shared<routing::NoTransitRule>(foreign_domain.prefix));
        foreign_gw_->add_ingress_filter(
            1, std::make_shared<routing::NoTransitRule>(foreign_domain.prefix));
    }

    if (config_.home_firewall) {
        auto firewall = std::make_shared<routing::FirewallRule>();
        firewall->allow_destination(home_agent_addr());
        home_gw_->add_ingress_filter(1, std::move(firewall));
    }
    if (config_.filter_feedback) {
        home_gw_->stack().set_filter_feedback(true);
        foreign_gw_->stack().set_filter_feedback(true);
        corr_gw_->stack().set_filter_feedback(true);
    }

    install_backbone_routes();

    // The home agent.
    ha_ = std::make_unique<HomeAgent>(sim, "home-agent", config_.home_agent);
    adopt_stack(ha_->stack());
    ha_->attach_home(*home_lan_, home_agent_addr(), home_domain.prefix,
                     home_gateway_addr());
    {
        const HomeAgent* ha = ha_.get();
        const auto gauge = [&](const char* name, auto field) {
            metrics.register_gauge("home-agent", "tunnel", name,
                                   [ha, field] { return double(ha->stats().*field); });
        };
        gauge("packets_tunneled", &HomeAgent::Stats::packets_tunneled);
        gauge("packets_reverse_forwarded", &HomeAgent::Stats::packets_reverse_forwarded);
        gauge("multicast_relayed", &HomeAgent::Stats::multicast_relayed);
        gauge("registrations_accepted", &HomeAgent::Stats::registrations_accepted);
        gauge("registrations_renewed", &HomeAgent::Stats::registrations_renewed);
        gauge("registrations_denied_auth", &HomeAgent::Stats::registrations_denied_auth);
        gauge("adverts_sent", &HomeAgent::Stats::adverts_sent);
        gauge("crashes", &HomeAgent::Stats::crashes);
        gauge("bindings_expired", &HomeAgent::Stats::bindings_expired);
        gauge("gc_rearms", &HomeAgent::Stats::gc_rearms);
        // Overload protection (ISSUE 9): when the agent runs a
        // registration queue, export its depth/shed/token gauges and
        // audit its sheds into the World's decision log.
        if (RegistrationQueue* q = ha_->overload_queue()) {
            q->attach_metrics(metrics, "home-agent");
            q->set_decision_log(&decisions, "home-agent");
        }
    }

    // Network-wide wire-layer aggregates, derived from the trace recorder.
    const auto wire = [&](const char* name, auto fn) {
        metrics.register_gauge("network", "wire", name, [this, fn] { return double(fn(trace)); });
    };
    wire("frames_tx", [](const sim::TraceRecorder& t) { return t.count(sim::TraceKind::FrameTx); });
    wire("frames_lost",
         [](const sim::TraceRecorder& t) { return t.count(sim::TraceKind::FrameLost); });
    wire("filter_drops",
         [](const sim::TraceRecorder& t) { return t.count(sim::TraceKind::FilterDrop); });
    wire("ip_hops", [](const sim::TraceRecorder& t) { return t.ip_hops(); });
    wire("ip_tx_bytes", [](const sim::TraceRecorder& t) { return t.ip_tx_bytes(); });
    wire("total_tx_bytes", [](const sim::TraceRecorder& t) { return t.total_tx_bytes(); });
}

void World::adopt_stack(stack::IpStack& stack) {
    stack.set_trace(config_.tracing ? &trace : nullptr);
    const std::string node = stack.node().name();
    const stack::IpStack* s = &stack;
    const auto gauge = [&](const char* name, auto field) {
        metrics.register_gauge(node, "ip", name,
                               [s, field] { return double(s->stats().*field); });
    };
    gauge("packets_sent", &stack::IpStack::Stats::packets_sent);
    gauge("packets_received", &stack::IpStack::Stats::packets_received);
    gauge("packets_forwarded", &stack::IpStack::Stats::packets_forwarded);
    gauge("packets_delivered", &stack::IpStack::Stats::packets_delivered);
    gauge("ingress_filter_drops", &stack::IpStack::Stats::ingress_filter_drops);
    gauge("egress_filter_drops", &stack::IpStack::Stats::egress_filter_drops);
    gauge("no_route_drops", &stack::IpStack::Stats::no_route_drops);
    gauge("ttl_drops", &stack::IpStack::Stats::ttl_drops);
    gauge("arp_failures", &stack::IpStack::Stats::arp_failures);
    gauge("fragments_sent", &stack::IpStack::Stats::fragments_sent);
    gauge("reassembled", &stack::IpStack::Stats::reassembled);
}

sim::Link& World::make_link(std::string name, sim::Duration latency, double bandwidth_bps,
                            std::size_t mtu) {
    sim::LinkConfig cfg;
    cfg.name = std::move(name);
    cfg.latency = latency;
    cfg.bandwidth_bps = bandwidth_bps;
    cfg.mtu = mtu;
    cfg.loss_rate = config_.loss_rate;
    cfg.seed = config_.seed + links_.size();
    links_.push_back(std::make_unique<sim::Link>(sim, cfg));
    links_.back()->set_trace(config_.tracing ? &trace : nullptr);
    link_index_.emplace(links_.back()->name(), links_.size() - 1);
    return *links_.back();
}

sim::Link* World::find_link(const std::string& name) {
    const auto it = link_index_.find(name);
    return it == link_index_.end() ? nullptr : links_[it->second].get();
}

std::vector<sim::Link*> World::all_links() {
    std::vector<sim::Link*> out;
    out.reserve(links_.size());
    for (const auto& link : links_) out.push_back(link.get());
    return out;
}

void World::add_edge_pair(stack::IpStack& a, std::size_t a_iface, net::Ipv4Address a_addr,
                          stack::IpStack& b, std::size_t b_iface, net::Ipv4Address b_addr) {
    edges_.push_back(Edge{&a, a_iface, &b, b_addr});
    edges_.push_back(Edge{&b, b_iface, &a, a_addr});
}

void World::connect_gateway(stack::Router& gw, std::size_t backbone_index,
                            net::Ipv4Address inside_addr, net::Prefix inside_prefix,
                            sim::Link& inside_lan) {
    // Interface 0: inside LAN. Interface 1: uplink to the backbone.
    gw.attach(inside_lan, inside_addr, inside_prefix);

    sim::Link& uplink = make_link(gw.name() + "-uplink", config_.backbone_latency,
                                  config_.backbone_bandwidth_bps, config_.backbone_mtu);
    const std::uint32_t net = next_p2p_net_++;
    const net::Prefix p2p(net::Ipv4Address(0xc0a80000u + net * 4), 30);
    const net::Ipv4Address gw_addr(p2p.base().value() + 1);
    const net::Ipv4Address bb_addr(p2p.base().value() + 2);
    const std::size_t gw_iface = gw.attach(uplink, gw_addr, p2p);
    const std::size_t bb_iface = backbone_[backbone_index]->attach(uplink, bb_addr, p2p);
    add_edge_pair(gw.stack(), gw_iface, gw_addr, backbone_[backbone_index]->stack(), bb_iface,
                  bb_addr);
}

void World::install_backbone_routes() {
    // Static shortest-path routes: BFS from each domain gateway over the
    // router graph; every other router points its route for that domain's
    // prefix at the neighbour one hop closer.
    std::map<stack::IpStack*, std::vector<const Edge*>> adjacency;
    for (const Edge& e : edges_) {
        adjacency[e.from].push_back(&e);
    }

    struct Anchor {
        stack::IpStack* stack;
        net::Prefix prefix;
    };
    const std::vector<Anchor> anchors = {
        {&home_gw_->stack(), home_domain.prefix},
        {&foreign_gw_->stack(), foreign_domain.prefix},
        {&corr_gw_->stack(), corr_domain.prefix},
    };

    for (const Anchor& anchor : anchors) {
        std::map<stack::IpStack*, const Edge*> via;  // node -> edge toward anchor
        std::queue<stack::IpStack*> frontier;
        via[anchor.stack] = nullptr;
        frontier.push(anchor.stack);
        while (!frontier.empty()) {
            stack::IpStack* u = frontier.front();
            frontier.pop();
            for (const Edge* e : adjacency[u]) {
                if (via.contains(e->to)) continue;
                // e runs u -> v; v's route toward the anchor goes back
                // through u, i.e. v uses its reverse edge.
                for (const Edge* back : adjacency[e->to]) {
                    if (back->to == u) {
                        via[e->to] = back;
                        break;
                    }
                }
                frontier.push(e->to);
            }
        }
        for (const auto& [node, edge] : via) {
            if (edge == nullptr) continue;  // the anchor itself
            node->routes().add({anchor.prefix, edge->to_addr, edge->from_iface, 0});
        }
    }
}

MobileHostConfig World::mobile_config() const {
    MobileHostConfig cfg;
    cfg.home_address = mh_home_addr();
    cfg.home_subnet = home_domain.prefix;
    cfg.home_agent = home_agent_addr();
    return cfg;
}

MobileHost& World::create_mobile_host(MobileHostConfig config) {
    mh_ = std::make_unique<MobileHost>(sim, "mobile-host", std::move(config));
    adopt_stack(mh_->stack());
    const MobileHost* mh = mh_.get();
    const auto gauge = [&](const char* name, auto field) {
        metrics.register_gauge("mobile-host", "mobileip", name,
                               [mh, field] { return double(mh->stats().*field); });
    };
    gauge("out_ie", &MobileHost::Stats::out_ie);
    gauge("out_de", &MobileHost::Stats::out_de);
    gauge("out_dh", &MobileHost::Stats::out_dh);
    gauge("out_dt", &MobileHost::Stats::out_dt);
    gauge("registrations_sent", &MobileHost::Stats::registrations_sent);
    gauge("registration_backoffs", &MobileHost::Stats::registration_backoffs);
    gauge("registration_circuit_opens", &MobileHost::Stats::registration_circuit_opens);
    gauge("registration_circuit_probes", &MobileHost::Stats::registration_circuit_probes);
    gauge("binding_expiries", &MobileHost::Stats::binding_expiries);
    gauge("failure_signals", &MobileHost::Stats::failure_signals);
    gauge("success_signals", &MobileHost::Stats::success_signals);
    gauge("icmp_feedback_signals", &MobileHost::Stats::icmp_feedback_signals);
    return *mh_;
}

void World::enable_decision_log() {
    mh_->method_cache().set_decision_log(&decisions, mh_->name());
}

CorrespondentHost& World::create_correspondent(CorrespondentConfig config,
                                               Placement placement,
                                               std::uint32_t host_index) {
    correspondents_.push_back(std::make_unique<CorrespondentHost>(
        sim, "ch" + std::to_string(correspondents_.size()), config));
    CorrespondentHost& ch = *correspondents_.back();
    adopt_stack(ch.stack());
    {
        const CorrespondentHost* chp = &ch;
        const auto gauge = [&](const char* name, auto field) {
            metrics.register_gauge(ch.name(), "mobileip", name,
                                   [chp, field] { return double(chp->stats().*field); });
        };
        gauge("in_de_sent", &CorrespondentHost::Stats::in_de_sent);
        gauge("in_dh_sent", &CorrespondentHost::Stats::in_dh_sent);
        gauge("decapsulated", &CorrespondentHost::Stats::decapsulated);
        gauge("adverts_learned", &CorrespondentHost::Stats::adverts_learned);
    }
    switch (placement) {
        case Placement::HomeLan:
            ch.attach(*home_lan_, home_domain.host(host_index ? host_index : 20),
                      home_domain.prefix, home_gateway_addr());
            break;
        case Placement::ForeignLan:
            ch.attach(*foreign_lan_, foreign_domain.host(host_index ? host_index : 20),
                      foreign_domain.prefix, foreign_gateway_addr());
            break;
        case Placement::CorrLan:
            ch.attach(*corr_lan_, corr_domain.host(host_index ? host_index : 2),
                      corr_domain.prefix, corr_gateway_addr());
            break;
    }
    return ch;
}

void World::attach_mobile_home() {
    mh_->attach_home(*home_lan_, home_gateway_addr());
}

bool World::attach_and_wait(
    sim::Duration timeout,
    const std::function<void(MobileHost::RegistrationCallback)>& initiate) {
    bool done = false;
    bool accepted = false;
    initiate([&](bool ok) {
        done = true;
        accepted = ok;
    });
    const sim::TimePoint deadline = sim.now() + timeout;
    while (!done && sim.now() < deadline && sim.pending_events() > 0) {
        sim.run_until(sim.now() + sim::milliseconds(10));
    }
    return done && accepted;
}

bool World::attach_mobile_foreign(sim::Duration timeout) {
    return attach_and_wait(timeout, [&](MobileHost::RegistrationCallback done) {
        mh_->attach_foreign(*foreign_lan_, mh_care_of_addr(), foreign_domain.prefix,
                            foreign_gateway_addr(), std::move(done));
    });
}

ForeignAgent& World::create_foreign_agent(ForeignAgentConfig config) {
    fa_ = std::make_unique<ForeignAgent>(sim, "foreign-agent", config);
    adopt_stack(fa_->stack());
    fa_->attach_serving(*foreign_lan_, foreign_agent_addr(), foreign_domain.prefix,
                        foreign_gateway_addr());
    const ForeignAgent* fa = fa_.get();
    const auto gauge = [&](const char* name, auto field) {
        metrics.register_gauge("foreign-agent", "mobileip", name,
                               [fa, field] { return double(fa->stats().*field); });
    };
    gauge("adverts_sent", &ForeignAgent::Stats::adverts_sent);
    gauge("registrations_relayed", &ForeignAgent::Stats::registrations_relayed);
    gauge("replies_relayed", &ForeignAgent::Stats::replies_relayed);
    gauge("packets_delivered_final_hop", &ForeignAgent::Stats::packets_delivered_final_hop);
    gauge("packets_reverse_tunneled", &ForeignAgent::Stats::packets_reverse_tunneled);
    gauge("crashes", &ForeignAgent::Stats::crashes);
    if (RegistrationQueue* q = fa_->overload_queue()) {
        q->attach_metrics(metrics, "foreign-agent");
        q->set_decision_log(&decisions, "foreign-agent");
    }
    return *fa_;
}

bool World::attach_mobile_via_agent(sim::Duration timeout) {
    return attach_and_wait(timeout, [&](MobileHost::RegistrationCallback done) {
        mh_->attach_via_foreign_agent(*foreign_lan_, std::move(done));
    });
}

// ---- physical mobility ------------------------------------------------------

namespace {
/// Binds the handoff controller's Attachable interface to this world's
/// mobile host: each coverage-cell entry becomes the matching attach call.
class MobileHostAttachable final : public mobility::Attachable {
public:
    explicit MobileHostAttachable(MobileHost& mh) : mh_(mh) {}

    void attach_home(const mobility::CoverageCell& cell) override {
        mh_.attach_home(*cell.link, cell.gateway);
    }
    void attach_foreign(const mobility::CoverageCell& cell, Done done) override {
        mh_.attach_foreign(*cell.link, cell.care_of, cell.subnet, cell.gateway,
                           std::move(done));
    }
    void attach_via_agent(const mobility::CoverageCell& cell, Done done) override {
        mh_.attach_via_foreign_agent(*cell.link, std::move(done));
    }
    void detach() override { mh_.detach_current(); }

private:
    MobileHost& mh_;
};
}  // namespace

mobility::HandoffController& World::with_mobility(
    std::unique_ptr<mobility::MobilityModel> model, mobility::CoverageMap map,
    mobility::HandoffConfig config) {
    if (!mh_) {
        throw std::logic_error("with_mobility: create_mobile_host() first");
    }
    if (!config.gap_loss_probe) {
        // Packets the home agent tunnels while the host is between
        // attachments go to a stale care-of address and are lost.
        config.gap_loss_probe = [this] { return ha_->stats().packets_tunneled; };
    }
    mobility_model_ = std::move(model);
    mobility_adapter_ = std::make_unique<MobileHostAttachable>(*mh_);
    handoff_controller_ = std::make_unique<mobility::HandoffController>(
        sim, *mobility_adapter_, *mobility_model_, std::move(map), std::move(config));
    const mobility::HandoffController* hc = handoff_controller_.get();
    const auto gauge = [&](const char* name, auto fn) {
        metrics.register_gauge("mobile-host", "handoff", name,
                               [hc, fn] { return double(fn(hc->stats())); });
    };
    gauge("handoffs", [](const mobility::HandoffStats& s) { return s.handoff_count(); });
    gauge("suppressed_flaps",
          [](const mobility::HandoffStats& s) { return s.suppressed_flaps; });
    gauge("dead_zone_entries",
          [](const mobility::HandoffStats& s) { return s.dead_zone_entries; });
    gauge("failed_attaches",
          [](const mobility::HandoffStats& s) { return s.failed_attaches; });
    gauge("forced_reattaches",
          [](const mobility::HandoffStats& s) { return s.forced_reattaches; });
    gauge("avg_registration_ms",
          [](const mobility::HandoffStats& s) { return s.avg_registration_ms(); });
    gauge("total_gap_loss",
          [](const mobility::HandoffStats& s) { return s.total_gap_loss(); });
    handoff_controller_->start();
    return *handoff_controller_;
}

mobility::CoverageCell World::home_cell(mobility::Region region, int priority) {
    mobility::CoverageCell cell;
    cell.name = "home";
    cell.region = region;
    cell.kind = mobility::AttachKind::Home;
    cell.link = home_lan_;
    cell.subnet = home_domain.prefix;
    cell.gateway = home_gateway_addr();
    cell.priority = priority;
    return cell;
}

mobility::CoverageCell World::foreign_cell(mobility::Region region, int priority) {
    mobility::CoverageCell cell;
    cell.name = "foreign";
    cell.region = region;
    cell.kind = mobility::AttachKind::Foreign;
    cell.link = foreign_lan_;
    cell.care_of = mh_care_of_addr();
    cell.subnet = foreign_domain.prefix;
    cell.gateway = foreign_gateway_addr();
    cell.priority = priority;
    return cell;
}

mobility::CoverageCell World::foreign_agent_cell(mobility::Region region, int priority) {
    mobility::CoverageCell cell;
    cell.name = "foreign-agent";
    cell.region = region;
    cell.kind = mobility::AttachKind::ForeignAgent;
    cell.link = foreign_lan_;
    cell.subnet = foreign_domain.prefix;
    cell.gateway = foreign_gateway_addr();
    cell.priority = priority;
    return cell;
}

mobility::CoverageCell World::corr_cell(mobility::Region region, int priority) {
    mobility::CoverageCell cell;
    cell.name = "corr";
    cell.region = region;
    cell.kind = mobility::AttachKind::Foreign;
    cell.link = corr_lan_;
    cell.care_of = corr_domain.host(10);
    cell.subnet = corr_domain.prefix;
    cell.gateway = corr_gateway_addr();
    cell.priority = priority;
    return cell;
}

void World::enable_dns(const std::string& mh_name) {
    mh_dns_name_ = mh_name;
    dns_host_ = std::make_unique<stack::Host>(sim, "dns-server");
    dns_host_->attach(*home_lan_, dns_server_addr(), home_domain.prefix,
                      home_gateway_addr());
    adopt_stack(dns_host_->stack());
    dns_udp_ = std::make_unique<transport::UdpService>(dns_host_->stack());
    dns_zone_ = std::make_unique<dns::Zone>();
    dns_zone_->add_a(mh_name, mh_home_addr());
    dns_server_ = std::make_unique<dns::DnsServer>(*dns_udp_, *dns_zone_);
}

}  // namespace mip::core
