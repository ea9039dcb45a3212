// Canned topology for every figure in the paper: a home domain (with home
// agent and boundary router), a foreign (visited) domain, a correspondent
// domain, and a configurable linear backbone between them.
//
//   home 10.1/16 --[home-gw]--R0--R1--...--Rn--[foreign-gw]-- foreign 10.2/16
//                               \---------[corr-gw]-- correspondent 10.3/16
//
// Attachment points on the backbone are configurable so scenarios like
// Figure 4 ("CH close to MH, HA far away") are one-line changes.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/correspondent.h"
#include "core/foreign_agent.h"
#include "core/home_agent.h"
#include "core/mobile_host.h"
#include "dns/server.h"
#include "mobility/handoff.h"
#include "obs/decision.h"
#include "obs/metrics.h"
#include "routing/domain.h"
#include "stack/router.h"

namespace mip::core {

struct WorldConfig {
    /// Number of backbone routers (>= 1).
    int backbone_routers = 4;
    /// Backbone router index each domain's gateway hangs off (-1 = last).
    int home_attach = 0;
    int foreign_attach = -1;
    int corr_attach = -1;

    /// Figure 2: the home boundary drops packets arriving from outside with
    /// a source address claiming to be inside.
    bool home_ingress_spoof_filter = true;
    /// The home boundary drops packets leaving with a non-home source.
    bool home_egress_antispoof = true;
    /// The visited network's boundary drops packets leaving with a source
    /// that isn't one of its own ("most end-user networks have a policy
    /// forbidding transit traffic") — this is what kills Out-DH.
    bool foreign_egress_antispoof = false;
    /// Alternative formulation of the same policy as a transit filter.
    bool foreign_no_transit = false;
    /// Boundary routers answer filtered packets with ICMP administratively-
    /// prohibited instead of dropping silently (off by default, matching
    /// the paper's assumption).
    bool filter_feedback = false;
    /// §3.1 last paragraph: a strict firewall at the home boundary that
    /// admits *only* packets addressed to the home agent — "the firewall
    /// itself would be set up to act as the mobile user's home agent,
    /// sitting as it does on the boundary between the untrusted outside
    /// world and the trusted world inside."
    bool home_firewall = false;

    sim::Duration lan_latency = sim::microseconds(100);
    sim::Duration backbone_latency = sim::milliseconds(5);
    double lan_bandwidth_bps = 10e6;
    double backbone_bandwidth_bps = 45e6;
    std::size_t lan_mtu = 1500;
    std::size_t backbone_mtu = 1500;
    double loss_rate = 0.0;
    std::uint64_t seed = 1;

    /// Observability knobs (docs/OBSERVABILITY.md). With tracing off,
    /// links and stacks get no recorder attached and every trace seam in
    /// the hot path is a single pointer compare — the "untraced" leg of
    /// bench_perf's overhead block. Sampling (rate < 1) retains only a
    /// deterministic, seeded subset of journeys while keeping the wire
    /// aggregates exact; rate 1.0 is byte-identical to full tracing.
    bool tracing = true;
    double trace_sample_rate = 1.0;
    std::uint64_t trace_sample_seed = 0;

    HomeAgentConfig home_agent;
};

/// Where to place a correspondent host.
enum class Placement {
    HomeLan,     ///< inside the mobile host's own institution
    ForeignLan,  ///< on the segment the mobile host is visiting (Row C)
    CorrLan,     ///< a third-party site across the backbone
};

class World {
public:
    explicit World(WorldConfig config = {});
    World(const World&) = delete;
    World& operator=(const World&) = delete;

    sim::Simulator sim;
    /// Backed by sim.record_arena() — declared right after `sim` so records
    /// die before their chunks' arena. Attached to links and stacks only
    /// when config.tracing is on.
    sim::TraceRecorder trace;
    /// Every node the world creates publishes its counters here (gauges
    /// mirroring the node Stats structs, grouped into "ip", "tunnel",
    /// "mobileip", "handoff" and "wire" layers — see docs/TRACE_FORMAT.md
    /// §4). Benches snapshot it at the end of a run; tests query it
    /// directly. Declared after `trace` and before any node so it outlives
    /// every registered provider.
    obs::MetricsRegistry metrics;
    /// Delivery-decision audit trail (docs/TRACE_FORMAT.md §6): the mobile
    /// host's method cache and any CapabilityProber record here once
    /// enabled. Recording is off by default; call enable_decision_log()
    /// (or wire create_mobile_host with one) to attach. Declared before
    /// any node so it outlives every producer holding a pointer to it.
    obs::DecisionLog decisions;

    const WorldConfig& config() const noexcept { return config_; }

    // ---- well-known addresses ------------------------------------------------

    routing::Domain home_domain{"home", net::Prefix::must_parse("10.1.0.0/16")};
    routing::Domain foreign_domain{"foreign", net::Prefix::must_parse("10.2.0.0/16")};
    routing::Domain corr_domain{"corr", net::Prefix::must_parse("10.3.0.0/16")};

    net::Ipv4Address home_gateway_addr() const { return home_domain.host(1); }
    net::Ipv4Address foreign_gateway_addr() const { return foreign_domain.host(1); }
    net::Ipv4Address corr_gateway_addr() const { return corr_domain.host(1); }
    net::Ipv4Address home_agent_addr() const { return home_domain.host(2); }
    net::Ipv4Address dns_server_addr() const { return home_domain.host(53); }
    net::Ipv4Address mh_home_addr() const { return home_domain.host(10); }
    net::Ipv4Address mh_care_of_addr() const { return foreign_domain.host(10); }
    net::Ipv4Address foreign_agent_addr() const { return foreign_domain.host(3); }

    // ---- topology handles ------------------------------------------------------

    sim::Link& home_lan() { return *home_lan_; }
    sim::Link& foreign_lan() { return *foreign_lan_; }
    sim::Link& corr_lan() { return *corr_lan_; }
    HomeAgent& home_agent() { return *ha_; }
    stack::Router& home_gateway() { return *home_gw_; }
    stack::Router& foreign_gateway() { return *foreign_gw_; }
    stack::Router& corr_gateway() { return *corr_gw_; }
    std::size_t backbone_size() const { return backbone_.size(); }
    stack::Router& backbone_router(std::size_t i) { return *backbone_.at(i); }
    bool has_foreign_agent() const noexcept { return fa_ != nullptr; }
    bool has_mobile_host() const noexcept { return mh_ != nullptr; }

    /// Looks a link up by its configured name ("home-lan", "foreign-lan",
    /// "bb-link0", "home-gw-uplink", ...); nullptr when absent. The fault
    /// injector resolves FaultPlan targets through this. O(1): backed by
    /// the name index make_link maintains (ISSUE 6 — the O(n) scan this
    /// replaces is benchmarked against it in bench_city).
    sim::Link* find_link(const std::string& name);
    /// Every link in the world, in creation order.
    std::vector<sim::Link*> all_links();

    // ---- population helpers ----------------------------------------------------

    /// A MobileHostConfig pre-filled with this world's addresses. The caller
    /// may override the strategy, encapsulation scheme, heuristics, etc.
    MobileHostConfig mobile_config() const;

    /// Creates the world's mobile host (owned by the world).
    MobileHost& create_mobile_host(MobileHostConfig config);
    MobileHost& create_mobile_host() { return create_mobile_host(mobile_config()); }
    MobileHost& mobile_host() { return *mh_; }

    /// Attaches `decisions` to the mobile host's method cache so every
    /// delivery-method decision is audited (off by default; requires
    /// create_mobile_host() first).
    void enable_decision_log();

    /// Creates a correspondent host at @p placement (owned by the world).
    /// @p host_index picks the address within the domain (default .20 on
    /// LANs, .2 in the correspondent domain).
    CorrespondentHost& create_correspondent(CorrespondentConfig config, Placement placement,
                                            std::uint32_t host_index = 0);

    /// How long the attach_mobile_* helpers drive the simulation while
    /// waiting for a registration outcome.
    static constexpr sim::Duration kDefaultAttachTimeout = sim::seconds(10);

    /// Plugs the world's mobile host into its home segment.
    void attach_mobile_home();

    /// Plugs the world's mobile host into the foreign segment and runs the
    /// simulation until registration completes (or @p timeout). Returns
    /// whether registration was accepted.
    bool attach_mobile_foreign(sim::Duration timeout = kDefaultAttachTimeout);

    /// Places a foreign agent on the foreign LAN (owned by the world).
    ForeignAgent& create_foreign_agent(ForeignAgentConfig config = {});
    ForeignAgent& foreign_agent() { return *fa_; }

    /// Plugs the world's mobile host into the foreign segment *via the
    /// foreign agent* and runs until registration completes (or timeout).
    bool attach_mobile_via_agent(sim::Duration timeout = kDefaultAttachTimeout);

    // ---- physical mobility ----------------------------------------------------

    /// Installs the physical-mobility layer: @p model drives the mobile
    /// host's position, @p map binds regions to this world's segments, and
    /// the returned HandoffController (started, owned by the world)
    /// performs every attach/detach from then on — no manual attach_*
    /// calls. Requires create_mobile_host() first. Unless overridden,
    /// config.gap_loss_probe counts packets the home agent tunnels while
    /// the host is between attachments.
    mobility::HandoffController& with_mobility(
        std::unique_ptr<mobility::MobilityModel> model, mobility::CoverageMap map,
        mobility::HandoffConfig config = {});
    mobility::HandoffController& handoff() { return *handoff_controller_; }
    bool has_mobility() const noexcept { return handoff_controller_ != nullptr; }

    /// Cell builders pre-wired to this world's segments and addresses (the
    /// caller picks the region; link/addresses/gateway are filled in).
    mobility::CoverageCell home_cell(mobility::Region region, int priority = 0);
    /// Foreign LAN with a co-located care-of address (the usual COA).
    mobility::CoverageCell foreign_cell(mobility::Region region, int priority = 0);
    /// Foreign LAN joined through its foreign agent (create_foreign_agent
    /// first, or registrations will go unanswered until retries expire).
    mobility::CoverageCell foreign_agent_cell(mobility::Region region, int priority = 0);
    /// The correspondent-domain LAN treated as a third visited network.
    mobility::CoverageCell corr_cell(mobility::Region region, int priority = 0);

    /// Enables a DNS server (in the home domain) preloaded with an A record
    /// for the mobile host under @p mh_name.
    void enable_dns(const std::string& mh_name = "mh.home.example");
    dns::Zone& dns_zone() { return *dns_zone_; }
    const std::string& mh_dns_name() const { return mh_dns_name_; }

    /// Advances simulated time by @p d.
    void run_for(sim::Duration d) { sim.run_until(sim.now() + d); }
    /// Lets all in-flight activity settle: advances one minute of simulated
    /// time. (A registered mobile host re-registers periodically, so the
    /// event queue never literally drains; a bounded window is the
    /// meaningful notion of "run everything".)
    void run_all() { run_for(sim::seconds(10)); }

private:
    sim::Link& make_link(std::string name, sim::Duration latency, double bandwidth_bps,
                         std::size_t mtu);
    /// Shared attach-and-poll loop behind attach_mobile_foreign /
    /// attach_mobile_via_agent: @p initiate kicks off the attachment with a
    /// registration callback; we drive the simulation until it reports.
    bool attach_and_wait(
        sim::Duration timeout,
        const std::function<void(MobileHost::RegistrationCallback)>& initiate);
    void connect_gateway(stack::Router& gw, std::size_t backbone_index,
                         net::Ipv4Address inside_addr, net::Prefix inside_prefix,
                         sim::Link& inside_lan);
    void install_backbone_routes();
    /// Installs this world's trace sink on @p stack and registers the
    /// standard "ip"-layer gauges for its Stats under the node's name.
    void adopt_stack(stack::IpStack& stack);

    WorldConfig config_;
    std::vector<std::unique_ptr<sim::Link>> links_;
    /// name -> index into links_, maintained by make_link. all_links()
    /// still reports creation order, so iteration stays deterministic.
    std::unordered_map<std::string, std::size_t> link_index_;
    sim::Link* home_lan_ = nullptr;
    sim::Link* foreign_lan_ = nullptr;
    sim::Link* corr_lan_ = nullptr;
    std::vector<std::unique_ptr<stack::Router>> backbone_;
    std::unique_ptr<stack::Router> home_gw_;
    std::unique_ptr<stack::Router> foreign_gw_;
    std::unique_ptr<stack::Router> corr_gw_;
    std::unique_ptr<HomeAgent> ha_;
    std::unique_ptr<ForeignAgent> fa_;
    std::unique_ptr<MobileHost> mh_;
    std::vector<std::unique_ptr<CorrespondentHost>> correspondents_;
    std::unique_ptr<mobility::MobilityModel> mobility_model_;
    std::unique_ptr<mobility::Attachable> mobility_adapter_;
    std::unique_ptr<mobility::HandoffController> handoff_controller_;
    std::unique_ptr<stack::Host> dns_host_;
    std::unique_ptr<transport::UdpService> dns_udp_;
    std::unique_ptr<dns::Zone> dns_zone_;
    std::unique_ptr<dns::DnsServer> dns_server_;
    std::string mh_dns_name_;

    // Topology graph for static route computation.
    struct Edge {
        stack::IpStack* from;
        std::size_t from_iface;
        stack::IpStack* to;
        net::Ipv4Address to_addr;  ///< neighbour's address on the shared link
    };
    std::vector<Edge> edges_;
    void add_edge_pair(stack::IpStack& a, std::size_t a_iface, net::Ipv4Address a_addr,
                       stack::IpStack& b, std::size_t b_iface, net::Ipv4Address b_addr);
    std::uint32_t next_p2p_net_ = 0;
};

}  // namespace mip::core
