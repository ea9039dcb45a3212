// The mobile host (paper §4, §7.1): a self-sufficient Mobile IP node that
// operates without foreign agents, choosing among the four outgoing modes
// per correspondent, per connection, or per packet.
//
// The mobility policy is installed as the stack's RouteResolver — the
// paper's "override the IP route lookup routine" — so it captures every
// decision point, including TCP's endpoint-address choice, automatically.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "core/registration.h"
#include "core/registration_client.h"
#include "core/selection.h"
#include "dns/resolver.h"
#include "stack/host.h"
#include "transport/tcp_service.h"
#include "transport/udp_service.h"
#include "tunnel/encapsulator.h"

namespace mip::core {

struct MobileHostConfig {
    net::Ipv4Address home_address;
    net::Prefix home_subnet;
    net::Ipv4Address home_agent;

    tunnel::EncapScheme encap_scheme = tunnel::EncapScheme::IpInIp;

    /// nullptr = AggressiveFirstStrategy.
    std::unique_ptr<SelectionStrategy> strategy;
    MethodCacheConfig cache;

    /// §7.1.1 port heuristics: flows to these destination ports use Out-DT
    /// ("connections to port 80 are likely to be HTTP requests and can
    /// safely use Out-DT ... UDP packets addressed to UDP port 53 are
    /// likely to be DNS requests").
    bool enable_port_heuristics = true;
    std::set<std::uint16_t> temporary_address_ports{80, 53};

    /// Privacy mode: always tunnel via the home agent so correspondents
    /// never see the current location (paper §4, Out-IE motivation).
    bool privacy_mode = false;

    /// Shared key for the mobility security association with the home
    /// agent; must match the agent's configuration.
    std::uint64_t registration_key = 0;

    std::uint16_t registration_lifetime = 300;  ///< seconds requested
    // The RegistrationClient's policy. Retry delays are seeded decorrelated
    // jitter from [registration_retry, 3 x previous), capped at
    // registration_backoff_cap — so hosts orphaned by one agent crash
    // neither retry in lockstep nor stop probing until the agent returns.
    sim::Duration registration_retry = sim::milliseconds(500);
    unsigned registration_max_retries = 10;  ///< initial attaches give up after this
    sim::Duration registration_backoff_cap = sim::seconds(8);
    /// Retry budget for background refreshes: after this many unanswered
    /// retries the host opens its registration circuit and parks, probing
    /// every registration_circuit_probe +-25%, until a reply closes it.
    /// 0 = no budget (retry forever). Initial attaches are unaffected.
    unsigned registration_retry_budget = 0;
    sim::Duration registration_circuit_probe = sim::seconds(8);

    /// Parameters for the host's TCP service (timeouts matter to how fast
    /// the §7.1.2 failure signals arrive).
    transport::Config tcp;
};

class MobileHost final : public stack::Host, private stack::RouteResolver {
public:
    using RegistrationCallback = std::function<void(bool accepted)>;

    MobileHost(sim::Simulator& simulator, std::string name, MobileHostConfig config);
    ~MobileHost() override;

    // ---- mobility ---------------------------------------------------------

    /// Plug into the home segment: configures the home address, reclaims it
    /// with gratuitous ARP, and deregisters from the home agent if needed.
    void attach_home(sim::Link& link, std::optional<net::Ipv4Address> gateway = std::nullopt);

    /// Plug into a foreign segment with care-of address @p care_of, then
    /// register with the home agent (retrying until accepted or out of
    /// retries; @p done fires either way).
    void attach_foreign(sim::Link& link, net::Ipv4Address care_of, net::Prefix subnet,
                        std::optional<net::Ipv4Address> gateway = std::nullopt,
                        RegistrationCallback done = {});

    /// Plug into a foreign segment served by a foreign agent (paper §2):
    /// no address of our own is acquired. The host solicits an agent
    /// advertisement, adopts the advertised care-of address, and registers
    /// *through* the agent. While attached this way, all traffic funnels
    /// through the agent (the paper's noted loss of optimization freedom).
    void attach_via_foreign_agent(sim::Link& link, RegistrationCallback done = {});

    /// True when attached through a foreign agent.
    bool via_foreign_agent() const noexcept { return fa_mode_; }
    net::Ipv4Address foreign_agent_address() const noexcept { return fa_addr_; }

    /// Unplug from the current segment.
    void detach_current();

    bool at_home() const noexcept { return at_home_; }
    bool registered() const noexcept { return registered_; }
    /// True while the registration retry budget is exhausted and the host
    /// is parked, probing slowly (see registration_retry_budget). Active
    /// probing (CapabilityProber) is suppressed in this state — the
    /// control plane is the thing that is down, so adding probe traffic
    /// to it only feeds the storm.
    bool registration_circuit_open() const noexcept { return client_.circuit_open(); }
    net::Ipv4Address home_address() const noexcept { return config_.home_address; }
    net::Ipv4Address care_of_address() const noexcept { return care_of_; }

    // ---- policy -----------------------------------------------------------

    DeliveryMethodCache& method_cache() noexcept { return method_cache_; }
    /// Current outgoing mode the policy would pick for @p dst's home-address
    /// traffic.
    OutMode mode_for(net::Ipv4Address dst);
    /// Pins all home-address traffic to @p dst to one mode.
    void force_mode(net::Ipv4Address dst, OutMode mode);

    // ---- discovery publication ---------------------------------------------

    /// Publishes the current care-of address as a DNS TA record under
    /// @p name (paper §3.2: "a mobile host that is away from home, but not
    /// currently changing location frequently, could register its care-of
    /// address with the extended DNS service"). No-op when at home or
    /// unregistered.
    void publish_care_of_dns(dns::Resolver& resolver, const std::string& name,
                             std::uint32_t ttl_seconds = 60);

    /// Withdraws the TA record (e.g. on returning home).
    void withdraw_care_of_dns(dns::Resolver& resolver, const std::string& name);

    // ---- services ---------------------------------------------------------

    transport::UdpService& udp() noexcept { return *udp_; }
    transport::TcpService& tcp() noexcept { return *tcp_; }

    struct Stats {
        std::size_t out_ie = 0;  ///< packets routed into the home tunnel
        std::size_t out_de = 0;  ///< packets routed into the direct tunnel
        std::size_t out_dh = 0;  ///< packets sent plain with home source
        std::size_t out_dt = 0;  ///< packets sent plain with care-of source
        std::size_t registrations_sent = 0;
        std::size_t registration_backoffs = 0;  ///< retries beyond the first send
        std::size_t registration_circuit_opens = 0;  ///< budget exhaustions
        std::size_t registration_circuit_probes = 0;  ///< slow probes while parked
        std::size_t binding_expiries = 0;  ///< lifetimes that lapsed unrefreshed
        std::size_t failure_signals = 0;
        std::size_t success_signals = 0;
        std::size_t icmp_feedback_signals = 0;  ///< admin-prohibited notices
    };
    const Stats& stats() const noexcept { return stats_; }

    const MobileHostConfig& config() const noexcept { return config_; }

private:
    // RouteResolver
    std::optional<stack::Resolution> resolve(const stack::FlowKey& flow) override;

    void send_tunneled(net::Packet inner, net::Ipv4Address outer_dst);
    void on_decap_packet(const net::Packet& outer, const tunnel::Encapsulator& decap);
    /// Opens a registration exchange: an Attach when @p done waits on the
    /// outcome, a background Refresh otherwise.
    void start_registration(std::uint16_t lifetime, RegistrationCallback done);
    /// Carries out one client decision from start() or retry(): sends the
    /// request and arms the retry timer, or reports a give-up.
    void send_registration(std::uint16_t lifetime, const RegistrationClient::Decision& send,
                           RegistrationCallback done);
    void on_registration_reply(std::span<const std::uint8_t> data, RegistrationCallback& done);
    void schedule_reregistration(std::uint16_t granted_lifetime);
    /// Tracks the granted lifetime locally: when it lapses without a
    /// successful refresh (home agent down, link flapping), the host marks
    /// itself unregistered instead of believing a binding the agent no
    /// longer holds.
    void arm_binding_expiry(std::uint16_t granted_lifetime);
    /// Cancels the retry/refresh/expiry timers and abandons any pending
    /// registration (every attach/detach transition starts from here).
    void cancel_registration_timers();
    /// Moves the physical interface (created on first use) onto @p link,
    /// unconfigured.
    stack::Interface& plug_into(sim::Link& link);

    MobileHostConfig config_;
    /// Every retry, backoff, budget, circuit and stale-reply decision.
    RegistrationClient client_;
    std::unique_ptr<tunnel::Encapsulator> encap_;
    std::vector<std::unique_ptr<tunnel::Encapsulator>> decapsulators_;
    DeliveryMethodCache method_cache_;

    std::unique_ptr<transport::UdpService> udp_;
    std::unique_ptr<transport::TcpService> tcp_;
    std::unique_ptr<transport::UdpSocket> reg_socket_;

    std::size_t physical_interface_ = stack::IpStack::kNoInterface;
    std::size_t vif_home_ = stack::IpStack::kNoInterface;    ///< Out-IE tunnel
    std::size_t vif_direct_ = stack::IpStack::kNoInterface;  ///< Out-DE tunnel

    bool at_home_ = true;
    bool registered_ = false;
    bool home_local_added_ = false;
    bool fa_mode_ = false;          ///< attached via a foreign agent
    bool fa_waiting_advert_ = false;
    net::Ipv4Address fa_addr_;      ///< the serving agent's address
    net::Ipv4Address reg_dst_;      ///< where registration requests go (HA or FA)
    RegistrationCallback fa_done_;  ///< pending callback while soliciting
    net::Ipv4Address care_of_;
    sim::EventId registration_timer_ = 0;
    bool registration_timer_armed_ = false;
    sim::EventId rereg_timer_ = 0;
    bool rereg_timer_armed_ = false;
    sim::TimePoint binding_expires_ = 0;
    sim::EventId expiry_timer_ = 0;
    bool expiry_timer_armed_ = false;
    /// Dedup for flagged-retransmission failure signals (dst -> last time).
    std::map<net::Ipv4Address, sim::TimePoint> last_retransmission_signal_;

    Stats stats_;
};

}  // namespace mip::core
