// The home agent (paper §2): a host on the mobile host's home network that
// acts as its proxy while it is away.
//
//  * Accepts registrations (UDP 434) and maintains the binding table.
//  * Uses gratuitous proxy ARP to capture packets addressed to absent
//    mobile hosts on the home segment.
//  * Tunnels captured packets to the registered care-of address (In-IE).
//  * Decapsulates reverse-tunneled packets from mobile hosts and re-sends
//    the inner packet on their behalf (Out-IE, Figure 3).
//  * Optionally notifies correspondents of the care-of address with an
//    ICMP care-of advert, enabling route optimization (Figure 5).
#pragma once

#include <memory>
#include <optional>
#include <set>

#include "core/binding.h"
#include "core/overload.h"
#include "core/registration.h"
#include "stack/host.h"
#include "transport/udp_service.h"
#include "tunnel/encapsulator.h"

namespace mip::core {

struct HomeAgentConfig {
    tunnel::EncapScheme encap_scheme = tunnel::EncapScheme::IpInIp;
    /// Send ICMP care-of adverts to correspondents whose packets we tunnel
    /// (the paper's first route-optimization discovery mechanism, §3.2).
    bool send_care_of_adverts = false;
    /// Minimum interval between adverts to the same correspondent.
    sim::Duration advert_interval = sim::seconds(10);
    /// Cap on granted binding lifetimes.
    std::uint16_t max_lifetime_seconds = 600;

    /// Shared registration key (RFC 2002's mobility security association,
    /// simplified). 0 is a valid key; mobile hosts must be configured with
    /// the same value or their registrations are denied.
    std::uint64_t registration_key = 0;

    /// Multicast groups the agent joins on the home network and relays,
    /// tunneled, to every registered mobile host — the "virtual interface"
    /// subscription of §6.4, implemented so its self-defeating cost can be
    /// measured against joining on the visited network directly.
    std::set<net::Ipv4Address> multicast_relay_groups;

    /// Overload protection for the registration path (ISSUE 9). nullopt =
    /// the historical synchronous path: every request is processed inline
    /// on arrival, unbounded — existing scenarios are byte-identical.
    /// When set, requests flow through a RegistrationQueue: renewals of
    /// live bindings outrank new registrations, the queue sheds when
    /// full, and an optional token bucket admission-limits the new class.
    std::optional<OverloadConfig> overload;
};

class HomeAgent : public stack::Host {
public:
    HomeAgent(sim::Simulator& simulator, std::string name, HomeAgentConfig config = {});

    /// Attach to the home segment (must be called before registrations
    /// arrive). Thin wrapper over Host::attach that remembers the home
    /// interface for proxy-ARP purposes.
    std::size_t attach_home(sim::Link& link, net::Ipv4Address addr, net::Prefix subnet,
                            std::optional<net::Ipv4Address> gateway = std::nullopt);

    const BindingTable& bindings() const noexcept { return bindings_; }
    bool is_registered(net::Ipv4Address home_addr) const;

    /// Simulated fail-stop crash: wipes all volatile state — binding
    /// table, the proxy-ARP captures backing it, the advert rate-limit
    /// map — and ignores all traffic until restart(). Mobile hosts
    /// recover by re-registering (proactive refresh + backoff retry).
    void crash();
    void restart();
    bool crashed() const noexcept { return crashed_; }

    /// Warm-restart helper: installs a binding directly (as if a valid
    /// registration for @p lifetime_seconds had just been accepted),
    /// including the proxy-ARP capture and GC arming, without a wire
    /// exchange. Lets tests and recovery tooling rebuild a table whose
    /// entries share one expiry tick — the mass-expiry shape wire
    /// delivery can't produce (serialization staggers arrivals).
    void restore_binding(net::Ipv4Address home, net::Ipv4Address care_of,
                         std::uint16_t lifetime_seconds);

    /// The overload-protection queue, or nullptr when config.overload is
    /// unset (synchronous processing).
    RegistrationQueue* overload_queue() noexcept { return overload_queue_.get(); }

    struct Stats {
        std::size_t registrations_accepted = 0;
        std::size_t registrations_renewed = 0;  ///< accepted refreshes of live bindings
        std::size_t registrations_denied_auth = 0;
        std::size_t deregistrations = 0;
        std::size_t packets_tunneled = 0;      ///< captured & forwarded to COA
        std::size_t packets_reverse_forwarded = 0;  ///< decapsulated & re-sent for MH
        std::size_t adverts_sent = 0;
        std::size_t multicast_relayed = 0;  ///< group packets re-tunneled to MHs
        std::size_t crashes = 0;
        std::size_t bindings_expired = 0;  ///< GC'd after their lifetime lapsed
        std::size_t gc_rearms = 0;  ///< GC timer (re)schedules — O(1) per mass expiry
    };
    const Stats& stats() const noexcept { return stats_; }

    const HomeAgentConfig& config() const noexcept { return config_; }
    transport::UdpService& udp() noexcept { return *udp_; }

private:
    void on_registration(std::span<const std::uint8_t> data, transport::Endpoint from);
    /// The actual registration service work (authenticate, mutate the
    /// binding table, reply). Runs inline on arrival without overload
    /// protection; dequeued after the queueing delay with it.
    void process_registration(const RegistrationRequest& req,
                              std::span<const std::uint8_t> data,
                              transport::Endpoint from);
    bool intercept_forward(const net::Packet& packet, std::size_t in_interface);
    void on_encapsulated(const net::Packet& packet);
    void maybe_send_advert(net::Ipv4Address correspondent, const Binding& binding);
    /// (Re)arms the binding GC timer at the table's earliest expiry. Only
    /// cancels the pending timer when a strictly earlier expiry appears, so
    /// the simulator's queued tombstones stay few.
    void arm_binding_gc();
    void expire_bindings();

    HomeAgentConfig config_;
    std::unique_ptr<tunnel::Encapsulator> encap_;
    std::unique_ptr<transport::UdpService> udp_;
    std::unique_ptr<transport::UdpSocket> reg_socket_;
    std::unique_ptr<RegistrationQueue> overload_queue_;  ///< null = synchronous
    BindingTable bindings_;
    std::size_t home_interface_ = stack::IpStack::kNoInterface;
    std::map<net::Ipv4Address, sim::TimePoint> last_advert_;
    bool crashed_ = false;
    sim::EventId gc_timer_ = 0;
    bool gc_armed_ = false;
    sim::TimePoint gc_at_ = 0;
    Stats stats_;
};

}  // namespace mip::core
