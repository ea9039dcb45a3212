// The foreign agent (paper §2): an agent "placed on the network expressly
// for the purpose of supporting visiting mobile hosts".
//
// A visiting mobile host that registers *through* a foreign agent needs no
// address of its own on the visited network: the agent's address is the
// care-of address. The home agent tunnels to the foreign agent, "which
// decapsulates them and delivers the enclosed packet to the mobile host"
// over the final link-layer hop (the In-DH delivery technique, §5).
//
// The paper's caveat is reproduced too: agents "restrict the freedom of
// the mobile host to choose from the full range of possible optimizations"
// — a mobile host attached via an agent cannot use Out-DT (it has no
// address of its own) and all its traffic funnels through the agent. The
// abl_foreign_agent bench quantifies this.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "core/binding.h"
#include "core/overload.h"
#include "core/registration.h"
#include "stack/host.h"
#include "transport/udp_service.h"
#include "tunnel/encapsulator.h"

namespace mip::core {

struct ForeignAgentConfig {
    tunnel::EncapScheme encap_scheme = tunnel::EncapScheme::IpInIp;
    /// Interval between unsolicited agent advertisements.
    sim::Duration advert_interval = sim::seconds(1);
    /// Lifetime bound offered in advertisements / granted to visitors.
    std::uint16_t max_lifetime_seconds = 600;
    /// RFC 2344-style reverse tunneling: encapsulate visitors' outbound
    /// home-sourced packets back to their home agents, so they survive
    /// egress anti-spoofing at the visited network's boundary.
    bool reverse_tunnel = false;

    /// Overload protection for the registration relay path (ISSUE 9):
    /// same contract as HomeAgentConfig::overload — refreshes from
    /// current visitors outrank first-contact registrations, a bounded
    /// queue sheds, a token bucket admission-limits the new class.
    /// nullopt = the historical synchronous relay.
    std::optional<OverloadConfig> overload;
};

class ForeignAgent : public stack::Host, private stack::RouteResolver {
public:
    ForeignAgent(sim::Simulator& simulator, std::string name, ForeignAgentConfig config = {});

    /// Attach to the segment the agent serves, and (optionally) a default
    /// route toward the rest of the Internet. Starts advertising.
    std::size_t attach_serving(sim::Link& link, net::Ipv4Address addr, net::Prefix subnet,
                               std::optional<net::Ipv4Address> gateway = std::nullopt);

    /// The care-of address the agent offers (its own serving address).
    net::Ipv4Address care_of_address() const;

    struct Visitor {
        net::Ipv4Address home_address;
        net::Ipv4Address home_agent;
        std::uint16_t reply_port = 0;  ///< visitor's registration socket port
        sim::TimePoint expires = 0;
    };
    bool has_visitor(net::Ipv4Address home_address) const;
    std::size_t visitor_count() const noexcept { return visitors_.size(); }

    /// Simulated fail-stop crash: wipes the visitor list and every pending
    /// relayed registration, and goes silent (no adverts, no relaying, no
    /// final-hop delivery) until restart(). Visitors recover by
    /// re-registering when their binding refresh goes unanswered.
    void crash();
    void restart();
    bool crashed() const noexcept { return crashed_; }

    struct Stats {
        std::size_t adverts_sent = 0;
        std::size_t solicitations_answered = 0;
        std::size_t registrations_relayed = 0;
        std::size_t replies_relayed = 0;
        std::size_t packets_delivered_final_hop = 0;  ///< decapsulated, handed to MH
        std::size_t packets_forwarded_for_visitors = 0;
        std::size_t packets_reverse_tunneled = 0;
        std::size_t crashes = 0;
    };
    const Stats& stats() const noexcept { return stats_; }
    const ForeignAgentConfig& config() const noexcept { return config_; }

    /// The overload-protection queue, or nullptr when config.overload is
    /// unset (synchronous relay).
    RegistrationQueue* overload_queue() noexcept { return overload_queue_.get(); }

    ~ForeignAgent() override;

private:
    std::optional<stack::Resolution> resolve(const stack::FlowKey& flow) override;
    void send_advertisement(bool solicited);
    void on_registration_frame(std::span<const std::uint8_t> data,
                               transport::Endpoint from, net::Ipv4Address local_dst);
    /// The actual relay work for an inbound registration request (record
    /// the pending visitor, forward verbatim to the home agent).
    void relay_request(const RegistrationRequest& req, std::uint16_t reply_port,
                       std::vector<std::uint8_t> raw);
    void on_tunneled(const net::Packet& outer);
    bool intercept_forward(const net::Packet& packet, std::size_t in_interface);
    /// Final-hop delivery: the inner packet goes out in one link-layer
    /// frame addressed to the visitor's MAC (In-DH).
    void deliver_to_visitor(const net::Packet& inner, const Visitor& visitor);

    ForeignAgentConfig config_;
    std::unique_ptr<tunnel::Encapsulator> encap_;
    std::unique_ptr<transport::UdpService> udp_;
    std::unique_ptr<transport::UdpSocket> reg_socket_;
    std::unique_ptr<RegistrationQueue> overload_queue_;  ///< null = synchronous
    std::size_t serving_interface_ = stack::IpStack::kNoInterface;
    std::map<net::Ipv4Address, Visitor> visitors_;  ///< keyed by home address
    /// Registrations in flight: home address -> requesting visitor.
    std::map<net::Ipv4Address, Visitor> pending_;
    bool crashed_ = false;
    Stats stats_;
};

}  // namespace mip::core
