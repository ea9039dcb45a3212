#include "core/foreign_agent.h"

#include "net/protocol.h"

namespace mip::core {

ForeignAgent::ForeignAgent(sim::Simulator& simulator, std::string name,
                           ForeignAgentConfig config)
    : stack::Host(simulator, std::move(name)),
      config_(config),
      encap_(tunnel::make_encapsulator(config.encap_scheme)) {
    if (config_.overload) {
        overload_queue_ =
            std::make_unique<RegistrationQueue>(simulator, *config_.overload);
    }
    stack().set_forwarding(true);  // the agent routes for its visitors
    udp_ = std::make_unique<transport::UdpService>(stack());
    reg_socket_ = udp_->open(net::ports::kMobileIpRegistration);
    reg_socket_->set_receiver([this](std::span<const std::uint8_t> data,
                                     const transport::RxMeta& meta) {
        on_registration_frame(data, meta.peer, meta.local_addr);
    });

    // The home agent tunnels captured packets to us for final-hop delivery.
    stack().register_protocol(encap_->protocol(), [this](const net::Packet& p, std::size_t) {
        on_tunneled(p);
    });

    // Answer solicitations from newly arrived mobile hosts.
    stack().add_icmp_observer([this](const net::IcmpMessage& msg, const net::Packet&) {
        if (msg.type == net::IcmpType::AgentSolicitation &&
            serving_interface_ != stack::IpStack::kNoInterface) {
            ++stats_.solicitations_answered;
            send_advertisement(/*solicited=*/true);
        }
    });

    stack().set_forward_interceptor(
        [this](const net::Packet& p, std::size_t in_iface) {
            return intercept_forward(p, in_iface);
        });

    stack().set_policy_resolver(this);
}

ForeignAgent::~ForeignAgent() {
    stack().set_policy_resolver(nullptr);
}

std::size_t ForeignAgent::attach_serving(sim::Link& link, net::Ipv4Address addr,
                                         net::Prefix subnet,
                                         std::optional<net::Ipv4Address> gateway) {
    serving_interface_ = attach(link, addr, subnet, gateway);
    // Unsolicited advertisement beacon: a self-rescheduling event.
    struct Beacon {
        ForeignAgent* fa;
        void operator()() const {
            fa->send_advertisement(/*solicited=*/false);
            fa->simulator().schedule_in(fa->config_.advert_interval, Beacon{fa},
                                        "agent-beacon");
        }
    };
    simulator().schedule_in(config_.advert_interval, Beacon{this}, "agent-beacon");
    return serving_interface_;
}

net::Ipv4Address ForeignAgent::care_of_address() const {
    if (serving_interface_ == stack::IpStack::kNoInterface) return {};
    return stack().iface(serving_interface_).address();
}

bool ForeignAgent::has_visitor(net::Ipv4Address home_address) const {
    auto it = visitors_.find(home_address);
    return it != visitors_.end() && it->second.expires > simulator().now();
}

void ForeignAgent::crash() {
    crashed_ = true;
    ++stats_.crashes;
    visitors_.clear();
    pending_.clear();
    if (overload_queue_) overload_queue_->clear();
}

void ForeignAgent::restart() {
    crashed_ = false;
}

void ForeignAgent::send_advertisement(bool solicited) {
    (void)solicited;
    if (crashed_) return;  // the beacon keeps ticking, silently
    ++stats_.adverts_sent;
    const net::Ipv4Address self = care_of_address();
    const auto msg =
        net::IcmpMessage::agent_advertisement(self, self, config_.max_lifetime_seconds);
    net::BufferWriter w;
    msg.serialize(w);
    net::Packet packet = net::make_packet(self, net::Ipv4Address(0xffffffffu),
                                          net::IpProto::Icmp, w.take(), /*ttl=*/1);
    stack().send_direct(std::move(packet), serving_interface_);
}

std::optional<stack::Resolution> ForeignAgent::resolve(const stack::FlowKey& flow) {
    // Traffic addressed to a current (or registering) visitor's home
    // address is delivered in one link-layer hop on the serving segment.
    if (visitors_.contains(flow.dst) || pending_.contains(flow.dst)) {
        return stack::Resolution::via_interface(serving_interface_, flow.dst);
    }
    return std::nullopt;
}

void ForeignAgent::on_registration_frame(std::span<const std::uint8_t> data,
                                         transport::Endpoint from,
                                         net::Ipv4Address local_dst) {
    (void)local_dst;
    if (crashed_ || data.empty()) return;
    net::BufferReader peek(data);
    const auto type = static_cast<RegistrationMessageType>(data[0]);

    if (type == RegistrationMessageType::Request) {
        RegistrationRequest req;
        try {
            req = RegistrationRequest::parse(peek);
        } catch (const net::ParseError&) {
            return;
        }
        // Only relay requests from hosts on our segment that name us as the
        // care-of address.
        if (req.care_of_address != care_of_address()) return;
        std::vector<std::uint8_t> raw(data.begin(), data.end());
        if (!overload_queue_) {
            relay_request(req, from.port, std::move(raw));
            return;
        }
        // A refresh (or deregistration) from a current visitor is a
        // Renewal; a first contact is New and bears the overload.
        const bool renewal =
            req.is_deregistration() || has_visitor(req.home_address) ||
            pending_.contains(req.home_address);
        const std::uint16_t reply_port = from.port;
        overload_queue_->submit(
            renewal ? RequestClass::Renewal : RequestClass::New,
            req.home_address.to_string(),
            [this, req, reply_port, raw = std::move(raw)]() mutable {
                if (crashed_) return;
                relay_request(req, reply_port, std::move(raw));
            });
        return;
    }

    if (type == RegistrationMessageType::Reply) {
        // Replies ride the home agent's acceptance straight through: the
        // expensive admission decision already happened on the request
        // path, and delaying the reply would only widen the visitor's
        // retry window.
        RegistrationReply reply;
        try {
            reply = RegistrationReply::parse(peek);
        } catch (const net::ParseError&) {
            return;
        }
        auto it = pending_.find(reply.home_address);
        if (it == pending_.end()) return;
        Visitor v = it->second;
        if (reply.accepted() && reply.lifetime > 0) {
            v.expires = simulator().now() + sim::seconds(reply.lifetime);
            visitors_[v.home_address] = v;
        }
        pending_.erase(it);
        ++stats_.replies_relayed;
        // Relay the reply to the visitor over the serving link (the policy
        // resolver routes the visitor's home address on-link).
        reg_socket_->send_to(v.home_address, v.reply_port,
                             std::vector<std::uint8_t>(data.begin(), data.end()));
    }
}

void ForeignAgent::relay_request(const RegistrationRequest& req,
                                 std::uint16_t reply_port,
                                 std::vector<std::uint8_t> raw) {
    Visitor v;
    v.home_address = req.home_address;
    v.home_agent = req.home_agent;
    v.reply_port = reply_port;
    pending_[req.home_address] = v;
    ++stats_.registrations_relayed;
    // Relay the request (verbatim) to the home agent from our address.
    reg_socket_->send_to(req.home_agent, net::ports::kMobileIpRegistration,
                         std::move(raw));
}

void ForeignAgent::on_tunneled(const net::Packet& outer) {
    if (crashed_) return;
    net::Packet inner;
    try {
        inner = encap_->decapsulate(outer);
    } catch (const net::ParseError&) {
        return;
    }
    auto it = visitors_.find(inner.header().dst);
    if (it == visitors_.end() || it->second.expires <= simulator().now()) {
        return;  // not (or no longer) one of our visitors
    }
    stack().trace_packet(
        sim::TraceKind::Decapsulated, inner,
        sim::TraceDetail::with_text(sim::TraceDetailKind::DecapForVisitor,
                                    encap_->name(), inner.header().dst.value()));
    deliver_to_visitor(inner, it->second);
}

void ForeignAgent::deliver_to_visitor(const net::Packet& inner, const Visitor& visitor) {
    ++stats_.packets_delivered_final_hop;
    // In-DH over the final hop: the IP packet is addressed to the home
    // address, but the frame goes straight to the visitor on this segment.
    stack().send_direct(inner, serving_interface_, visitor.home_address);
}

bool ForeignAgent::intercept_forward(const net::Packet& packet, std::size_t in_interface) {
    if (crashed_ || in_interface != serving_interface_) return false;
    auto it = visitors_.find(packet.header().src);
    if (it == visitors_.end() || it->second.expires <= simulator().now()) {
        return false;
    }
    ++stats_.packets_forwarded_for_visitors;
    if (config_.reverse_tunnel) {
        // RFC 2344-style: wrap the visitor's packet so the visited
        // network's egress filters see our (topologically valid) address.
        ++stats_.packets_reverse_tunneled;
        net::Packet outer =
            encap_->encapsulate(packet, care_of_address(), it->second.home_agent);
        stack().trace_packet(
            sim::TraceKind::Encapsulated, outer,
            sim::TraceDetail::with_text(sim::TraceDetailKind::EncapReverseTo,
                                        encap_->name(),
                                        it->second.home_agent.value()));
        stack().send(std::move(outer));
        return true;
    }
    return false;  // plain forwarding via the normal route table
}

}  // namespace mip::core
