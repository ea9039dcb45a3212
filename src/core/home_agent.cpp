#include "core/home_agent.h"

#include "net/icmp.h"
#include "net/protocol.h"

namespace mip::core {

HomeAgent::HomeAgent(sim::Simulator& simulator, std::string name, HomeAgentConfig config)
    : stack::Host(simulator, std::move(name)),
      config_(config),
      encap_(tunnel::make_encapsulator(config.encap_scheme)) {
    if (config_.overload) {
        overload_queue_ =
            std::make_unique<RegistrationQueue>(simulator, *config_.overload);
    }
    udp_ = std::make_unique<transport::UdpService>(stack());
    reg_socket_ = udp_->open(net::ports::kMobileIpRegistration);
    reg_socket_->set_receiver([this](std::span<const std::uint8_t> data,
                                     const transport::RxMeta& meta) {
        on_registration(data, meta.peer);
    });

    // Captured packets (proxy-ARP'd to us but addressed to a mobile host)
    // arrive on the forwarding path.
    stack().set_forward_interceptor(
        [this](const net::Packet& p, std::size_t in_iface) {
            return intercept_forward(p, in_iface);
        });

    // Reverse tunnel: decapsulate packets mobile hosts send us (Out-IE).
    stack().register_protocol(encap_->protocol(), [this](const net::Packet& p, std::size_t) {
        on_encapsulated(p);
    });
}

std::size_t HomeAgent::attach_home(sim::Link& link, net::Ipv4Address addr,
                                   net::Prefix subnet,
                                   std::optional<net::Ipv4Address> gateway) {
    home_interface_ = attach(link, addr, subnet, gateway);

    // §6.4 relay: join the configured groups on the home segment and
    // re-tunnel everything heard to each registered mobile host.
    if (!config_.multicast_relay_groups.empty()) {
        for (const auto group : config_.multicast_relay_groups) {
            stack().join_group(group);
        }
        stack().set_multicast_observer([this](const net::Packet& packet) {
            bindings_.expire(simulator().now());
            const net::Ipv4Address our_addr = stack().iface(home_interface_).address();
            for (const auto& binding : bindings_.snapshot()) {
                ++stats_.multicast_relayed;
                net::Packet outer =
                    encap_->encapsulate(packet, our_addr, binding.care_of_address);
                stack().trace_packet(
                    sim::TraceKind::Encapsulated, outer,
                    sim::TraceDetail::with_text(sim::TraceDetailKind::EncapRelayTo,
                                                encap_->name(),
                                                binding.care_of_address.value()));
                stack().send(std::move(outer));
            }
        });
    }
    return home_interface_;
}

bool HomeAgent::is_registered(net::Ipv4Address home_addr) const {
    return bindings_.lookup(home_addr, simulator().now()).has_value();
}

void HomeAgent::crash() {
    crashed_ = true;
    ++stats_.crashes;
    arp::ArpEngine* arp = home_interface_ != stack::IpStack::kNoInterface
                              ? stack().iface(home_interface_).arp()
                              : nullptr;
    for (const auto& binding : bindings_.snapshot()) {
        if (arp != nullptr) arp->remove_proxy(binding.home_address);
    }
    bindings_.clear();
    last_advert_.clear();
    if (overload_queue_) overload_queue_->clear();
    if (gc_armed_) {
        simulator().cancel(gc_timer_);
        gc_armed_ = false;
    }
}

void HomeAgent::restore_binding(net::Ipv4Address home, net::Ipv4Address care_of,
                                std::uint16_t lifetime_seconds) {
    bindings_.set(home, care_of, simulator().now() + sim::seconds(lifetime_seconds));
    if (home_interface_ != stack::IpStack::kNoInterface) {
        if (arp::ArpEngine* arp = stack().iface(home_interface_).arp()) {
            arp->add_proxy(home);
        }
    }
    arm_binding_gc();
}

void HomeAgent::restart() {
    crashed_ = false;
}

void HomeAgent::arm_binding_gc() {
    const auto next = bindings_.earliest_expiry();
    if (!next) return;
    if (gc_armed_ && gc_at_ <= *next) return;
    if (gc_armed_) simulator().cancel(gc_timer_);
    gc_at_ = *next;
    gc_armed_ = true;
    ++stats_.gc_rearms;
    gc_timer_ = simulator().schedule_at(*next, [this] {
        gc_armed_ = false;
        expire_bindings();
        arm_binding_gc();
    },
    "mip-binding-gc");
}

void HomeAgent::expire_bindings() {
    const sim::TimePoint now = simulator().now();
    arp::ArpEngine* arp = home_interface_ != stack::IpStack::kNoInterface
                              ? stack().iface(home_interface_).arp()
                              : nullptr;
    // Stop answering ARP for hosts whose registration lapsed — a mobile
    // host that went silent must become reachable again the moment it
    // walks back in the door unregistered. One pass over the table does
    // both the erase and the proxy teardown (ISSUE 9: a city-scale mass
    // expiry used to snapshot + sort the whole table first).
    stats_.bindings_expired += bindings_.expire(now, [arp](const Binding& b) {
        if (arp != nullptr) arp->remove_proxy(b.home_address);
    });
}

void HomeAgent::on_registration(std::span<const std::uint8_t> data,
                                transport::Endpoint from) {
    if (crashed_) return;
    RegistrationRequest req;
    try {
        net::BufferReader r(data);
        req = RegistrationRequest::parse(r);
    } catch (const net::ParseError&) {
        return;
    }
    if (!overload_queue_) {
        // Historical synchronous path: serve inline, unbounded.
        process_registration(req, data, from);
        return;
    }
    // Classify before admission: a request touching a live binding (a
    // refresh or an explicit deregistration) is a Renewal — shedding it
    // breaks a host that is currently working — while a first contact is
    // New and bears the brunt of overload. Classification is a cheap
    // table lookup; the expensive work (authentication, table mutation,
    // the reply send) is deferred into the queue as the serviced work.
    const bool renewal =
        req.is_deregistration() ||
        bindings_.lookup(req.home_address, simulator().now()).has_value();
    std::vector<std::uint8_t> raw(data.begin(), data.end());
    overload_queue_->submit(
        renewal ? RequestClass::Renewal : RequestClass::New,
        req.home_address.to_string(),
        [this, req, raw = std::move(raw), from] {
            // The agent may have crashed between admission and service.
            if (crashed_) return;
            process_registration(req, raw, from);
        });
}

void HomeAgent::process_registration(const RegistrationRequest& req,
                                     std::span<const std::uint8_t> data,
                                     transport::Endpoint from) {
    const bool authentic =
        RegistrationRequest::authenticate(data, config_.registration_key);

    RegistrationReply reply;
    reply.home_address = req.home_address;
    reply.home_agent = stack().iface(home_interface_).address();
    reply.id = req.id;

    arp::ArpEngine* arp = stack().iface(home_interface_).arp();

    if (!authentic) {
        ++stats_.registrations_denied_auth;
        reply.code = RegistrationCode::DeniedBadAuthenticator;
    } else if (home_interface_ == stack::IpStack::kNoInterface ||
               !stack().iface(home_interface_).subnet().contains(req.home_address)) {
        reply.code = RegistrationCode::DeniedBadRequest;
    } else if (req.is_deregistration()) {
        bindings_.remove(req.home_address);
        if (arp != nullptr) {
            arp->remove_proxy(req.home_address);
        }
        ++stats_.deregistrations;
        reply.code = RegistrationCode::Accepted;
        reply.lifetime = 0;
    } else {
        const std::uint16_t granted = std::min(req.lifetime, config_.max_lifetime_seconds);
        if (bindings_.lookup(req.home_address, simulator().now())) {
            ++stats_.registrations_renewed;
        }
        bindings_.set(req.home_address, req.care_of_address,
                      simulator().now() + sim::seconds(granted));
        if (arp != nullptr) {
            arp->add_proxy(req.home_address);
            // Gratuitous ARP so hosts on the home segment immediately remap
            // the mobile host's address to us (RFC 1027 style capture).
            arp->announce(req.home_address);
        }
        ++stats_.registrations_accepted;
        reply.code = RegistrationCode::Accepted;
        reply.lifetime = granted;
        arm_binding_gc();
    }

    net::BufferWriter w;
    reply.serialize(w, config_.registration_key);
    reg_socket_->send_to(from.addr, from.port, w.take());
}

bool HomeAgent::intercept_forward(const net::Packet& packet, std::size_t) {
    if (crashed_) return false;
    const auto binding = bindings_.lookup(packet.header().dst, simulator().now());
    if (!binding) {
        return false;  // not one of our mobile hosts: normal handling
    }
    // In-IE second half: encapsulate and send to the care-of address.
    const net::Ipv4Address our_addr = stack().iface(home_interface_).address();
    net::Packet outer =
        encap_->encapsulate(packet, our_addr, binding->care_of_address);
    ++stats_.packets_tunneled;
    stack().trace_packet(
        sim::TraceKind::Encapsulated, outer,
        sim::TraceDetail::with_text(sim::TraceDetailKind::EncapTo, encap_->name(),
                                    binding->care_of_address.value()));
    stack().send(std::move(outer));

    if (config_.send_care_of_adverts) {
        maybe_send_advert(packet.header().src, *binding);
    }
    return true;
}

void HomeAgent::maybe_send_advert(net::Ipv4Address correspondent, const Binding& binding) {
    // Never advertise to another of our own mobile hosts' home addresses or
    // to ourselves; rate-limit per correspondent.
    if (correspondent.is_unspecified()) return;
    auto it = last_advert_.find(correspondent);
    if (it != last_advert_.end() &&
        simulator().now() - it->second < config_.advert_interval) {
        return;
    }
    last_advert_[correspondent] = simulator().now();
    ++stats_.adverts_sent;
    stack().send_icmp(correspondent, net::IcmpMessage::care_of_advert(
                                         binding.home_address, binding.care_of_address));
}

void HomeAgent::on_encapsulated(const net::Packet& packet) {
    if (crashed_) return;
    net::Packet inner;
    try {
        inner = encap_->decapsulate(packet);
    } catch (const net::ParseError&) {
        return;
    }
    // Only relay for mobile hosts that are actually registered, and only
    // when the outer source matches their registered care-of address —
    // otherwise the reverse tunnel would be an open relay for spoofing.
    const auto binding = bindings_.lookup(inner.header().src, simulator().now());
    if (!binding || binding->care_of_address != packet.header().src) {
        return;
    }
    ++stats_.packets_reverse_forwarded;
    stack().trace_packet(
        sim::TraceKind::Decapsulated, inner,
        sim::TraceDetail::with_text(sim::TraceDetailKind::DecapReverseTunnel,
                                    encap_->name()));
    stack().send(std::move(inner));
}

}  // namespace mip::core
