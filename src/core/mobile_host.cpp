#include "core/mobile_host.h"

#include <algorithm>

#include "net/protocol.h"

namespace mip::core {

MobileHost::MobileHost(sim::Simulator& simulator, std::string name, MobileHostConfig config)
    : stack::Host(simulator, std::move(name)),
      config_(std::move(config)),
      // Seeded from the home address, so a fleet built from one config
      // template still de-correlates host by host.
      client_({.base = config_.registration_retry,
               .cap = config_.registration_backoff_cap,
               .max_retries = config_.registration_max_retries,
               .retry_budget = config_.registration_retry_budget,
               .circuit_probe = config_.registration_circuit_probe},
              mix64(0x6d68726567726574ull ^ config_.home_address.value())),
      encap_(tunnel::make_encapsulator(config_.encap_scheme)),
      method_cache_(config_.strategy ? std::move(config_.strategy)
                                     : std::make_unique<AggressiveFirstStrategy>(),
                    config_.cache) {
    // The two encapsulating virtual interfaces (paper §7): one tunnels via
    // the home agent (Out-IE), the other straight to the correspondent
    // (Out-DE).
    vif_home_ = stack().add_virtual_interface("tun-home", [this](net::Packet inner) {
        ++stats_.out_ie;
        send_tunneled(std::move(inner), config_.home_agent);
    });
    vif_direct_ = stack().add_virtual_interface("tun-direct", [this](net::Packet inner) {
        ++stats_.out_de;
        const net::Ipv4Address dst = inner.header().dst;
        send_tunneled(std::move(inner), dst);
    });

    // Decapsulation for every scheme (the home agent or a smart
    // correspondent may tunnel to us with any of them).
    for (auto scheme : {tunnel::EncapScheme::IpInIp, tunnel::EncapScheme::Minimal,
                        tunnel::EncapScheme::Gre}) {
        decapsulators_.push_back(tunnel::make_encapsulator(scheme));
        const tunnel::Encapsulator& decap = *decapsulators_.back();
        stack().register_protocol(decap.protocol(),
                                  [this, &decap](const net::Packet& p, std::size_t) {
                                      on_decap_packet(p, decap);
                                  });
    }

    udp_ = std::make_unique<transport::UdpService>(stack());
    tcp_ = std::make_unique<transport::TcpService>(stack(), config_.tcp);

    // §7.1.2 delivery-failure signals. Outbound retransmissions reach the
    // policy through the per-packet FlowKey::retransmission flag (see
    // resolve()); the observer covers the *inbound* half: "repeated
    // retransmissions from a particular address ... suggests that
    // acknowledgements are not getting through".
    tcp_->set_retransmit_observer([this](const transport::TcpEndpoints& ep, bool inbound) {
        if (inbound && ep.local_addr == config_.home_address) {
            ++stats_.failure_signals;
            method_cache_.report_failure(ep.remote_addr, this->simulator().now(),
                                         "tcp-inbound-retransmission");
        }
    });
    tcp_->set_progress_observer([this](const transport::TcpEndpoints& ep) {
        if (ep.local_addr == config_.home_address) {
            ++stats_.success_signals;
            method_cache_.report_success(ep.remote_addr, this->simulator().now());
        }
    });

    reg_socket_ = udp_->open(net::ports::kMobileIpRegistration);

    // §7.1.2 accelerated failure detection: when a router answers a
    // filtered packet with ICMP "administratively prohibited", treat it as
    // an immediate delivery-failure signal for that correspondent instead
    // of waiting out retransmission timeouts.
    stack().add_icmp_observer([this](const net::IcmpMessage& msg, const net::Packet&) {
        if (msg.type != net::IcmpType::DestinationUnreachable ||
            msg.code != static_cast<std::uint8_t>(
                            net::IcmpUnreachableCode::CommunicationAdministrativelyProhibited)) {
            return;
        }
        try {
            net::BufferReader r(msg.body);
            const net::Ipv4Header original = net::Ipv4Header::parse(r);
            if (original.src == config_.home_address) {
                ++stats_.failure_signals;
                ++stats_.icmp_feedback_signals;
                method_cache_.report_failure(original.dst, this->simulator().now(),
                                             "icmp-admin-prohibited");
            }
        } catch (const net::ParseError&) {
        }
    });

    // Agent discovery: while soliciting, the first advertisement heard
    // triggers registration through that agent.
    stack().add_icmp_observer([this](const net::IcmpMessage& msg, const net::Packet&) {
        if (msg.type != net::IcmpType::AgentAdvertisement || !fa_waiting_advert_) return;
        try {
            fa_addr_ = msg.agent_address();
            care_of_ = msg.agent_care_of();
        } catch (const net::ParseError&) {
            return;
        }
        fa_waiting_advert_ = false;
        reg_dst_ = fa_addr_;
        reg_socket_->bind_address(config_.home_address);
        start_registration(std::min<std::uint16_t>(config_.registration_lifetime,
                                                   msg.agent_lifetime()),
                           std::move(fa_done_));
        fa_done_ = {};
    });

    stack().set_policy_resolver(this);
}

MobileHost::~MobileHost() {
    stack().set_policy_resolver(nullptr);
}

void MobileHost::send_tunneled(net::Packet inner, net::Ipv4Address outer_dst) {
    net::Packet outer = encap_->encapsulate(inner, care_of_, outer_dst);
    stack().trace_packet(
        sim::TraceKind::Encapsulated, outer,
        sim::TraceDetail::with_text(sim::TraceDetailKind::EncapTo, encap_->name(),
                                    outer_dst.value()));
    stack().send(std::move(outer));
}

void MobileHost::on_decap_packet(const net::Packet& outer, const tunnel::Encapsulator& decap) {
    net::Packet inner;
    try {
        inner = decap.decapsulate(outer);
    } catch (const net::ParseError&) {
        return;
    }
    stack().trace_packet(sim::TraceKind::Decapsulated, inner,
                         sim::TraceDetail::txt(decap.name()));
    // Resubmit to IP, as the paper's virtual interface does on receive.
    stack().deliver_local(inner, stack::IpStack::kNoInterface);
}

// ---- mobility ---------------------------------------------------------------

void MobileHost::cancel_registration_timers() {
    if (registration_timer_armed_) {
        simulator().cancel(registration_timer_);
        registration_timer_armed_ = false;
    }
    if (rereg_timer_armed_) {
        simulator().cancel(rereg_timer_);
        rereg_timer_armed_ = false;
    }
    if (expiry_timer_armed_) {
        simulator().cancel(expiry_timer_);
        expiry_timer_armed_ = false;
    }
    client_.reset();
}

stack::Interface& MobileHost::plug_into(sim::Link& link) {
    if (physical_interface_ == stack::IpStack::kNoInterface) {
        physical_interface_ = stack().add_interface(add_nic());
    }
    stack::Interface& ifc = stack().iface(physical_interface_);
    stack().deconfigure(physical_interface_);
    if (ifc.nic() != nullptr) {
        ifc.nic()->disconnect();
        ifc.nic()->connect(link);
    }
    return ifc;
}

void MobileHost::attach_home(sim::Link& link, std::optional<net::Ipv4Address> gateway) {
    cancel_registration_timers();

    const bool was_registered = registered_;
    const net::Ipv4Address old_care_of = care_of_;

    stack::Interface& ifc = plug_into(link);
    stack().configure(physical_interface_, config_.home_address, config_.home_subnet);
    if (gateway) {
        stack().add_default_route(*gateway, physical_interface_);
    }
    if (home_local_added_) {
        stack().remove_local_address(config_.home_address);
        home_local_added_ = false;
    }
    at_home_ = true;
    registered_ = false;
    fa_mode_ = false;
    fa_waiting_advert_ = false;
    fa_done_ = {};
    care_of_ = net::Ipv4Address{};

    // Reclaim the home address from the home agent's proxy ARP.
    if (ifc.arp() != nullptr) {
        ifc.arp()->announce(config_.home_address);
    }
    if (was_registered) {
        // Deregister: lifetime 0, from the home address (we're home now).
        RegistrationRequest req;
        req.lifetime = 0;
        req.home_address = config_.home_address;
        req.home_agent = config_.home_agent;
        req.care_of_address = old_care_of;
        req.id = client_.take_id();
        net::BufferWriter w;
        req.serialize(w, config_.registration_key);
        reg_socket_->bind_address(config_.home_address);
        ++stats_.registrations_sent;
        reg_socket_->send_to(config_.home_agent, net::ports::kMobileIpRegistration, w.take());
    }
    tcp_->notify_route_change();
}

void MobileHost::attach_foreign(sim::Link& link, net::Ipv4Address care_of, net::Prefix subnet,
                                std::optional<net::Ipv4Address> gateway,
                                RegistrationCallback done) {
    cancel_registration_timers();

    plug_into(link);
    stack().configure(physical_interface_, care_of, subnet);
    if (gateway) {
        stack().add_default_route(*gateway, physical_interface_);
    }

    at_home_ = false;
    registered_ = false;
    fa_mode_ = false;
    fa_waiting_advert_ = false;
    care_of_ = care_of;
    // The home address stays "ours": decapsulated inner packets and In-DH
    // link-layer deliveries are addressed to it.
    if (!home_local_added_) {
        stack().add_local_address(config_.home_address);
        home_local_added_ = true;
    }

    // Registration itself uses the care-of address — "it has no choice"
    // (paper §6.4).
    reg_dst_ = config_.home_agent;
    reg_socket_->bind_address(care_of_);
    start_registration(config_.registration_lifetime, std::move(done));
    tcp_->notify_route_change();
}

void MobileHost::attach_via_foreign_agent(sim::Link& link, RegistrationCallback done) {
    cancel_registration_timers();

    stack::Interface& ifc = plug_into(link);
    // No address of our own: we only answer ARP for the home address so
    // the agent (and Row C correspondents) can reach us on this segment.
    if (ifc.arp() != nullptr) {
        ifc.arp()->set_local_address(config_.home_address);
        ifc.arp()->flush_cache();
    }
    if (!home_local_added_) {
        stack().add_local_address(config_.home_address);
        home_local_added_ = true;
    }
    at_home_ = false;
    registered_ = false;
    fa_mode_ = true;
    fa_waiting_advert_ = true;
    fa_addr_ = {};
    care_of_ = {};
    fa_done_ = std::move(done);

    // Ask any agents on the segment to advertise immediately (RFC 1256
    // style solicitation); otherwise we wait for the periodic beacon.
    net::BufferWriter w;
    net::IcmpMessage::agent_solicitation().serialize(w);
    net::Packet solicit = net::make_packet(config_.home_address,
                                           net::Ipv4Address(0xffffffffu),
                                           net::IpProto::Icmp, w.take(), /*ttl=*/1);
    stack().send_direct(std::move(solicit), physical_interface_);
    tcp_->notify_route_change();
}

void MobileHost::detach_current() {
    if (physical_interface_ == stack::IpStack::kNoInterface) return;
    cancel_registration_timers();
    stack::Interface& ifc = stack().iface(physical_interface_);
    stack().deconfigure(physical_interface_);
    if (ifc.nic() != nullptr) {
        ifc.nic()->disconnect();
    }
    registered_ = false;
    care_of_ = net::Ipv4Address{};
    tcp_->notify_route_change();
}

// ---- registration client -----------------------------------------------------

void MobileHost::start_registration(std::uint16_t lifetime, RegistrationCallback done) {
    // A refresh never gives up: the home agent being down is exactly when
    // that would orphan the binding for good.
    const auto kind = done ? RegistrationClient::Exchange::Attach
                           : RegistrationClient::Exchange::Refresh;
    send_registration(lifetime, client_.start(kind), std::move(done));
}

void MobileHost::send_registration(std::uint16_t lifetime,
                                   const RegistrationClient::Decision& send,
                                   RegistrationCallback done) {
    if (send.action == RegistrationClient::Action::GiveUp) {
        done(false);
        return;
    }
    if (send.action != RegistrationClient::Action::Send) return;
    if (send.attempt > 0) ++stats_.registration_backoffs;
    if (send.parked) ++stats_.registration_circuit_probes;

    RegistrationRequest req;
    req.lifetime = lifetime;
    req.home_address = config_.home_address;
    req.home_agent = config_.home_agent;
    req.care_of_address = care_of_;
    req.id = send.id;

    reg_socket_->set_receiver([this, done](std::span<const std::uint8_t> data,
                                           const transport::RxMeta&) {
        RegistrationCallback cb = done;  // copy: the lambda may be replaced below
        on_registration_reply(data, cb);
    });

    net::BufferWriter w;
    req.serialize(w, config_.registration_key);
    ++stats_.registrations_sent;
    const net::Ipv4Address dst = reg_dst_.is_unspecified() ? config_.home_agent : reg_dst_;
    reg_socket_->send_to(dst, net::ports::kMobileIpRegistration, w.take());

    // The retry delay is drawn at send time: the host's seeded streams
    // (and the goldens built on them) depend on that order.
    const RegistrationClient::Decision wait = client_.backoff(send.id);
    if (wait.circuit_opened) ++stats_.registration_circuit_opens;
    registration_timer_ = simulator().schedule_in(
        wait.delay,
        [this, lifetime, id = send.id, done]() mutable {
            registration_timer_armed_ = false;
            if (!at_home_) send_registration(lifetime, client_.retry(id), std::move(done));
        },
        "mip-registration-retry");
    registration_timer_armed_ = true;
}

void MobileHost::on_registration_reply(std::span<const std::uint8_t> data,
                                       RegistrationCallback& done) {
    RegistrationReply reply;
    try {
        net::BufferReader r(data);
        reply = RegistrationReply::parse(r);
    } catch (const net::ParseError&) {
        return;
    }
    if (!RegistrationRequest::authenticate(data, config_.registration_key)) {
        return;  // forged or mis-keyed reply: ignore, keep retrying
    }
    if (reply.home_address != config_.home_address ||
        !client_.reply(reply.id, /*served=*/reply.accepted() && reply.lifetime > 0)) {
        return;
    }
    if (registration_timer_armed_) {
        simulator().cancel(registration_timer_);
        registration_timer_armed_ = false;
    }
    if (!reply.accepted()) {
        if (done) done(false);
        return;
    }
    if (reply.lifetime > 0) {
        registered_ = true;
        arm_binding_expiry(reply.lifetime);
        schedule_reregistration(reply.lifetime);
        if (done) done(true);
    }
}

void MobileHost::arm_binding_expiry(std::uint16_t granted_lifetime) {
    binding_expires_ = simulator().now() + sim::seconds(granted_lifetime);
    if (expiry_timer_armed_) {
        simulator().cancel(expiry_timer_);
    }
    expiry_timer_ = simulator().schedule_at(
        binding_expires_,
        [this] {
            expiry_timer_armed_ = false;
            if (!at_home_ && registered_ && simulator().now() >= binding_expires_) {
                registered_ = false;
                ++stats_.binding_expiries;
            }
        },
        "mip-binding-expiry");
    expiry_timer_armed_ = true;
}

void MobileHost::schedule_reregistration(std::uint16_t granted_lifetime) {
    if (rereg_timer_armed_) {
        simulator().cancel(rereg_timer_);
    }
    // Refresh at 80% of the granted lifetime.
    const sim::Duration refresh = sim::seconds(granted_lifetime) * 8 / 10;
    rereg_timer_ = simulator().schedule_in(
        refresh,
        [this] {
            rereg_timer_armed_ = false;
            if (!at_home_ && physical_interface_ != stack::IpStack::kNoInterface &&
                !care_of_.is_unspecified()) {
                start_registration(config_.registration_lifetime, {});
            }
        },
        "mip-reregistration");
    rereg_timer_armed_ = true;
}

// ---- discovery publication ----------------------------------------------------

void MobileHost::publish_care_of_dns(dns::Resolver& resolver, const std::string& name,
                                     std::uint32_t ttl_seconds) {
    if (at_home_ || !registered_ || care_of_.is_unspecified()) {
        return;
    }
    resolver.send_update(dns::Record{name, dns::RecordType::TA, care_of_, ttl_seconds});
}

void MobileHost::withdraw_care_of_dns(dns::Resolver& resolver, const std::string& name) {
    resolver.send_removal(name, dns::RecordType::TA);
}

// ---- the mobility policy table (RouteResolver) -------------------------------

OutMode MobileHost::mode_for(net::Ipv4Address dst) {
    return method_cache_.mode_for(dst, simulator().now());
}

void MobileHost::force_mode(net::Ipv4Address dst, OutMode mode) {
    method_cache_.force_mode(dst, mode, simulator().now());
}

std::optional<stack::Resolution> MobileHost::resolve(const stack::FlowKey& flow) {
    // At home, a mobile host "functions like a normal non-mobile Internet
    // host" (§2): no policy at all.
    if (at_home_) {
        return std::nullopt;
    }
    // §6.4: multicast bypasses Mobile IP — groups are joined "through the
    // real physical interface on the current local network", so sends go
    // out the local interface untouched.
    if (flow.dst.is_multicast()) {
        return std::nullopt;
    }
    // An explicit bind to anything but the home address — in particular to
    // the care-of address — opts the flow out of Mobile IP (§7.1.1). This
    // also terminates the recursion for packets our own tunnel interfaces
    // emit (their outer source is the care-of address).
    if (!flow.bound_src.is_unspecified() && flow.bound_src != config_.home_address) {
        return std::nullopt;
    }
    const bool explicitly_home = flow.bound_src == config_.home_address;

    // Attached through a foreign agent: we have no address of our own, so
    // everything rides the home address via the agent — exactly the loss
    // of per-flow freedom the paper warns foreign agents impose.
    if (fa_mode_) {
        if (fa_addr_.is_unspecified()) {
            return std::nullopt;  // still soliciting; nothing is routable yet
        }
        return stack::Resolution::via_interface(physical_interface_, fa_addr_,
                                                config_.home_address);
    }

    // Until registration completes no home-address mode can receive replies
    // (the home agent would not know where to tunnel them), so default
    // traffic runs as plain Out-DT — unless the app insisted on home.
    if (!registered_ && !explicitly_home) {
        ++stats_.out_dt;
        return stack::Resolution::table(care_of_);
    }

    // Privacy mode applies to all home-address traffic, explicit bind or
    // not: the correspondent must never see the care-of address.
    if (config_.privacy_mode) {
        return stack::Resolution::via_interface(vif_home_, {}, config_.home_address);
    }

    // §7.1.2, taken literally: an IP client flagged this packet as a
    // retransmission — evidence the current delivery method is failing.
    // (Deduplicated per simulated instant: the flow is resolved once for
    // source selection and once for routing.)
    if (flow.retransmission) {
        const auto now = this->simulator().now();
        auto [it, fresh] = last_retransmission_signal_.try_emplace(flow.dst, -1);
        if (it->second != now) {
            it->second = now;
            ++stats_.failure_signals;
            method_cache_.report_failure(flow.dst, now, "flow-retransmission-flag");
        }
    }

    // §7.1.1 port heuristics: short-lived / transactional traffic skips
    // Mobile IP entirely.
    if (config_.enable_port_heuristics && !explicitly_home &&
        config_.temporary_address_ports.contains(flow.dst_port)) {
        ++stats_.out_dt;
        return stack::Resolution::table(care_of_);
    }

    switch (method_cache_.mode_for(flow.dst, simulator().now())) {
        case OutMode::IE:
            return stack::Resolution::via_interface(vif_home_, {}, config_.home_address);
        case OutMode::DE:
            return stack::Resolution::via_interface(vif_direct_, {}, config_.home_address);
        case OutMode::DH:
            ++stats_.out_dh;
            return stack::Resolution::table(config_.home_address);
        case OutMode::DT:
            ++stats_.out_dt;
            return stack::Resolution::table(care_of_);
    }
    return std::nullopt;
}

}  // namespace mip::core
