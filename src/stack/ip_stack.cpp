#include "stack/ip_stack.h"

#include "net/buffer.h"

namespace mip::stack {

IpStack::IpStack(sim::Simulator& simulator, sim::Node& node)
    : simulator_(simulator), node_(node) {
    register_protocol(net::IpProto::Icmp,
                      [this](const net::Packet& p, std::size_t in_iface) {
                          handle_icmp(p, in_iface);
                      });
}

std::size_t IpStack::add_interface(sim::Nic& nic) {
    const std::size_t index = interfaces_.size();
    interfaces_.push_back(std::make_unique<Interface>(simulator_, nic));
    nic.set_handler([this, index](sim::Frame& frame) { on_frame(index, frame); });
    return index;
}

std::size_t IpStack::add_virtual_interface(std::string name, Interface::VirtualSender sender) {
    interfaces_.push_back(std::make_unique<Interface>(std::move(name), std::move(sender)));
    return interfaces_.size() - 1;
}

void IpStack::configure(std::size_t index, net::Ipv4Address addr, net::Prefix subnet,
                        bool add_connected_route) {
    Interface& ifc = iface(index);
    if (ifc.configured()) {
        deconfigure(index);
    }
    ifc.configure(addr, subnet);
    add_local_address(addr);
    if (add_connected_route) {
        routes_.add({subnet, net::Ipv4Address{}, index, 0});
    }
}

void IpStack::deconfigure(std::size_t index) {
    Interface& ifc = iface(index);
    if (!ifc.configured()) return;
    remove_local_address(ifc.address());
    routes_.remove_interface(index);
    ifc.deconfigure();
}

void IpStack::add_default_route(net::Ipv4Address gateway, std::size_t interface_index) {
    routes_.add({net::kDefaultRoute, gateway, interface_index, 0});
}

void IpStack::add_ingress_filter(std::size_t interface_index,
                                 std::shared_ptr<const routing::FilterRule> rule) {
    ingress_filters_[interface_index].push_back(std::move(rule));
}

void IpStack::add_egress_filter(std::size_t interface_index,
                                std::shared_ptr<const routing::FilterRule> rule) {
    egress_filters_[interface_index].push_back(std::move(rule));
}

namespace {
void remove_filter_rule(
    std::map<std::size_t, std::vector<std::shared_ptr<const routing::FilterRule>>>& filters,
    std::size_t interface_index, const routing::FilterRule* rule) {
    auto it = filters.find(interface_index);
    if (it == filters.end()) return;
    std::erase_if(it->second, [rule](const auto& r) { return r.get() == rule; });
    if (it->second.empty()) filters.erase(it);
}
}  // namespace

void IpStack::remove_ingress_filter(std::size_t interface_index,
                                    const routing::FilterRule* rule) {
    remove_filter_rule(ingress_filters_, interface_index, rule);
}

void IpStack::remove_egress_filter(std::size_t interface_index,
                                   const routing::FilterRule* rule) {
    remove_filter_rule(egress_filters_, interface_index, rule);
}

void IpStack::add_local_address(net::Ipv4Address addr) {
    if (addr.is_unspecified()) return;
    ++local_addresses_[addr];
}

void IpStack::remove_local_address(net::Ipv4Address addr) {
    auto it = local_addresses_.find(addr);
    if (it == local_addresses_.end()) return;
    if (--it->second <= 0) {
        local_addresses_.erase(it);
    }
}

bool IpStack::is_local_address(net::Ipv4Address addr) const {
    return local_addresses_.contains(addr);
}

void IpStack::join_group(net::Ipv4Address group) {
    if (!group.is_multicast()) {
        throw std::invalid_argument("join_group: " + group.to_string() +
                                    " is not a multicast address");
    }
    joined_groups_.insert(group);
}

void IpStack::leave_group(net::Ipv4Address group) {
    joined_groups_.erase(group);
}

void IpStack::register_protocol(net::IpProto proto, ProtocolHandler handler) {
    protocols_[proto] = std::move(handler);
}

void IpStack::emit_trace(sim::TraceKind kind, std::size_t size, std::uint64_t journey,
                         const sim::TraceDetail& detail) {
    if (trace_ == nullptr) return;
    trace_->record(kind, simulator_.now(), trace_->node_id(node_), nullptr,
                   static_cast<std::uint32_t>(size), 0, journey, detail);
}

void IpStack::emit_trace(sim::TraceKind kind, const net::Packet* packet,
                         const sim::TraceDetail& detail) {
    emit_trace(kind, packet != nullptr ? packet->wire_size() : 0,
               packet != nullptr ? packet->journey() : 0, detail);
}

void IpStack::trace_packet(sim::TraceKind kind, const net::Packet& packet,
                           const sim::TraceDetail& detail) {
    emit_trace(kind, &packet, detail);
}

void IpStack::begin_journey(net::Packet& packet) {
    if (packet.journey() != 0) return;  // mid-journey (forward/encap/resend)
    packet.set_journey(simulator_.next_packet_id());
    emit_trace(sim::TraceKind::PacketSent, &packet,
               sim::TraceDetail::args(
                   sim::TraceDetailKind::ProtoSrcDst,
                   static_cast<std::uint32_t>(packet.header().protocol),
                   packet.header().src.value(), packet.header().dst.value()));
}

FlowKey IpStack::flow_from_packet(const net::Packet& packet) {
    FlowKey flow;
    flow.bound_src = packet.header().src;
    flow.dst = packet.header().dst;
    flow.proto = packet.header().protocol;
    // For unfragmented TCP/UDP, the ports are the first four payload bytes.
    if ((flow.proto == net::IpProto::Tcp || flow.proto == net::IpProto::Udp) &&
        !packet.header().is_fragment() && packet.payload().size() >= 4) {
        net::BufferReader r(packet.payload());
        flow.src_port = r.u16();
        flow.dst_port = r.u16();
    }
    return flow;
}

net::Ipv4Address IpStack::select_source(const FlowKey& flow) const {
    if (!flow.bound_src.is_unspecified()) {
        return flow.bound_src;
    }
    if (policy_ != nullptr) {
        if (auto res = policy_->resolve(flow)) {
            if (!res->source_hint.is_unspecified()) {
                return res->source_hint;
            }
            if (res->kind == Resolution::Kind::Interface &&
                res->interface_index < interfaces_.size() &&
                interfaces_[res->interface_index]->configured()) {
                return interfaces_[res->interface_index]->address();
            }
        }
    }
    if (flow.dst.is_multicast() || flow.dst.is_broadcast()) {
        // Link-scope traffic goes out the first configured physical
        // interface (see send()); source accordingly.
        for (const auto& ifc : interfaces_) {
            if (ifc->is_physical() && ifc->configured()) {
                return ifc->address();
            }
        }
        return net::Ipv4Address{};
    }
    if (auto entry = routes_.lookup(flow.dst)) {
        const Interface& out = iface(entry->interface_index);
        if (out.configured()) {
            return out.address();
        }
    }
    return net::Ipv4Address{};
}

void IpStack::send(net::Packet packet, std::optional<FlowKey> flow_opt) {
    FlowKey flow = flow_opt ? *flow_opt : flow_from_packet(packet);
    flow.dst = packet.header().dst;
    flow.proto = packet.header().protocol;

    if (packet.header().identification == 0) {
        packet.header().identification = next_ip_id_++;
        if (next_ip_id_ == 0) next_ip_id_ = 1;
    }
    begin_journey(packet);

    // Multicast sends go out the first configured physical interface in a
    // single link-scope frame (RFC 1112 level-2 host, no routing).
    if (packet.header().dst.is_multicast()) {
        for (std::size_t i = 0; i < interfaces_.size(); ++i) {
            Interface& ifc = *interfaces_[i];
            if (ifc.is_physical() && ifc.configured()) {
                if (packet.header().src.is_unspecified()) {
                    packet.header().src = ifc.address();
                }
                ++stats_.packets_sent;
                transmit(packet, i, packet.header().dst);
                return;
            }
        }
        ++stats_.no_route_drops;
        return;
    }

    Resolution res = Resolution::table();
    if (policy_ != nullptr) {
        if (auto r = policy_->resolve(flow)) {
            res = *r;
        }
    }

    // Fill in the source address if the caller left it open.
    if (packet.header().src.is_unspecified()) {
        net::Ipv4Address src = res.source_hint;
        if (src.is_unspecified() && res.kind == Resolution::Kind::Interface &&
            res.interface_index < interfaces_.size()) {
            src = interfaces_[res.interface_index]->address();
        }
        packet.header().src = src;
    }

    ++stats_.packets_sent;

    switch (res.kind) {
        case Resolution::Kind::Loopback:
            deliver_local(packet, kNoInterface);
            return;
        case Resolution::Kind::Interface: {
            Interface& out = iface(res.interface_index);
            if (!out.is_physical()) {
                if (packet.header().src.is_unspecified() && !res.source_hint.is_unspecified()) {
                    packet.header().src = res.source_hint;
                }
                out.virtual_sender()(std::move(packet));
                return;
            }
            net::Ipv4Address next_hop =
                res.next_hop.is_unspecified() ? packet.header().dst : res.next_hop;
            transmit(packet, res.interface_index, next_hop);
            return;
        }
        case Resolution::Kind::Table:
            break;
    }

    if (is_local_address(packet.header().dst)) {
        deliver_local(packet, kNoInterface);
        return;
    }
    auto entry = routes_.lookup(packet.header().dst);
    if (!entry) {
        ++stats_.no_route_drops;
        emit_trace(sim::TraceKind::NoRoute, &packet,
                   sim::TraceDetail::args(sim::TraceDetailKind::NoRouteSend,
                                          packet.header().dst.value()));
        return;
    }
    Interface& out = iface(entry->interface_index);
    if (packet.header().src.is_unspecified()) {
        packet.header().src = out.address();
    }
    if (!out.is_physical()) {
        out.virtual_sender()(std::move(packet));
        return;
    }
    const net::Ipv4Address next_hop = entry->on_link() ? packet.header().dst : entry->gateway;
    transmit(packet, entry->interface_index, next_hop);
}

bool IpStack::interface_up(std::size_t interface_index, std::size_t size,
                           std::uint64_t journey) {
    const Interface& out = iface(interface_index);
    if (out.is_physical() && out.nic() != nullptr && out.nic()->connected()) {
        return true;
    }
    ++stats_.no_route_drops;
    emit_trace(sim::TraceKind::NoRoute, size, journey,
               sim::TraceDetail::args(sim::TraceDetailKind::InterfaceDown, 0));
    return false;
}

void IpStack::transmit(const net::Packet& packet, std::size_t interface_index,
                       net::Ipv4Address next_hop) {
    if (!interface_up(interface_index, packet.wire_size(), packet.journey())) {
        return;
    }
    // Egress filters run on the full datagram before fragmentation.
    if (const auto* rule = dropping_rule(egress_filters_, interface_index, packet.header())) {
        filter_drop(*rule, packet, &stats_.egress_filter_drops);
        return;
    }
    if (packet.wire_size() <= iface(interface_index).mtu()) {
        transmit_one(packet, interface_index, next_hop);
        return;
    }
    transmit_fragments(packet, interface_index, next_hop);
}

void IpStack::transmit_fragments(const net::Packet& packet, std::size_t interface_index,
                                 net::Ipv4Address next_hop) {
    std::vector<net::Packet> pieces;
    try {
        pieces = net::fragment(packet, iface(interface_index).mtu());
    } catch (const std::invalid_argument&) {
        emit_trace(sim::TraceKind::FrameTooBig, &packet,
                   sim::TraceDetail::args(sim::TraceDetailKind::DfExceedsMtu, 0));
        return;
    }
    stats_.fragments_sent += pieces.size();
    for (const auto& piece : pieces) {
        transmit_one(piece, interface_index, next_hop);
    }
}

void IpStack::send_direct(net::Packet packet, std::size_t interface_index,
                          net::Ipv4Address next_hop) {
    if (packet.header().identification == 0) {
        packet.header().identification = next_ip_id_++;
        if (next_ip_id_ == 0) next_ip_id_ = 1;
    }
    begin_journey(packet);
    ++stats_.packets_sent;
    if (next_hop.is_unspecified()) {
        next_hop = packet.header().dst;
    }
    transmit(packet, interface_index, next_hop);
}

void IpStack::transmit_one(const net::Packet& fragment, std::size_t interface_index,
                           net::Ipv4Address next_hop) {
    // Wire bytes come out of the world's buffer pool; the link layer
    // releases them back once the frame is delivered (or dropped).
    transmit_wire(fragment.to_wire(simulator_.buffer_pool()), fragment.journey(),
                  interface_index, next_hop);
}

namespace {
void send_frame(sim::Nic& nic, sim::MacAddress dst, std::vector<std::uint8_t>&& wire,
                std::uint64_t journey) {
    sim::Frame frame;
    frame.dst = dst;
    frame.type = net::EtherType::Ipv4;
    frame.payload = std::move(wire);
    frame.journey = journey;
    nic.send(std::move(frame));
}

/// @p bytes (a datagram whose parsed header is @p header) as a Packet, for
/// the paths that need one: local delivery, interceptors, filter drops and
/// fragmentation. Equal to Packet::from_wire(bytes) with @p header's fields.
net::Packet packet_of(std::span<const std::uint8_t> bytes, const net::Ipv4Header& header,
                      std::uint64_t journey) {
    const auto payload = bytes.subspan(net::kIpv4HeaderSize,
                                       header.total_length - net::kIpv4HeaderSize);
    net::Packet packet(header, std::vector<std::uint8_t>(payload.begin(), payload.end()));
    packet.set_journey(journey);
    return packet;
}
}  // namespace

void IpStack::transmit_wire(std::vector<std::uint8_t> wire, std::uint64_t journey,
                            std::size_t interface_index, net::Ipv4Address next_hop) {
    Interface& out = iface(interface_index);
    sim::Nic* nic = out.nic();
    if (next_hop.is_broadcast() || next_hop.is_multicast()) {
        send_frame(*nic,
                   next_hop.is_broadcast() ? sim::MacAddress::broadcast()
                                           : sim::MacAddress::multicast_for(next_hop.value()),
                   std::move(wire), journey);
        return;
    }
    // A cache hit sends at once, without wrapping the buffer in a callback.
    if (const auto mac = out.arp()->lookup(next_hop)) {
        send_frame(*nic, *mac, std::move(wire), journey);
        return;
    }
    out.arp()->resolve(next_hop, [this, nic, journey, wire = std::move(wire)](
                                     std::optional<sim::MacAddress> mac) mutable {
        if (!mac) {
            ++stats_.arp_failures;
            emit_trace(sim::TraceKind::NoRoute, nullptr,
                       sim::TraceDetail::args(sim::TraceDetailKind::ArpFailed, 0));
            simulator_.buffer_pool().release(std::move(wire));
            return;
        }
        send_frame(*nic, *mac, std::move(wire), journey);
    });
}

void IpStack::on_frame(std::size_t interface_index, sim::Frame& frame) {
    switch (frame.type) {
        case net::EtherType::Arp: {
            Interface& ifc = iface(interface_index);
            if (ifc.arp() != nullptr) {
                ifc.arp()->handle_frame(frame);
            }
            return;
        }
        case net::EtherType::Ipv4:
            on_ip_frame(interface_index, frame);
            return;
    }
}

void IpStack::on_ip_frame(std::size_t interface_index, sim::Frame& frame) {
    net::Ipv4Header header;
    try {
        net::BufferReader r(frame.payload);
        header = net::Ipv4Header::parse(r);
    } catch (const net::ParseError&) {
        return;  // corrupted packets vanish, as on a real wire
    }
    if (header.total_length > frame.payload.size()) {
        return;  // truncated (Packet::from_wire refuses these too)
    }
    // The journey id rode beside the wire bytes; carry it on so this
    // stack's events stay correlated with the sender's.
    const std::uint64_t journey = frame.journey;
    ++stats_.packets_received;

    if (const auto* rule = dropping_rule(ingress_filters_, interface_index, header)) {
        filter_drop(*rule, packet_of(frame.payload, header, journey),
                    &stats_.ingress_filter_drops);
        return;
    }

    if (header.dst.is_multicast()) {
        // Multicast is link-scoped in this simulator (no IGMP/DVMRP):
        // deliver if joined, never forward.
        if (joined_groups_.contains(header.dst)) {
            deliver_local(packet_of(frame.payload, header, journey), interface_index);
        }
        return;
    }
    if (is_local_address(header.dst) || header.dst.is_broadcast()) {
        deliver_local(packet_of(frame.payload, header, journey), interface_index);
        return;
    }
    forward(interface_index, header, frame);
}

void IpStack::forward(std::size_t in_interface, net::Ipv4Header header, sim::Frame& frame) {
    const std::uint64_t journey = frame.journey;
    if (forward_interceptor_ &&
        forward_interceptor_(packet_of(frame.payload, header, journey), in_interface)) {
        return;  // consumed (e.g. home agent captured a proxy-ARP'd packet)
    }
    if (!forwarding_) {
        return;  // hosts silently drop traffic not addressed to them
    }
    const std::size_t size = header.total_length;
    if (header.ttl <= 1) {
        ++stats_.ttl_drops;
        emit_trace(sim::TraceKind::TtlExpired, size, journey,
                   sim::TraceDetail::args(sim::TraceDetailKind::Dst, header.dst.value()));
        return;
    }
    --header.ttl;
    auto entry = routes_.lookup(header.dst);
    if (!entry) {
        ++stats_.no_route_drops;
        emit_trace(sim::TraceKind::NoRoute, size, journey,
                   sim::TraceDetail::args(sim::TraceDetailKind::NoRouteForward,
                                          header.dst.value()));
        return;
    }
    ++stats_.packets_forwarded;
    const net::Ipv4Address next_hop = entry->on_link() ? header.dst : entry->gateway;
    emit_trace(sim::TraceKind::PacketForwarded, size, journey,
               sim::TraceDetail::args(sim::TraceDetailKind::DstVia, header.dst.value(),
                                      next_hop.value()));

    const std::size_t out_index = entry->interface_index;
    if (!interface_up(out_index, size, journey)) {
        return;
    }
    if (const auto* rule = dropping_rule(egress_filters_, out_index, header)) {
        filter_drop(*rule, packet_of(frame.payload, header, journey),
                    &stats_.egress_filter_drops);
        return;
    }
    if (size > iface(out_index).mtu()) {
        transmit_fragments(packet_of(frame.payload, header, journey), out_index, next_hop);
        return;
    }
    // The datagram fits: trim any trailing bytes, rewrite the header in
    // place, and send the received buffer itself.
    std::vector<std::uint8_t> wire = std::move(frame.payload);
    wire.resize(size);
    header.serialize(std::span<std::uint8_t, net::kIpv4HeaderSize>(wire.data(),
                                                                  net::kIpv4HeaderSize));
    transmit_wire(std::move(wire), journey, out_index, next_hop);
}

const routing::FilterRule* IpStack::dropping_rule(const FilterMap& filters,
                                                  std::size_t interface_index,
                                                  const net::Ipv4Header& header) {
    const auto it = filters.find(interface_index);
    if (it == filters.end()) return nullptr;
    for (const auto& rule : it->second) {
        if (rule->evaluate(header) == routing::FilterVerdict::Drop) {
            return rule.get();
        }
    }
    return nullptr;
}

void IpStack::filter_drop(const routing::FilterRule& rule, const net::Packet& packet,
                          std::size_t* drop_counter) {
    ++*drop_counter;
    // describe() allocates, but only on the (cold) drop path; the view is
    // interned before this full-expression ends.
    const std::string rule_text = rule.describe();
    emit_trace(sim::TraceKind::FilterDrop, &packet,
               sim::TraceDetail::with_text(sim::TraceDetailKind::FilterRule, rule_text,
                                           packet.header().src.value(),
                                           packet.header().dst.value()));
    if (filter_feedback_) {
        send_filter_feedback(packet);
    }
}

void IpStack::send_filter_feedback(const net::Packet& dropped) {
    // Never generate ICMP errors about ICMP (avoids error storms; a
    // simplification of RFC 1122's "never about ICMP *errors*").
    if (dropped.header().protocol == net::IpProto::Icmp) {
        return;
    }
    net::IcmpMessage msg;
    msg.type = net::IcmpType::DestinationUnreachable;
    msg.code = static_cast<std::uint8_t>(
        net::IcmpUnreachableCode::CommunicationAdministrativelyProhibited);
    // Body: the dropped datagram's header plus the first 8 payload bytes
    // (RFC 792), enough for the source to identify the flow.
    net::BufferWriter w;
    net::Ipv4Header h = dropped.header();
    h.serialize(w);
    const auto head = dropped.payload().subspan(0, std::min<std::size_t>(8, dropped.payload().size()));
    w.bytes(head);
    msg.body = w.take();
    // Source the error from our first configured interface (the inside,
    // domain-addressed one on a boundary router) so the error itself
    // survives our own egress anti-spoofing rules.
    net::Ipv4Address src;
    for (const auto& ifc : interfaces_) {
        if (ifc->is_physical() && ifc->configured()) {
            src = ifc->address();
            break;
        }
    }
    send_icmp(dropped.header().src, msg, src);
}

void IpStack::deliver_local(const net::Packet& packet, std::size_t in_interface) {
    // Only a reassembled datagram needs storage of its own; a whole one is
    // dispatched as received.
    std::optional<net::Packet> reassembled;
    if (packet.header().is_fragment()) {
        reassembled = reassembler_.add(packet, simulator_.now());
        reassembler_.expire(simulator_.now());
        if (!reassembled) {
            return;  // waiting for more fragments
        }
        ++stats_.reassembled;
    }
    const net::Packet& complete = reassembled ? *reassembled : packet;
    ++stats_.packets_delivered;
    emit_trace(sim::TraceKind::PacketDelivered, &complete,
               sim::TraceDetail::args(
                   sim::TraceDetailKind::Proto,
                   static_cast<std::uint32_t>(complete.header().protocol)));
    if (complete.header().dst.is_multicast() && multicast_observer_) {
        multicast_observer_(complete);
    }
    auto it = protocols_.find(complete.header().protocol);
    if (it != protocols_.end()) {
        it->second(complete, in_interface);
    }
}

void IpStack::handle_icmp(const net::Packet& packet, std::size_t in_interface) {
    (void)in_interface;
    net::IcmpMessage msg;
    try {
        net::BufferReader r(packet.payload());
        msg = net::IcmpMessage::parse(r);
    } catch (const net::ParseError&) {
        return;
    }
    if (msg.type == net::IcmpType::EchoRequest) {
        net::IcmpMessage reply = msg;
        reply.type = net::IcmpType::EchoReply;
        send_icmp(packet.header().src, reply, packet.header().dst);
        return;
    }
    for (const auto& observer : icmp_observers_) {
        observer(msg, packet);
    }
}

void IpStack::send_icmp(net::Ipv4Address dst, const net::IcmpMessage& message,
                        net::Ipv4Address src) {
    net::BufferWriter w;
    message.serialize(w);
    net::Packet packet = net::make_packet(src, dst, net::IpProto::Icmp, w.take());
    send(std::move(packet));
}

}  // namespace mip::stack
