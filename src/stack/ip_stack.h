// The per-node IP stack: interfaces, forwarding table, policy-routing hook,
// packet filters, fragmentation/reassembly, local delivery demux, and ICMP.
//
// One class serves both hosts (forwarding off) and routers (forwarding on)
// — the same way a general-purpose OS kernel does.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "net/fragmentation.h"
#include "net/icmp.h"
#include "net/packet.h"
#include "routing/filters.h"
#include "routing/forwarding_table.h"
#include "sim/node.h"
#include "sim/trace.h"
#include "stack/interface.h"
#include "stack/route_resolver.h"

namespace mip::stack {

class IpStack {
public:
    /// Handler for locally-delivered packets of one IP protocol.
    /// @p packet is the reassembled datagram; @p in_interface the interface
    /// it arrived on (size_t(-1) for loopback/reinjected packets).
    using ProtocolHandler = std::function<void(const net::Packet& packet, std::size_t in_interface)>;

    /// Observer for non-echo ICMP messages delivered to this host
    /// (mobile-aware correspondents watch for care-of adverts here).
    using IcmpObserver = std::function<void(const net::IcmpMessage&, const net::Packet&)>;

    /// Hook consulted for every packet that would be *forwarded* (arrived
    /// here but addressed elsewhere). Returns true when the hook consumed
    /// the packet. The home agent's proxy-ARP capture path registers one.
    /// Installing a hook costs a Packet copy of every transit datagram;
    /// without one, transit datagrams never leave their received buffer.
    using ForwardInterceptor = std::function<bool(const net::Packet&, std::size_t in_interface)>;

    IpStack(sim::Simulator& simulator, sim::Node& node);

    // ---- interfaces -------------------------------------------------------

    /// Wraps @p nic as a stack interface and installs the frame handler.
    std::size_t add_interface(sim::Nic& nic);
    std::size_t add_virtual_interface(std::string name, Interface::VirtualSender sender);

    Interface& iface(std::size_t index) { return *interfaces_.at(index); }
    const Interface& iface(std::size_t index) const { return *interfaces_.at(index); }
    std::size_t interface_count() const noexcept { return interfaces_.size(); }

    /// Assigns an address and (by default) a connected route for the subnet.
    void configure(std::size_t index, net::Ipv4Address addr, net::Prefix subnet,
                   bool add_connected_route = true);

    /// Removes the address, its connected routes, and its local-address entry.
    void deconfigure(std::size_t index);

    // ---- routing ----------------------------------------------------------

    routing::ForwardingTable& routes() noexcept { return routes_; }
    const routing::ForwardingTable& routes() const noexcept { return routes_; }
    void add_default_route(net::Ipv4Address gateway, std::size_t interface_index);

    /// Installs the policy resolver consulted before the route table.
    /// Not owned; pass nullptr to remove.
    void set_policy_resolver(RouteResolver* resolver) noexcept { policy_ = resolver; }

    void set_forwarding(bool on) noexcept { forwarding_ = on; }
    bool forwarding() const noexcept { return forwarding_; }
    void set_forward_interceptor(ForwardInterceptor f) { forward_interceptor_ = std::move(f); }

    void add_ingress_filter(std::size_t interface_index,
                            std::shared_ptr<const routing::FilterRule> rule);
    void add_egress_filter(std::size_t interface_index,
                           std::shared_ptr<const routing::FilterRule> rule);
    /// Removes a previously added rule, matched by pointer identity (the
    /// caller keeps the shared_ptr it installed — policy churn needs to
    /// take back exactly the rule it added, not every rule of that shape).
    /// No-op when the rule isn't installed on that interface.
    void remove_ingress_filter(std::size_t interface_index, const routing::FilterRule* rule);
    void remove_egress_filter(std::size_t interface_index, const routing::FilterRule* rule);

    /// When enabled, a router answers each filtered-out packet with ICMP
    /// Destination Unreachable (code 13, "communication administratively
    /// prohibited") to the source. Most security-conscious routers drop
    /// silently (the paper's assumption); turning this on lets a mobile
    /// host learn about undeliverable modes immediately instead of waiting
    /// for retransmission timeouts — see bench/abl_failure_feedback.
    void set_filter_feedback(bool on) noexcept { filter_feedback_ = on; }

    // ---- addresses --------------------------------------------------------

    /// Registers an address as "ours" for local delivery, independent of
    /// interface configuration. A mobile host away from home keeps its home
    /// address registered here — packets reaching it addressed to home
    /// (decapsulated, or In-DH link-layer delivery) are accepted.
    void add_local_address(net::Ipv4Address addr);
    void remove_local_address(net::Ipv4Address addr);
    bool is_local_address(net::Ipv4Address addr) const;

    // ---- multicast (RFC 1112 host extensions) -------------------------------

    /// Joins an IPv4 multicast group: packets addressed to @p group are
    /// accepted for local delivery. The paper's §6.4 point is that a mobile
    /// host should join "through its real physical interface on the current
    /// local network" rather than through its distant home network.
    void join_group(net::Ipv4Address group);
    void leave_group(net::Ipv4Address group);
    bool in_group(net::Ipv4Address group) const { return joined_groups_.contains(group); }

    /// Observer for every multicast packet delivered locally (the home
    /// agent's §6.4 relay uses this to re-tunnel group traffic to mobile
    /// hosts subscribed "through the virtual interface").
    using MulticastObserver = std::function<void(const net::Packet&)>;
    void set_multicast_observer(MulticastObserver obs) {
        multicast_observer_ = std::move(obs);
    }

    /// Source address for a new flow to @p dst: the policy resolver's hint
    /// if it gives one, else the outgoing interface's address.
    net::Ipv4Address select_source(const FlowKey& flow) const;

    // ---- datapath ---------------------------------------------------------

    /// Routes and transmits @p packet. If the header's source address is
    /// unspecified it is filled in from policy/interface. @p flow carries
    /// transport context for the policy layer; when omitted it is derived
    /// from the header (ports parsed from TCP/UDP payloads).
    void send(net::Packet packet, std::optional<FlowKey> flow = std::nullopt);

    /// Delivers a packet up this stack as if received (used by tunnel
    /// decapsulation to resubmit inner packets, per paper §7).
    void deliver_local(const net::Packet& packet, std::size_t in_interface);

    /// Transmits @p packet out a specific physical interface toward
    /// @p next_hop, bypassing both the policy resolver and the route table
    /// (agents use this for link-local chores like broadcasting
    /// advertisements or delivering to a registered visitor). A broadcast
    /// destination/next hop goes to the link broadcast MAC without ARP.
    void send_direct(net::Packet packet, std::size_t interface_index,
                     net::Ipv4Address next_hop = {});

    void register_protocol(net::IpProto proto, ProtocolHandler handler);
    /// Adds an observer for non-echo-request ICMP messages (echo replies,
    /// unreachables, care-of adverts). Multiple observers may coexist.
    void add_icmp_observer(IcmpObserver observer) {
        icmp_observers_.push_back(std::move(observer));
    }

    /// Sends an ICMP message to @p dst.
    void send_icmp(net::Ipv4Address dst, const net::IcmpMessage& message,
                   net::Ipv4Address src = {});

    // ---- observability ----------------------------------------------------

    /// Attaches (or, with nullptr, detaches) the trace recorder. Off by
    /// default; when detached every trace seam in the stack costs a single
    /// pointer compare and builds nothing — detail arguments are packed
    /// lazily on the recorder side (see sim::TraceDetail). The recorder
    /// must outlive its attachment.
    void set_trace(sim::TraceRecorder* trace) noexcept { trace_ = trace; }
    sim::TraceRecorder* trace() const noexcept { return trace_; }

    /// Emits a packet-level trace event attributed to this node. The tunnel
    /// layer uses this to report Encapsulated/Decapsulated milestones that
    /// happen above the stack proper (virtual-interface senders, protocol
    /// handlers) so they land in the same journey as the stack's own events.
    void trace_packet(sim::TraceKind kind, const net::Packet& packet,
                      const sim::TraceDetail& detail);

    struct Stats {
        std::size_t packets_sent = 0;
        std::size_t packets_received = 0;
        std::size_t packets_forwarded = 0;
        std::size_t packets_delivered = 0;
        std::size_t ingress_filter_drops = 0;
        std::size_t egress_filter_drops = 0;
        std::size_t no_route_drops = 0;
        std::size_t ttl_drops = 0;
        std::size_t arp_failures = 0;
        std::size_t fragments_sent = 0;
        std::size_t reassembled = 0;
    };
    const Stats& stats() const noexcept { return stats_; }
    sim::Simulator& simulator() const noexcept { return simulator_; }
    sim::Node& node() const noexcept { return node_; }

    /// Index used for packets not associated with a receive interface.
    static constexpr std::size_t kNoInterface = static_cast<std::size_t>(-1);

private:
    using FilterMap =
        std::map<std::size_t, std::vector<std::shared_ptr<const routing::FilterRule>>>;

    void on_frame(std::size_t interface_index, sim::Frame& frame);
    /// Parses the header once; builds a Packet only for local delivery and
    /// filter drops, and hands everything else to forward().
    void on_ip_frame(std::size_t interface_index, sim::Frame& frame);
    /// Forwards the datagram in @p frame (whose parsed header is @p header)
    /// in its received buffer: the header is rewritten in place and the
    /// same bytes go out. Interceptors, filter drops and fragmentation get
    /// a Packet copy instead.
    void forward(std::size_t in_interface, net::Ipv4Header header, sim::Frame& frame);
    /// Transmits @p packet on a physical interface: egress filters, then
    /// fragmentation to the link MTU when it does not fit.
    void transmit(const net::Packet& packet, std::size_t interface_index,
                  net::Ipv4Address next_hop);
    void transmit_fragments(const net::Packet& packet, std::size_t interface_index,
                            net::Ipv4Address next_hop);
    void transmit_one(const net::Packet& fragment, std::size_t interface_index,
                      net::Ipv4Address next_hop);
    /// Frames serialized datagram bytes to @p next_hop's MAC (ARP cache
    /// first, then resolution) and sends them out @p interface_index.
    void transmit_wire(std::vector<std::uint8_t> wire, std::uint64_t journey,
                       std::size_t interface_index, net::Ipv4Address next_hop);
    /// True when @p interface_index is a connected physical interface;
    /// otherwise counts and traces the drop of a datagram of @p size bytes.
    bool interface_up(std::size_t interface_index, std::size_t size, std::uint64_t journey);
    /// The first rule installed on @p interface_index that drops @p header.
    static const routing::FilterRule* dropping_rule(const FilterMap& filters,
                                                    std::size_t interface_index,
                                                    const net::Ipv4Header& header);
    /// Counts and traces a filter drop; sends ICMP feedback when enabled.
    void filter_drop(const routing::FilterRule& rule, const net::Packet& packet,
                     std::size_t* drop_counter);
    /// ICMP "administratively prohibited" back to the dropped packet's
    /// source (when filter feedback is on).
    void send_filter_feedback(const net::Packet& dropped);
    void handle_icmp(const net::Packet& packet, std::size_t in_interface);
    void emit_trace(sim::TraceKind kind, std::size_t size, std::uint64_t journey,
                    const sim::TraceDetail& detail);
    void emit_trace(sim::TraceKind kind, const net::Packet* packet,
                    const sim::TraceDetail& detail);
    /// Assigns a journey id if the packet doesn't have one yet (i.e. this
    /// stack is the datagram's origin) and emits the PacketSent milestone.
    void begin_journey(net::Packet& packet);
    static FlowKey flow_from_packet(const net::Packet& packet);

    sim::Simulator& simulator_;
    sim::Node& node_;
    std::vector<std::unique_ptr<Interface>> interfaces_;
    routing::ForwardingTable routes_;
    RouteResolver* policy_ = nullptr;
    bool forwarding_ = false;
    bool filter_feedback_ = false;
    ForwardInterceptor forward_interceptor_;
    FilterMap ingress_filters_;
    FilterMap egress_filters_;
    std::map<net::Ipv4Address, int> local_addresses_;  ///< refcounted
    std::set<net::Ipv4Address> joined_groups_;
    MulticastObserver multicast_observer_;
    std::map<net::IpProto, ProtocolHandler> protocols_;
    std::vector<IcmpObserver> icmp_observers_;
    net::Reassembler reassembler_;
    sim::TraceRecorder* trace_ = nullptr;
    Stats stats_;
    std::uint16_t next_ip_id_ = 1;
};

}  // namespace mip::stack
