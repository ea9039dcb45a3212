// Edge cases of the IP stack: loopback, send_direct, broadcast handling,
// filter feedback at unit level, fragment-loss behaviour, interface
// lifecycle, ICMP details, and byte-exact forwarding of hand-built
// datagrams through a router chain.
#include <gtest/gtest.h>

#include "core/scenario.h"
#include "net/checksum.h"
#include "net/udp_header.h"
#include "routing/filters.h"
#include "stack/host.h"
#include "stack/router.h"
#include "transport/pinger.h"
#include "transport/udp_service.h"

using namespace mip;
using namespace mip::net::literals;

namespace {
struct LanRig {
    sim::Simulator sim;
    sim::TraceRecorder trace;
    sim::Link lan;
    stack::Host a{sim, "a"}, b{sim, "b"};

    explicit LanRig(sim::LinkConfig cfg = {}) : lan(sim, cfg) {
        lan.set_trace(&trace);
        a.attach(lan, "10.0.0.1"_ip, "10.0.0.0/24"_net);
        b.attach(lan, "10.0.0.2"_ip, "10.0.0.0/24"_net);
    }
};
}  // namespace

TEST(StackEdge, LoopbackToOwnAddress) {
    LanRig rig;
    int got = 0;
    rig.a.stack().register_protocol(net::IpProto::Udp,
                                    [&](const net::Packet&, std::size_t) { ++got; });
    rig.a.stack().send(net::make_packet({}, "10.0.0.1"_ip, net::IpProto::Udp,
                                        std::vector<std::uint8_t>(4, 0)));
    rig.sim.run();
    EXPECT_EQ(got, 1);
    // Nothing hit the wire.
    EXPECT_EQ(rig.trace.count(sim::TraceKind::FrameTx), 0u);
}

TEST(StackEdge, SendDirectBroadcast) {
    LanRig rig;
    int got = 0;
    rig.b.stack().register_protocol(net::IpProto::Udp,
                                    [&](const net::Packet&, std::size_t) { ++got; });
    rig.a.stack().send_direct(
        net::make_packet("10.0.0.1"_ip, "255.255.255.255"_ip, net::IpProto::Udp,
                         std::vector<std::uint8_t>(4, 0), 1),
        0);
    rig.sim.run();
    EXPECT_EQ(got, 1);
    // Broadcast needs no ARP: exactly one frame on the wire.
    EXPECT_EQ(rig.trace.count(sim::TraceKind::FrameTx), 1u);
}

TEST(StackEdge, SendDirectToNeighborSkipsRouteTable) {
    LanRig rig;
    // b claims an address with no route anywhere.
    rig.b.stack().add_local_address("172.31.0.9"_ip);
    int got = 0;
    rig.b.stack().register_protocol(net::IpProto::Udp,
                                    [&](const net::Packet&, std::size_t) { ++got; });
    rig.a.stack().send_direct(net::make_packet("10.0.0.1"_ip, "172.31.0.9"_ip,
                                               net::IpProto::Udp,
                                               std::vector<std::uint8_t>(4, 0)),
                              0, /*next_hop=*/"10.0.0.2"_ip);
    rig.sim.run();
    EXPECT_EQ(got, 1);
}

TEST(StackEdge, FilterFeedbackUnit) {
    sim::Simulator sim;
    sim::Link lan_a(sim, {}), lan_b(sim, {});
    stack::Host a(sim, "a");
    stack::Router r(sim, "r");
    a.attach(lan_a, "10.0.1.2"_ip, "10.0.1.0/24"_net, "10.0.1.1"_ip);
    r.attach(lan_a, "10.0.1.1"_ip, "10.0.1.0/24"_net);
    r.attach(lan_b, "10.0.2.1"_ip, "10.0.2.0/24"_net);
    r.add_egress_filter(1, std::make_shared<routing::ForeignSourceEgressRule>(
                               "10.0.9.0/24"_net));  // nothing we send qualifies
    r.stack().set_filter_feedback(true);

    int prohibited = 0;
    a.stack().add_icmp_observer([&](const net::IcmpMessage& m, const net::Packet&) {
        if (m.type == net::IcmpType::DestinationUnreachable &&
            m.code == static_cast<std::uint8_t>(
                          net::IcmpUnreachableCode::CommunicationAdministrativelyProhibited)) {
            ++prohibited;
        }
    });
    // The router forwards this toward lan_b, where the egress rule kills it.
    a.stack().send(net::make_packet("10.0.1.2"_ip, "10.0.2.2"_ip, net::IpProto::Udp,
                                    std::vector<std::uint8_t>(4, 0)));
    sim.run();
    EXPECT_EQ(prohibited, 1);
}

TEST(StackEdge, LostFragmentMeansNoDelivery) {
    // Drop one fragment on the floor: the datagram never completes and the
    // partial state ages out (no crash, no partial delivery).
    sim::Simulator sim;
    sim::Link lan(sim, sim::LinkConfig{.mtu = 600});
    stack::Host a(sim, "a"), b(sim, "b");
    a.attach(lan, "10.0.0.1"_ip, "10.0.0.0/24"_net);
    b.attach(lan, "10.0.0.2"_ip, "10.0.0.0/24"_net);
    int got = 0;
    b.stack().register_protocol(net::IpProto::Udp,
                                [&](const net::Packet&, std::size_t) { ++got; });

    // Build fragments by hand and send all but the second.
    auto p = net::make_packet("10.0.0.1"_ip, "10.0.0.2"_ip, net::IpProto::Udp,
                              std::vector<std::uint8_t>(1500, 1), 64, 77);
    const auto frags = net::fragment(p, 600);
    ASSERT_GE(frags.size(), 3u);
    for (std::size_t i = 0; i < frags.size(); ++i) {
        if (i == 1) continue;
        a.stack().send_direct(frags[i], 0, "10.0.0.2"_ip);
    }
    sim.run();
    EXPECT_EQ(got, 0);
}

TEST(StackEdge, EchoReplyMirrorsPayload) {
    LanRig rig;
    transport::Pinger pinger(rig.a.stack());
    std::optional<sim::Duration> rtt;
    pinger.ping("10.0.0.2"_ip, [&](auto r, auto&&) { rtt = r; }, sim::seconds(1),
                /*payload=*/500);
    rig.sim.run();
    ASSERT_TRUE(rtt.has_value());
    // Request and reply are both 500 + 8 ICMP + 20 IP = 528 B IP packets.
    EXPECT_EQ(rig.trace.ip_tx_bytes(), 2 * (528 + 14));
}

TEST(StackEdge, MultiplePingersCoexist) {
    LanRig rig;
    transport::Pinger p1(rig.a.stack());
    transport::Pinger p2(rig.a.stack());
    int done = 0;
    p1.ping("10.0.0.2"_ip, [&](auto r, auto&&) { done += r.has_value(); });
    p2.ping("10.0.0.2"_ip, [&](auto r, auto&&) { done += r.has_value(); });
    rig.sim.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(p1.received(), 1u);
    EXPECT_EQ(p2.received(), 1u);
}

TEST(StackEdge, PacketIdsAreAssignedWhenZero) {
    LanRig rig;
    std::vector<std::uint16_t> ids;
    rig.b.stack().register_protocol(net::IpProto::Udp,
                                    [&](const net::Packet& p, std::size_t) {
                                        ids.push_back(p.header().identification);
                                    });
    for (int i = 0; i < 3; ++i) {
        rig.a.stack().send(net::make_packet("10.0.0.1"_ip, "10.0.0.2"_ip,
                                            net::IpProto::Udp,
                                            std::vector<std::uint8_t>(4, 0)));
    }
    rig.sim.run();
    ASSERT_EQ(ids.size(), 3u);
    EXPECT_NE(ids[0], 0);
    EXPECT_NE(ids[0], ids[1]);
    EXPECT_NE(ids[1], ids[2]);
}

TEST(StackEdge, VirtualInterfaceHasUnlimitedMtu) {
    sim::Simulator sim;
    stack::Host a(sim, "a");
    const std::size_t vif = a.stack().add_virtual_interface("tun0", [](net::Packet) {});
    EXPECT_GT(a.stack().iface(vif).mtu(), 1u << 30);
    EXPECT_FALSE(a.stack().iface(vif).is_physical());
    EXPECT_EQ(a.stack().iface(vif).name(), "tun0");
}

TEST(StackEdge, ReconfigureReplacesAddress) {
    LanRig rig;
    rig.a.stack().configure(0, "10.0.0.9"_ip, "10.0.0.0/24"_net);
    EXPECT_FALSE(rig.a.stack().is_local_address("10.0.0.1"_ip));
    EXPECT_TRUE(rig.a.stack().is_local_address("10.0.0.9"_ip));

    transport::Pinger pinger(rig.b.stack());
    std::optional<sim::Duration> rtt;
    pinger.ping("10.0.0.9"_ip, [&](auto r, auto&&) { rtt = r; });
    rig.sim.run();
    EXPECT_TRUE(rtt.has_value());
}

TEST(StackEdge, ArpFailureCountsInStats) {
    LanRig rig;
    rig.a.stack().send(net::make_packet("10.0.0.1"_ip, "10.0.0.77"_ip, net::IpProto::Udp,
                                        std::vector<std::uint8_t>(4, 0)));
    rig.sim.run();
    EXPECT_EQ(rig.a.stack().stats().arp_failures, 1u);
}

TEST(StackEdge, UdpOverBroadcastDelivery) {
    LanRig rig;
    transport::UdpService ua(rig.a.stack()), ub(rig.b.stack());
    auto server = ub.open(5000);
    int got = 0;
    server->set_receiver([&](auto, auto&&) { ++got; });

    net::UdpHeader u;
    u.src_port = 1111;
    u.dst_port = 5000;
    net::BufferWriter w;
    u.serialize(w, "10.0.0.1"_ip, "255.255.255.255"_ip, std::vector<std::uint8_t>{1});
    rig.a.stack().send_direct(net::make_packet("10.0.0.1"_ip, "255.255.255.255"_ip,
                                               net::IpProto::Udp, w.take(), 1),
                              0);
    rig.sim.run();
    EXPECT_EQ(got, 1);
}

// ---- forwarding stays byte-exact ---------------------------------------------
//
// A router forwards a transit datagram in the buffer it arrived in,
// rewriting only the header. Whatever it sends must equal what parsing the
// input, decrementing TTL and serializing again would give.

namespace {

/// host-a and a raw injector on lan-a, router r1, lan-m (MTU 576), router
/// r2, host-b on lan-b. The taps record every IPv4 datagram put on lan-m
/// and lan-b. Construction warms every ARP cache on the path.
struct ChainRig {
    sim::Simulator sim;
    sim::TraceRecorder trace;
    sim::Link lan_a{sim, sim::LinkConfig{.name = "lan-a"}};
    sim::Link lan_m{sim, sim::LinkConfig{.name = "lan-m", .mtu = 576}};
    sim::Link lan_b{sim, sim::LinkConfig{.name = "lan-b"}};
    stack::Host a{sim, "host-a"}, b{sim, "host-b"};
    stack::Router r1{sim, "r1"}, r2{sim, "r2"};
    sim::Node raw{sim, "raw"};
    sim::Nic& raw_nic = raw.add_nic("raw0");
    std::vector<std::vector<std::uint8_t>> on_m, on_b;

    ChainRig() {
        for (sim::Link* link : {&lan_a, &lan_m, &lan_b}) link->set_trace(&trace);
        r1.stack().set_trace(&trace);
        r2.stack().set_trace(&trace);
        r1.attach(lan_a, "10.0.1.1"_ip, "10.0.1.0/24"_net);
        r1.attach(lan_m, "10.0.3.1"_ip, "10.0.3.0/24"_net);
        r2.attach(lan_m, "10.0.3.2"_ip, "10.0.3.0/24"_net);
        r2.attach(lan_b, "10.0.2.1"_ip, "10.0.2.0/24"_net);
        r1.add_route("10.0.2.0/24"_net, "10.0.3.2"_ip, 1);
        r2.add_route("10.0.1.0/24"_net, "10.0.3.1"_ip, 0);
        a.attach(lan_a, "10.0.1.2"_ip, "10.0.1.0/24"_net, "10.0.1.1"_ip);
        b.attach(lan_b, "10.0.2.2"_ip, "10.0.2.0/24"_net, "10.0.2.1"_ip);
        raw_nic.connect(lan_a);
        const auto record = [](std::vector<std::vector<std::uint8_t>>& into) {
            return [&into](const sim::Frame& f) {
                if (f.type == net::EtherType::Ipv4) into.push_back(f.payload);
            };
        };
        lan_m.set_tap(record(on_m));
        lan_b.set_tap(record(on_b));

        a.stack().send(net::make_packet("10.0.1.2"_ip, "10.0.2.2"_ip, net::IpProto::Udp,
                                        std::vector<std::uint8_t>(4, 0)));
        sim.run();
        on_m.clear();
        on_b.clear();
        trace.clear();
    }

    /// Sends @p wire to r1 from the raw injector and runs to quiescence.
    /// Returns the buffer-pool acquires the whole journey took.
    std::uint64_t inject(std::vector<std::uint8_t> wire) {
        const std::uint64_t before = sim.buffer_pool().stats().acquires;
        sim::Frame frame;
        frame.dst = r1.stack().iface(0).nic()->mac();
        frame.type = net::EtherType::Ipv4;
        frame.payload = std::move(wire);
        raw_nic.send(std::move(frame));
        sim.run();
        return sim.buffer_pool().stats().acquires - before;
    }
};

/// A datagram from host-a to host-b with @p payload_size payload bytes.
net::Packet a_to_b(std::size_t payload_size, std::uint8_t ttl = 64) {
    std::vector<std::uint8_t> payload(payload_size);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }
    return net::make_packet("10.0.1.2"_ip, "10.0.2.2"_ip, net::IpProto::Udp,
                            std::move(payload), ttl, 0x1234);
}

void refresh_checksum(std::vector<std::uint8_t>& wire) {
    wire[10] = wire[11] = 0;
    const std::uint16_t csum =
        net::internet_checksum(std::span(wire).first(net::kIpv4HeaderSize));
    wire[10] = static_cast<std::uint8_t>(csum >> 8);
    wire[11] = static_cast<std::uint8_t>(csum & 0xff);
}

/// What one router hop must emit for input bytes @p in.
std::vector<std::uint8_t> hop(std::span<const std::uint8_t> in) {
    net::Packet p = net::Packet::from_wire(in);
    EXPECT_GT(p.header().ttl, 1);
    --p.header().ttl;
    return p.to_wire();
}

/// Counts ICMP "administratively prohibited" messages reaching @p host and
/// keeps the last one's body (the dropped header plus 8 payload bytes).
struct ProhibitedCounter {
    int count = 0;
    std::vector<std::uint8_t> body;
    explicit ProhibitedCounter(stack::Host& host) {
        host.stack().add_icmp_observer([this](const net::IcmpMessage& m, const net::Packet&) {
            if (m.type == net::IcmpType::DestinationUnreachable &&
                m.code == static_cast<std::uint8_t>(
                              net::IcmpUnreachableCode::CommunicationAdministrativelyProhibited)) {
                ++count;
                body = m.body;
            }
        });
    }
};

}  // namespace

TEST(ForwardBytes, TransitHopsRewriteTheHeaderInPlaceWithoutPoolAcquires) {
    ChainRig rig;
    const auto in = a_to_b(100).to_wire();
    EXPECT_EQ(rig.inject(in), 0u);  // two transit hops, one local delivery
    ASSERT_EQ(rig.on_m.size(), 1u);
    EXPECT_EQ(rig.on_m[0], hop(in));
    ASSERT_EQ(rig.on_b.size(), 1u);
    EXPECT_EQ(rig.on_b[0], hop(hop(in)));
    EXPECT_EQ(rig.b.stack().stats().packets_delivered, 2u);  // warm-up + this one
    EXPECT_EQ(rig.r1.stack().stats().packets_forwarded, 2u);
}

TEST(ForwardBytes, ReservedFlagIsCleared) {
    ChainRig rig;
    auto in = a_to_b(40).to_wire();
    in[6] |= 0x80;
    refresh_checksum(in);
    EXPECT_EQ(rig.inject(in), 0u);
    ASSERT_EQ(rig.on_m.size(), 1u);
    EXPECT_EQ(rig.on_m[0], hop(in));
    EXPECT_EQ(rig.on_m[0][6] & 0x80, 0);
}

TEST(ForwardBytes, BytesPastTotalLengthAreTrimmed) {
    ChainRig rig;
    auto in = a_to_b(40).to_wire();
    const std::size_t total = in.size();
    in.insert(in.end(), {0xde, 0xad, 0xbe, 0xef, 0x01});
    EXPECT_EQ(rig.inject(in), 0u);
    ASSERT_EQ(rig.on_m.size(), 1u);
    EXPECT_EQ(rig.on_m[0].size(), total);
    EXPECT_EQ(rig.on_m[0], hop(in));
}

TEST(ForwardBytes, TtlOneIsDroppedAndTraced) {
    ChainRig rig;
    rig.inject(a_to_b(40, /*ttl=*/1).to_wire());
    EXPECT_TRUE(rig.on_m.empty());
    EXPECT_EQ(rig.r1.stack().stats().ttl_drops, 1u);
    EXPECT_EQ(rig.trace.count(sim::TraceKind::TtlExpired), 1u);
}

TEST(ForwardBytes, DontFragmentOverTheOutMtuIsTooBig) {
    ChainRig rig;
    net::Packet p = a_to_b(1000);
    p.header().dont_fragment = true;
    rig.inject(p.to_wire());
    EXPECT_TRUE(rig.on_m.empty());
    EXPECT_EQ(rig.trace.count(sim::TraceKind::FrameTooBig), 1u);
    EXPECT_EQ(rig.r1.stack().stats().fragments_sent, 0u);
}

TEST(ForwardBytes, OverTheOutMtuIsFragmented) {
    ChainRig rig;
    const auto in = a_to_b(1000).to_wire();
    rig.inject(in);
    net::Packet forwarded = net::Packet::from_wire(in);
    --forwarded.header().ttl;
    const auto pieces = net::fragment(forwarded, 576);
    ASSERT_EQ(pieces.size(), 2u);
    ASSERT_EQ(rig.on_m.size(), pieces.size());
    ASSERT_EQ(rig.on_b.size(), pieces.size());
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        EXPECT_EQ(rig.on_m[i], pieces[i].to_wire());
        EXPECT_EQ(rig.on_b[i], hop(pieces[i].to_wire()));  // r2 forwards each fragment
    }
    EXPECT_EQ(rig.r1.stack().stats().fragments_sent, 2u);
    EXPECT_EQ(rig.b.stack().stats().reassembled, 1u);
}

TEST(ForwardBytes, IngressFilterDropIsTracedAndAnswered) {
    ChainRig rig;
    rig.r1.add_ingress_filter(0, std::make_shared<routing::SourceSpoofIngressRule>(
                                     "10.0.1.0/24"_net));
    rig.r1.stack().set_filter_feedback(true);
    ProhibitedCounter prohibited(rig.a);
    const auto in = a_to_b(40).to_wire();
    rig.inject(in);
    EXPECT_TRUE(rig.on_m.empty());
    EXPECT_EQ(rig.r1.stack().stats().ingress_filter_drops, 1u);
    EXPECT_EQ(rig.trace.count(sim::TraceKind::FilterDrop), 1u);
    ASSERT_EQ(prohibited.count, 1);
    // The error quotes the datagram as it arrived.
    EXPECT_EQ(prohibited.body,
              std::vector<std::uint8_t>(in.begin(), in.begin() + net::kIpv4HeaderSize + 8));
}

TEST(ForwardBytes, EgressFilterDropIsTracedAndAnswered) {
    ChainRig rig;
    rig.r1.add_egress_filter(1, std::make_shared<routing::ForeignSourceEgressRule>(
                                    "10.0.9.0/24"_net));
    rig.r1.stack().set_filter_feedback(true);
    ProhibitedCounter prohibited(rig.a);
    const auto in = a_to_b(40).to_wire();
    rig.inject(in);
    EXPECT_TRUE(rig.on_m.empty());
    EXPECT_EQ(rig.r1.stack().stats().egress_filter_drops, 1u);
    EXPECT_EQ(rig.trace.count(sim::TraceKind::FilterDrop), 1u);
    ASSERT_EQ(prohibited.count, 1);
    // Egress filters see the header after the TTL decrement.
    const auto out = hop(in);
    EXPECT_EQ(prohibited.body,
              std::vector<std::uint8_t>(out.begin(), out.begin() + net::kIpv4HeaderSize + 8));
}

TEST(ForwardBytes, HomeAgentInterceptionStillTunnels) {
    core::World world;
    core::CorrespondentHost& ch = world.create_correspondent({}, core::Placement::CorrLan);
    world.create_mobile_host();
    ASSERT_TRUE(world.attach_mobile_foreign());
    const std::size_t tunneled = world.home_agent().stats().packets_tunneled;

    transport::Pinger pinger(ch.stack());
    std::optional<sim::Duration> rtt;
    pinger.ping(world.mh_home_addr(), [&](auto r, auto&&) { rtt = r; }, sim::seconds(5));
    world.run_for(sim::seconds(5));
    ASSERT_TRUE(rtt.has_value());
    EXPECT_EQ(world.home_agent().stats().packets_tunneled, tunneled + 1);
}
