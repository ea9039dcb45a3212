#include <gtest/gtest.h>

#include "stack/host.h"
#include "net/udp_header.h"
#include "transport/udp_service.h"

using namespace mip;
using namespace mip::net::literals;

namespace {
struct UdpRig {
    sim::Simulator sim;
    sim::Link lan{sim, {}};
    stack::Host a{sim, "a"}, b{sim, "b"};
    transport::UdpService udp_a{a.stack()};
    transport::UdpService udp_b{b.stack()};

    UdpRig() {
        a.attach(lan, "10.0.0.1"_ip, "10.0.0.0/24"_net);
        b.attach(lan, "10.0.0.2"_ip, "10.0.0.0/24"_net);
    }
};
}  // namespace

TEST(Udp, DatagramDelivery) {
    UdpRig rig;
    auto server = rig.udp_b.open(7777);
    std::vector<std::uint8_t> got;
    transport::Endpoint from;
    server->set_receiver([&](auto data, const transport::RxMeta& meta) {
        got.assign(data.begin(), data.end());
        from = meta.peer;
    });

    auto client = rig.udp_a.open();
    client->send_to("10.0.0.2"_ip, 7777, {1, 2, 3, 4});
    rig.sim.run();

    EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3, 4}));
    EXPECT_EQ(from.addr, "10.0.0.1"_ip);
    EXPECT_EQ(from.port, client->port());
}

TEST(Udp, ReplyPath) {
    UdpRig rig;
    auto server = rig.udp_b.open(7777);
    server->set_receiver([&](auto data, const transport::RxMeta& meta) {
        std::vector<std::uint8_t> echo(data.begin(), data.end());
        server->send_to(meta.peer.addr, meta.peer.port, std::move(echo));
    });
    auto client = rig.udp_a.open();
    std::vector<std::uint8_t> reply;
    client->set_receiver([&](auto data, const transport::RxMeta&) {
        reply.assign(data.begin(), data.end());
    });
    client->send_to("10.0.0.2"_ip, 7777, {9, 9});
    rig.sim.run();
    EXPECT_EQ(reply, (std::vector<std::uint8_t>{9, 9}));
}

TEST(Udp, EphemeralPortsAreDistinct) {
    UdpRig rig;
    auto s1 = rig.udp_a.open();
    auto s2 = rig.udp_a.open();
    EXPECT_NE(s1->port(), s2->port());
}

TEST(Udp, DuplicatePortRejected) {
    UdpRig rig;
    auto s1 = rig.udp_a.open(1234);
    EXPECT_THROW(rig.udp_a.open(1234), std::invalid_argument);
}

TEST(Udp, PortReusableAfterClose) {
    UdpRig rig;
    rig.udp_a.open(1234).reset();
    EXPECT_NO_THROW(rig.udp_a.open(1234));
}

TEST(Udp, UnboundPortDatagramsIgnored) {
    UdpRig rig;
    auto client = rig.udp_a.open();
    client->send_to("10.0.0.2"_ip, 9999, {1});
    rig.sim.run();  // no crash, silently dropped
    EXPECT_EQ(rig.b.stack().stats().packets_delivered, 1u);  // delivered to UDP, no socket
}

TEST(Udp, BoundSourceAddressUsed) {
    UdpRig rig;
    rig.a.stack().add_local_address("172.16.5.5"_ip);
    auto server = rig.udp_b.open(7777);
    net::Ipv4Address seen_src;
    server->set_receiver([&](auto, const transport::RxMeta& meta) {
        seen_src = meta.peer.addr;
    });
    auto client = rig.udp_a.open();
    client->bind_address("172.16.5.5"_ip);
    client->send_to("10.0.0.2"_ip, 7777, {1});
    rig.sim.run();
    EXPECT_EQ(seen_src, "172.16.5.5"_ip);
}

TEST(Udp, ReceiverSeesDestinationAddress) {
    UdpRig rig;
    rig.b.stack().add_local_address("10.9.9.9"_ip);
    auto server = rig.udp_b.open(7777);
    net::Ipv4Address seen_dst;
    server->set_receiver([&](auto, const transport::RxMeta& meta) {
        seen_dst = meta.local_addr;
    });

    // Deliver a datagram addressed to the extra local address by link-layer
    // delivery (policy-routed on-link), as In-DH would.
    struct OnLink : stack::RouteResolver {
        std::optional<stack::Resolution> resolve(const stack::FlowKey& f) override {
            if (f.dst == "10.9.9.9"_ip) {
                return stack::Resolution::via_interface(0, "10.0.0.2"_ip);
            }
            return std::nullopt;
        }
    } policy;
    rig.a.stack().set_policy_resolver(&policy);

    net::UdpHeader u;
    u.src_port = 5555;
    u.dst_port = 7777;
    net::BufferWriter w;
    u.serialize(w, "10.0.0.1"_ip, "10.9.9.9"_ip, std::vector<std::uint8_t>{1});
    rig.a.stack().send(net::make_packet("10.0.0.1"_ip, "10.9.9.9"_ip, net::IpProto::Udp,
                                        w.take()));
    rig.sim.run();
    EXPECT_EQ(seen_dst, "10.9.9.9"_ip);
    rig.a.stack().set_policy_resolver(nullptr);
}
