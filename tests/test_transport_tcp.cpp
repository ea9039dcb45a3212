#include <gtest/gtest.h>

#include <set>

#include "stack/host.h"
#include "transport/tcp_service.h"

using namespace mip;
using namespace mip::net::literals;

namespace {
struct TcpRig {
    sim::Simulator sim;
    sim::Link lan;
    stack::Host a{sim, "a"}, b{sim, "b"};
    transport::TcpService tcp_a{a.stack()};
    transport::TcpService tcp_b{b.stack()};

    explicit TcpRig(double loss = 0.0)
        : lan(sim, sim::LinkConfig{.name = "lan", .loss_rate = loss, .seed = 7}) {
        a.attach(lan, "10.0.0.1"_ip, "10.0.0.0/24"_net);
        b.attach(lan, "10.0.0.2"_ip, "10.0.0.0/24"_net);
    }
};

std::vector<std::uint8_t> bytes(std::size_t n, std::uint8_t fill = 0x61) {
    return std::vector<std::uint8_t>(n, fill);
}
}  // namespace

TEST(Tcp, ThreeWayHandshake) {
    TcpRig rig;
    transport::TcpConnection* accepted = nullptr;
    rig.tcp_b.listen(80, [&](transport::TcpConnection& c) { accepted = &c; });
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    rig.sim.run();
    ASSERT_NE(accepted, nullptr);
    EXPECT_TRUE(client.established());
    EXPECT_TRUE(accepted->established());
    EXPECT_EQ(client.endpoints().local_addr, "10.0.0.1"_ip);
    EXPECT_EQ(client.endpoints().remote_addr, "10.0.0.2"_ip);
}

TEST(Tcp, ConnectionRefusedGetsRst) {
    TcpRig rig;
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 81);  // nobody listening
    rig.sim.run();
    EXPECT_EQ(client.state(), transport::TcpState::Reset);
}

TEST(Tcp, DataTransfer) {
    TcpRig rig;
    std::vector<std::uint8_t> received;
    rig.tcp_b.listen(80, [&](transport::TcpConnection& c) {
        c.set_data_callback([&](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            received.insert(received.end(), d.begin(), d.end());
        });
    });
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    client.send(bytes(5000));
    rig.sim.run();
    EXPECT_EQ(received.size(), 5000u);
    EXPECT_EQ(client.stats().bytes_acked, 5000u);
    EXPECT_EQ(client.stats().retransmissions, 0u);
}

TEST(Tcp, BidirectionalTransfer) {
    TcpRig rig;
    std::size_t server_got = 0, client_got = 0;
    rig.tcp_b.listen(80, [&](transport::TcpConnection& c) {
        c.set_data_callback([&, &c = c](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            server_got += d.size();
            c.send(bytes(d.size() * 2, 0x62));  // reply with double
        });
    });
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    client.set_data_callback(
        [&](std::span<const std::uint8_t> d, const transport::RxMeta&) { client_got += d.size(); });
    client.send(bytes(1000));
    rig.sim.run();
    EXPECT_EQ(server_got, 1000u);
    EXPECT_EQ(client_got, 2000u);
}

TEST(Tcp, RetransmissionRecoversFromLoss) {
    TcpRig rig(/*loss=*/0.15);
    std::vector<std::uint8_t> received;
    rig.tcp_b.listen(80, [&](transport::TcpConnection& c) {
        c.set_data_callback([&](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            received.insert(received.end(), d.begin(), d.end());
        });
    });
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    client.send(bytes(20000));
    rig.sim.run();
    EXPECT_EQ(received.size(), 20000u);
    EXPECT_GT(client.stats().retransmissions, 0u);
}

TEST(Tcp, OrderlyClose) {
    TcpRig rig;
    transport::TcpConnection* server_conn = nullptr;
    rig.tcp_b.listen(80, [&](transport::TcpConnection& c) {
        server_conn = &c;
        c.set_state_callback([&c = c](transport::TcpState s) {
            if (s == transport::TcpState::CloseWait) {
                c.close();  // close our side when the peer closes
            }
        });
    });
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    client.send(bytes(100));
    rig.sim.run_until(sim::seconds(2));
    client.close();
    rig.sim.run();
    ASSERT_NE(server_conn, nullptr);
    EXPECT_EQ(client.state(), transport::TcpState::Closed);
    EXPECT_EQ(server_conn->state(), transport::TcpState::Closed);
}

TEST(Tcp, AbortSendsRst) {
    TcpRig rig;
    transport::TcpConnection* server_conn = nullptr;
    rig.tcp_b.listen(80, [&](transport::TcpConnection& c) { server_conn = &c; });
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    rig.sim.run();
    ASSERT_TRUE(client.established());
    client.abort();
    rig.sim.run();
    EXPECT_EQ(client.state(), transport::TcpState::Reset);
    ASSERT_NE(server_conn, nullptr);
    EXPECT_EQ(server_conn->state(), transport::TcpState::Reset);
}

TEST(Tcp, UnreachablePeerFailsAfterRetries) {
    transport::Config cfg;
    cfg.max_retries = 3;
    cfg.rto = sim::milliseconds(50);

    sim::Simulator sim;
    sim::Link lan(sim, {});
    stack::Host a(sim, "a");
    a.attach(lan, "10.0.0.1"_ip, "10.0.0.0/24"_net);
    transport::TcpService tcp(a.stack(), cfg);

    auto& client = tcp.connect("10.0.0.99"_ip, 80);  // nobody there
    sim.run();
    EXPECT_EQ(client.state(), transport::TcpState::Failed);
    EXPECT_GE(client.stats().retransmissions, 3u);
}

TEST(Tcp, RetransmitObserverSeesOutboundAndInbound) {
    TcpRig rig(/*loss=*/0.2);
    int outbound = 0, inbound = 0;
    rig.tcp_a.set_retransmit_observer(
        [&](const transport::TcpEndpoints&, bool in) { in ? ++inbound : ++outbound; });
    rig.tcp_b.listen(80, [&](transport::TcpConnection& c) {
        c.set_data_callback([](auto, auto&&) {});
    });
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    client.send(bytes(30000));
    rig.sim.run();
    EXPECT_GT(outbound + inbound, 0);
}

TEST(Tcp, ProgressObserverFires) {
    TcpRig rig;
    int progress = 0;
    rig.tcp_a.set_progress_observer([&](const transport::TcpEndpoints&) { ++progress; });
    rig.tcp_b.listen(80, [](transport::TcpConnection&) {});
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    client.send(bytes(3000));
    rig.sim.run();
    EXPECT_GT(progress, 1);
}

TEST(Tcp, BoundSourcePinsEndpoint) {
    TcpRig rig;
    rig.a.stack().add_local_address("172.16.1.1"_ip);
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80, "172.16.1.1"_ip);
    EXPECT_EQ(client.endpoints().local_addr, "172.16.1.1"_ip);
}

TEST(Tcp, ReapRemovesDeadConnections) {
    TcpRig rig;
    rig.tcp_b.listen(80, [](transport::TcpConnection&) {});
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    rig.sim.run();
    client.abort();
    rig.sim.run();
    EXPECT_EQ(rig.tcp_a.connection_count(), 1u);
    rig.tcp_a.reap();
    EXPECT_EQ(rig.tcp_a.connection_count(), 0u);
}

TEST(Tcp, SendAfterCloseIsIgnored) {
    TcpRig rig;
    rig.tcp_b.listen(80, [](transport::TcpConnection&) {});
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    rig.sim.run();
    client.close();
    const auto sent_before = client.stats().bytes_sent;
    client.send(bytes(100));
    EXPECT_EQ(client.stats().bytes_sent, sent_before);
}

TEST(Tcp, EndpointsToString) {
    transport::TcpEndpoints ep;
    ep.local_addr = "10.0.0.1"_ip;
    ep.local_port = 1234;
    ep.remote_addr = "10.0.0.2"_ip;
    ep.remote_port = 80;
    EXPECT_EQ(ep.to_string(), "10.0.0.1:1234 <-> 10.0.0.2:80");
}

TEST(Tcp, StopListeningRefusesNewConnections) {
    TcpRig rig;
    rig.tcp_b.listen(80, [](transport::TcpConnection&) {});
    rig.tcp_b.stop_listening(80);
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    rig.sim.run();
    EXPECT_EQ(client.state(), transport::TcpState::Reset);
}

TEST(Tcp, ManySimultaneousConnections) {
    TcpRig rig;
    std::size_t accepted = 0;
    rig.tcp_b.listen(80, [&](transport::TcpConnection& c) {
        ++accepted;
        c.set_data_callback([&c](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            c.send(std::vector<std::uint8_t>(d.begin(), d.end()));
        });
    });
    std::vector<transport::TcpConnection*> conns;
    std::vector<std::size_t> echoed(10, 0);
    for (int i = 0; i < 10; ++i) {
        auto& c = rig.tcp_a.connect("10.0.0.2"_ip, 80);
        c.set_data_callback([&echoed, i](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            echoed[static_cast<std::size_t>(i)] += d.size();
        });
        c.send(bytes(100 * (i + 1)));
        conns.push_back(&c);
    }
    rig.sim.run_until(sim::seconds(30));
    EXPECT_EQ(accepted, 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(conns[static_cast<std::size_t>(i)]->established()) << i;
        EXPECT_EQ(echoed[static_cast<std::size_t>(i)], 100u * (i + 1)) << i;
    }
    EXPECT_EQ(rig.tcp_a.connection_count(), 10u);
}

TEST(Tcp, DistinctEphemeralPortsAcrossConnections) {
    TcpRig rig;
    rig.tcp_b.listen(80, [](transport::TcpConnection&) {});
    std::set<std::uint16_t> ports;
    for (int i = 0; i < 20; ++i) {
        ports.insert(rig.tcp_a.connect("10.0.0.2"_ip, 80).endpoints().local_port);
    }
    EXPECT_EQ(ports.size(), 20u);
}

TEST(Tcp, ServerInitiatedClose) {
    TcpRig rig;
    rig.tcp_b.listen(80, [](transport::TcpConnection& c) {
        c.set_data_callback([&c](std::span<const std::uint8_t>, const transport::RxMeta&) {
            c.send(bytes(10));
            c.close();  // server closes first
        });
    });
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    bool saw_close_wait = false;
    client.set_state_callback([&](transport::TcpState s) {
        if (s == transport::TcpState::CloseWait) {
            saw_close_wait = true;
            client.close();
        }
    });
    client.send(bytes(5));
    rig.sim.run_until(sim::seconds(10));
    EXPECT_TRUE(saw_close_wait);
    EXPECT_EQ(client.state(), transport::TcpState::Closed);
}

TEST(Tcp, DataWhileClosingIsStillDelivered) {
    TcpRig rig;
    std::size_t server_got = 0;
    rig.tcp_b.listen(80, [&](transport::TcpConnection& c) {
        c.set_data_callback(
            [&](std::span<const std::uint8_t> d, const transport::RxMeta&) { server_got += d.size(); });
    });
    auto& client = rig.tcp_a.connect("10.0.0.2"_ip, 80);
    client.send(bytes(4000));
    client.close();  // FIN is queued behind the data
    rig.sim.run_until(sim::seconds(10));
    EXPECT_EQ(server_got, 4000u);
}
