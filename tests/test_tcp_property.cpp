// Property sweeps on the TCP-like transport: any payload size must arrive
// completely and in order, across loss rates and MSS settings.
#include <gtest/gtest.h>

#include "stack/host.h"
#include "transport/tcp_service.h"

using namespace mip;
using namespace mip::net::literals;

namespace {
struct TcpCase {
    std::size_t payload;
    double loss;
    std::size_t mss;
};
}  // namespace

class TcpTransferProperty : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpTransferProperty, DeliversExactlyAndInOrder) {
    const auto [payload_size, loss, mss] = GetParam();

    sim::Simulator sim;
    sim::LinkConfig lcfg;
    lcfg.loss_rate = loss;
    lcfg.seed = payload_size * 7 + mss;
    sim::Link lan(sim, lcfg);
    stack::Host a(sim, "a"), b(sim, "b");
    a.attach(lan, "10.0.0.1"_ip, "10.0.0.0/24"_net);
    b.attach(lan, "10.0.0.2"_ip, "10.0.0.0/24"_net);

    transport::Config tcfg;
    tcfg.mss = mss;
    tcfg.rto = sim::milliseconds(100);
    tcfg.max_retries = 14;
    transport::TcpService tcp_a(a.stack(), tcfg);
    transport::TcpService tcp_b(b.stack(), tcfg);

    // Payload with a recognizable pattern so ordering errors surface.
    std::vector<std::uint8_t> payload(payload_size);
    for (std::size_t i = 0; i < payload_size; ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }

    std::vector<std::uint8_t> received;
    tcp_b.listen(80, [&](transport::TcpConnection& c) {
        c.set_data_callback([&](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            received.insert(received.end(), d.begin(), d.end());
        });
    });
    auto& client = tcp_a.connect("10.0.0.2"_ip, 80);
    client.send(payload);
    sim.run_until(sim::seconds(120));

    ASSERT_EQ(received.size(), payload_size);
    EXPECT_TRUE(std::equal(received.begin(), received.end(), payload.begin()));
    EXPECT_EQ(client.stats().bytes_acked, payload_size);
    if (loss == 0.0) {
        EXPECT_EQ(client.stats().retransmissions, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TcpTransferProperty,
    ::testing::Values(TcpCase{1, 0.0, 1000}, TcpCase{999, 0.0, 1000},
                      TcpCase{1000, 0.0, 1000}, TcpCase{1001, 0.0, 1000},
                      TcpCase{5000, 0.0, 1000}, TcpCase{5000, 0.0, 536},
                      TcpCase{5000, 0.0, 1460}, TcpCase{20000, 0.0, 1000},
                      TcpCase{5000, 0.05, 1000}, TcpCase{5000, 0.15, 1000},
                      TcpCase{12000, 0.10, 536}, TcpCase{1, 0.2, 1000},
                      TcpCase{64, 0.1, 64}, TcpCase{30000, 0.02, 1460}));

class TcpBidirProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TcpBidirProperty, EchoRoundTripIsLossless) {
    const std::size_t n = GetParam();
    sim::Simulator sim;
    sim::Link lan(sim, {});
    stack::Host a(sim, "a"), b(sim, "b");
    a.attach(lan, "10.0.0.1"_ip, "10.0.0.0/24"_net);
    b.attach(lan, "10.0.0.2"_ip, "10.0.0.0/24"_net);
    transport::TcpService tcp_a(a.stack()), tcp_b(b.stack());

    tcp_b.listen(80, [](transport::TcpConnection& c) {
        c.set_data_callback([&c](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            c.send(std::vector<std::uint8_t>(d.begin(), d.end()));
        });
    });
    auto& client = tcp_a.connect("10.0.0.2"_ip, 80);
    std::size_t echoed = 0;
    client.set_data_callback([&](std::span<const std::uint8_t> d, const transport::RxMeta&) { echoed += d.size(); });
    client.send(std::vector<std::uint8_t>(n, 0x3c));
    sim.run_until(sim::seconds(60));
    EXPECT_EQ(echoed, n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TcpBidirProperty,
                         ::testing::Values(1, 100, 1000, 2500, 10000, 40000));
