// Shared measurement helpers for the per-figure benchmark harnesses.
//
// Each bench binary regenerates one figure of the paper: it builds the
// figure's scenario on the simulator, measures deliverability / latency /
// hops / wire bytes, prints the figure's table, and then runs its
// google-benchmark microbenchmarks.
//
// The CLI/environment contract (--smoke, --seeds, --jobs, --metrics-dir,
// --perfetto and their M4X4_* equivalents), the export_* helpers and the
// M4X4_BENCH_MAIN macro live in harness.h — figures receive a parsed
// bench::HarnessOptions instead of reading getenv themselves.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "harness.h"
#include "transport/pinger.h"

namespace bench {

struct PingResult {
    bool delivered = false;
    double rtt_ms = 0.0;
    std::size_t ip_hops = 0;   ///< IPv4 frame transmissions for the exchange
    std::size_t ip_bytes = 0;  ///< IPv4 bytes on the wire for the exchange
};

/// Round-trips one ICMP echo from @p from to @p dst and reports latency and
/// the wire cost of the whole exchange. By default a warm-up ping runs
/// first so ARP resolution (and any binding learning) is excluded from the
/// measurement; pass warm_up=false to observe cold-path behaviour.
///
/// Trace contract: this helper OWNS world.trace for the duration of the
/// call. The trace is reset when measurement starts — hops/bytes cover
/// exactly this exchange plus whatever background traffic (agent adverts,
/// re-registrations) the scenario generates inside the measurement window —
/// and any trace contents the caller accumulated beforehand are discarded.
/// Callers that inspect the trace must do so before calling, or re-drive
/// the traffic afterwards.
inline PingResult measure_ping(mip::core::World& world, mip::stack::IpStack& from,
                               mip::net::Ipv4Address dst,
                               mip::net::Ipv4Address src = {}, bool warm_up = true,
                               std::size_t payload = 56) {
    mip::transport::Pinger pinger(from);
    if (warm_up) {
        pinger.ping(dst, [](auto, auto&&) {}, mip::sim::seconds(5), payload, src);
        world.run_for(mip::sim::seconds(6));
    }
    world.trace.clear();
    // The measurement window must open on an empty trace, or the hop/byte
    // attribution below silently includes someone else's packets.
    assert(world.trace.events().empty() && world.trace.ip_hops() == 0);
    PingResult result;
    std::optional<mip::sim::Duration> measured_rtt;
    pinger.ping(
        dst,
        [&](std::optional<mip::sim::Duration> rtt, const mip::transport::RxMeta&) {
            result.delivered = rtt.has_value();
            measured_rtt = rtt;
            if (rtt) result.rtt_ms = mip::sim::to_milliseconds(*rtt);
        },
        mip::sim::seconds(5), payload, src);
    world.run_for(mip::sim::seconds(6));
    result.ip_hops = world.trace.ip_hops();
    result.ip_bytes = world.trace.ip_tx_bytes();
    // Feed the distribution metrics the snapshot schema exposes: one RTT
    // and one hop-count observation per measured exchange, recorded under
    // the probing node.
    const std::string& probe_node = from.node().name();
    if (measured_rtt) {
        world.metrics
            .histogram(probe_node, "probe", "rtt_ns", mip::obs::rtt_bounds_ns())
            .observe(static_cast<double>(*measured_rtt));
    }
    world.metrics.histogram(probe_node, "probe", "ip_hops", mip::obs::hop_bounds())
        .observe(static_cast<double>(result.ip_hops));
    return result;
}

struct TransferResult {
    bool completed = false;
    double duration_ms = 0.0;
    std::size_t ip_bytes = 0;
    std::size_t retransmissions = 0;
    double goodput_kbps = 0.0;
};

/// Opens a TCP connection from @p client to @p server_addr:@p port, pushes
/// @p payload_bytes through it, and waits (bounded) for full acknowledgment.
/// Same trace contract as measure_ping: world.trace is reset at the start
/// of the measurement window.
inline TransferResult measure_tcp_transfer(mip::core::World& world,
                                           mip::transport::TcpService& client,
                                           mip::net::Ipv4Address server_addr,
                                           std::uint16_t port, std::size_t payload_bytes,
                                           mip::sim::Duration limit = mip::sim::seconds(60)) {
    world.trace.clear();
    const auto start = world.sim.now();
    auto& conn = client.connect(server_addr, port);
    conn.send(std::vector<std::uint8_t>(payload_bytes, 0x55));

    const auto deadline = start + limit;
    while (world.sim.now() < deadline && conn.stats().bytes_acked < payload_bytes &&
           conn.alive()) {
        world.run_for(mip::sim::milliseconds(50));
    }
    TransferResult r;
    r.completed = conn.stats().bytes_acked >= payload_bytes;
    r.duration_ms = mip::sim::to_milliseconds(world.sim.now() - start);
    r.ip_bytes = world.trace.ip_tx_bytes();
    r.retransmissions = conn.stats().retransmissions;
    if (r.completed && r.duration_ms > 0) {
        r.goodput_kbps = static_cast<double>(payload_bytes) * 8.0 / r.duration_ms;
    }
    conn.close();
    return r;
}

inline void print_header(const char* figure, const char* caption) {
    std::printf("==============================================================================\n");
    std::printf("%s\n%s\n", figure, caption);
    std::printf("==============================================================================\n");
}

inline const char* yn(bool b) { return b ? "yes" : "no"; }

/// Nearest-rank-below percentile: element floor(p * (n - 1)) of the
/// sorted samples; 0 for an empty set.
inline double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

}  // namespace bench
