// Exact allocation gates for the per-frame and per-datagram paths: once a
// segment has warmed up, putting a unicast frame on the wire, delivering
// it and returning its payload to the buffer pool makes no heap
// allocation at all, and a UDP datagram sent across a LAN and delivered
// to a socket makes a fixed, pinned number.
//
// This is its own test binary because it replaces the global operator
// new (every form the program can reach) with a counting one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "net/ipv4_address.h"
#include "sim/link.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "stack/host.h"
#include "transport/udp_service.h"

namespace {

bool counting = false;
std::size_t allocations = 0;

void* allocate(std::size_t size, std::size_t alignment) {
    if (counting) ++allocations;
    void* p = nullptr;
    if (posix_memalign(&p, std::max(alignment, sizeof(void*)), size == 0 ? 1 : size) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size, alignof(std::max_align_t)); }
void* operator new[](std::size_t size) { return allocate(size, alignof(std::max_align_t)); }
void* operator new(std::size_t size, std::align_val_t al) {
    return allocate(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
    return allocate(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

using namespace mip::sim;

TEST(LinkAlloc, UnicastFramesAcrossACrowdedSegmentAllocateNothing) {
    // grid_udp's shared LAN: 97 stations on one segment.
    constexpr std::size_t kStations = 97;
    constexpr std::size_t kFrames = 1000;
    constexpr std::size_t kBurst = 4;  // frames on the wire at once

    Simulator sim;
    Link link(sim, {});
    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<Nic*> nics;
    std::size_t delivered = 0;
    std::size_t misdelivered = 0;
    for (std::size_t i = 0; i < kStations; ++i) {
        nodes.push_back(std::make_unique<Node>(sim, "s" + std::to_string(i)));
        nics.push_back(&nodes.back()->add_nic());
        nics.back()->connect(link);
        nics.back()->set_handler([&, i](const Frame& f) {
            ++delivered;
            if (f.payload.size() != 32 || f.payload[0] != i) ++misdelivered;
        });
    }

    // Each frame: a pooled payload from one station to another, delivered
    // and handed back to the pool by the link.
    const auto send_frames = [&] {
        for (std::size_t n = 0; n < kFrames; n += kBurst) {
            for (std::size_t k = n; k < n + kBurst; ++k) {
                const std::size_t from = k % kStations;
                const std::size_t to = (from + 1 + k % (kStations - 1)) % kStations;
                Frame f;
                f.dst = nics[to]->mac();
                f.payload = sim.buffer_pool().acquire(32);
                f.payload.assign(32, static_cast<std::uint8_t>(to));
                nics[from]->send(std::move(f));
            }
            sim.run();
        }
    };

    send_frames();  // warm-up: event slab, pool free list, in-flight table
    const std::uint64_t fresh_before =
        sim.buffer_pool().stats().acquires - sim.buffer_pool().stats().reuses;
    delivered = 0;

    allocations = 0;
    counting = true;
    send_frames();
    counting = false;

    EXPECT_EQ(allocations, 0u) << "heap allocations over " << kFrames << " frames";
    EXPECT_EQ(misdelivered, 0u);
    EXPECT_EQ(delivered, kFrames);
    EXPECT_EQ(sim.buffer_pool().stats().acquires - sim.buffer_pool().stats().reuses,
              fresh_before)
        << "every payload must come back to the pool";
}

TEST(LinkAlloc, UdpDatagramsDeliveredLocallyAllocateAFixedCount) {
    // Per datagram, after warm-up: the caller's payload vector, the
    // sender's UDP serialization buffer and the packet the receiving
    // stack builds from the frame. Local delivery dispatches that packet
    // as received; copying it before dispatch would make a fourth.
    constexpr std::size_t kDatagrams = 1000;
    constexpr std::size_t kAllocationsPerDatagram = 3;

    using namespace mip::net::literals;
    Simulator sim;
    Link lan(sim, {});
    mip::stack::Host a(sim, "a");
    mip::stack::Host b(sim, "b");
    mip::transport::UdpService udp_a(a.stack());
    mip::transport::UdpService udp_b(b.stack());
    a.attach(lan, "10.0.0.1"_ip, "10.0.0.0/24"_net);
    b.attach(lan, "10.0.0.2"_ip, "10.0.0.0/24"_net);

    std::size_t received = 0;
    std::size_t corrupted = 0;
    auto server = udp_b.open(7777);
    server->set_receiver([&](std::span<const std::uint8_t> data, const auto&) {
        ++received;
        if (data.size() != 32 || data[0] != 0x5a) ++corrupted;
    });
    auto client = udp_a.open();
    const auto send_datagrams = [&] {
        for (std::size_t n = 0; n < kDatagrams; ++n) {
            client->send_to("10.0.0.2"_ip, 7777, std::vector<std::uint8_t>(32, 0x5a));
            sim.run();
        }
    };

    send_datagrams();  // warm-up: ARP, event slab, pool free list
    received = 0;

    allocations = 0;
    counting = true;
    send_datagrams();
    counting = false;

    EXPECT_EQ(allocations, kDatagrams * kAllocationsPerDatagram)
        << "heap allocations over " << kDatagrams << " datagrams";
    EXPECT_EQ(received, kDatagrams);
    EXPECT_EQ(corrupted, 0u);
}
