// UDP sockets over an IpStack.
//
// Bind semantics follow the paper's §7.1.1: "mobile-aware applications
// indicate their preferences to the networking software by binding their
// sockets to specific addresses." A socket bound to a physical interface
// address sends with that exact source (Out-DT); an unbound socket (or one
// bound to the home address) lets the policy layer decide.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "stack/ip_stack.h"
#include "transport/cc/controller.h"
#include "transport/endpoint.h"

namespace mip::transport {

class UdpService;

class UdpSocket {
public:
    /// Unified receive contract (transport/endpoint.h): payload first,
    /// delivery metadata second. meta.peer is the sender, meta.local_addr
    /// the *destination address the datagram carried* (so services can see
    /// which of their addresses was used), meta.journey its trace journey.
    using Receiver = std::function<void(std::span<const std::uint8_t> data, const RxMeta& meta)>;

    ~UdpSocket();
    UdpSocket(const UdpSocket&) = delete;
    UdpSocket& operator=(const UdpSocket&) = delete;

    void set_receiver(Receiver r) { receiver_ = std::move(r); }

    /// Explicitly binds the source address for outgoing datagrams.
    void bind_address(net::Ipv4Address addr) { bound_addr_ = addr; }
    net::Ipv4Address bound_address() const noexcept { return bound_addr_; }

    /// @p retransmission implements the paper's §7.1.2 proposal that "all
    /// IP clients could indicate, for every IP packet they send ...
    /// whether the packet is an 'original' packet or a retransmission" —
    /// an application-level resend flagged here feeds the mobility
    /// policy's delivery-failure detection.
    void send_to(net::Ipv4Address dst, std::uint16_t dst_port,
                 std::vector<std::uint8_t> data, bool retransmission = false);

    /// Optional congestion-feedback tap (ISSUE 10): when set, every
    /// datagram this socket sends is reported to the controller as a sent
    /// sample. UDP has no acks, so this is send-side-only telemetry; the
    /// caller owns the controller's lifetime.
    void set_feedback(cc::CongestionController* cc) noexcept { feedback_ = cc; }

    std::uint16_t port() const noexcept { return port_; }

private:
    friend class UdpService;
    UdpSocket(UdpService& service, std::uint16_t port) : service_(service), port_(port) {}

    UdpService& service_;
    std::uint16_t port_;
    net::Ipv4Address bound_addr_;
    Receiver receiver_;
    cc::CongestionController* feedback_ = nullptr;
};

class UdpService {
public:
    explicit UdpService(stack::IpStack& ip);
    UdpService(const UdpService&) = delete;
    UdpService& operator=(const UdpService&) = delete;

    /// Opens a socket on @p port (0 = pick an ephemeral port). The returned
    /// socket is owned by the caller; destroying it closes the port.
    std::unique_ptr<UdpSocket> open(std::uint16_t port = 0);

    stack::IpStack& ip() noexcept { return ip_; }

private:
    friend class UdpSocket;
    void close(std::uint16_t port);
    void on_packet(const net::Packet& packet);

    stack::IpStack& ip_;
    std::map<std::uint16_t, UdpSocket*> sockets_;
    std::uint16_t next_ephemeral_ = 49152;
};

}  // namespace mip::transport
