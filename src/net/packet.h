// A complete IPv4 datagram: parsed header + payload bytes.
//
// Packet is a value type. Encapsulation (IP-in-IP, GRE, minimal
// encapsulation) nests packets by serializing the inner datagram into the
// payload of the outer one, so wire sizes reported by wire_size() are the
// exact byte counts a real network would carry.
//
// Besides the wire content, a packet carries one piece of simulation
// metadata: a *journey id*. The id is assigned by the first IP stack that
// sends the datagram and is preserved across encapsulation, fragmentation
// and reassembly, so every trace event a datagram generates anywhere in
// the network can be correlated into one obs::PacketJourney. The id is
// never serialized — it travels beside the bytes (Packet::journey and
// sim::Frame::journey), exactly like a capture tool's packet number.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv4_header.h"
#include "net/pool.h"

namespace mip::net {

class Packet {
public:
    Packet() = default;

    /// Builds a datagram; fills in header.total_length from the payload size.
    Packet(Ipv4Header header, std::vector<std::uint8_t> payload);

    /// Parses a serialized datagram (validates header checksum and length).
    static Packet from_wire(std::span<const std::uint8_t> bytes);

    /// Serializes header (with fresh checksum) followed by payload.
    std::vector<std::uint8_t> to_wire() const;
    /// Same, but the output vector's storage is drawn from @p pool (the
    /// caller — in practice the link layer — releases it back after use).
    std::vector<std::uint8_t> to_wire(BufferPool& pool) const;

    const Ipv4Header& header() const noexcept { return header_; }
    Ipv4Header& header() noexcept { return header_; }
    std::span<const std::uint8_t> payload() const noexcept { return payload_; }
    std::vector<std::uint8_t>&& take_payload() && noexcept { return std::move(payload_); }

    /// Exact on-the-wire size of this datagram in bytes.
    std::size_t wire_size() const noexcept { return kIpv4HeaderSize + payload_.size(); }

    /// Journey id for trace correlation (0 = not yet assigned). Not part of
    /// the wire format: from_wire() leaves it 0 and the receiving stack
    /// restores it from the carrying frame's metadata.
    std::uint64_t journey() const noexcept { return journey_; }
    void set_journey(std::uint64_t id) noexcept { journey_ = id; }

private:
    Ipv4Header header_;
    std::vector<std::uint8_t> payload_;
    std::uint64_t journey_ = 0;
};

/// Convenience builder for the common case.
Packet make_packet(Ipv4Address src, Ipv4Address dst, IpProto proto,
                   std::vector<std::uint8_t> payload, std::uint8_t ttl = kDefaultTtl,
                   std::uint16_t identification = 0);

}  // namespace mip::net
