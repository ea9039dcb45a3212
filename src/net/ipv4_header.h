// Wire-accurate IPv4 header (RFC 791), including fragmentation fields.
//
// Every packet that crosses a simulated link is serialized through this
// header, so encapsulation overheads measured by the benchmarks are exact:
// a plain IPv4 header is 20 bytes, and IP-in-IP encapsulation therefore
// "typically adds 20 bytes to the size of the packet" (paper §3.3).
#pragma once

#include <cstdint>
#include <span>

#include "net/buffer.h"
#include "net/ipv4_address.h"
#include "net/protocol.h"

namespace mip::net {

/// Size of an IPv4 header with no options.
inline constexpr std::size_t kIpv4HeaderSize = 20;

/// Default initial TTL used by hosts in this library.
inline constexpr std::uint8_t kDefaultTtl = 64;

struct Ipv4Header {
    std::uint8_t tos = 0;
    std::uint16_t total_length = 0;  ///< header + payload, filled by serialize helpers
    std::uint16_t identification = 0;
    bool dont_fragment = false;
    bool more_fragments = false;
    std::uint16_t fragment_offset = 0;  ///< in 8-byte units
    std::uint8_t ttl = kDefaultTtl;
    IpProto protocol = IpProto::Udp;
    Ipv4Address src;
    Ipv4Address dst;

    /// Serializes the 20-byte header with a correct checksum. @p total_length
    /// must already be set (see Packet::build).
    void serialize(BufferWriter& w) const;
    /// The same 20 bytes written over @p out — the one field layout both
    /// forms share, so a router rewriting a received header in place
    /// produces exactly the bytes Packet::to_wire() would.
    void serialize(std::span<std::uint8_t, kIpv4HeaderSize> out) const;

    /// Parses and validates a header; throws ParseError on malformed input
    /// or checksum mismatch.
    static Ipv4Header parse(BufferReader& r);

    bool is_fragment() const noexcept { return more_fragments || fragment_offset != 0; }
};

}  // namespace mip::net
