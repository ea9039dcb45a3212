#include "net/ipv4_header.h"

#include <array>

#include "net/checksum.h"

namespace mip::net {

namespace {
constexpr std::uint8_t kVersionIhl = 0x45;  // IPv4, 5 x 32-bit words, no options
constexpr std::uint16_t kFlagDf = 0x4000;
constexpr std::uint16_t kFlagMf = 0x2000;
constexpr std::uint16_t kOffsetMask = 0x1fff;
}  // namespace

void Ipv4Header::serialize(std::span<std::uint8_t, kIpv4HeaderSize> out) const {
    const auto put16 = [&out](std::size_t at, std::uint16_t v) {
        out[at] = static_cast<std::uint8_t>(v >> 8);
        out[at + 1] = static_cast<std::uint8_t>(v & 0xff);
    };
    const auto put32 = [&put16](std::size_t at, std::uint32_t v) {
        put16(at, static_cast<std::uint16_t>(v >> 16));
        put16(at + 2, static_cast<std::uint16_t>(v & 0xffff));
    };
    std::uint16_t flags_offset = fragment_offset & kOffsetMask;
    if (dont_fragment) flags_offset |= kFlagDf;
    if (more_fragments) flags_offset |= kFlagMf;
    out[0] = kVersionIhl;
    out[1] = tos;
    put16(2, total_length);
    put16(4, identification);
    put16(6, flags_offset);
    out[8] = ttl;
    out[9] = static_cast<std::uint8_t>(protocol);
    put16(10, 0);  // checksum placeholder
    put32(12, src.value());
    put32(16, dst.value());
    put16(10, internet_checksum(out));
}

void Ipv4Header::serialize(BufferWriter& w) const {
    std::array<std::uint8_t, kIpv4HeaderSize> raw;
    serialize(std::span(raw));
    w.bytes(raw);
}

Ipv4Header Ipv4Header::parse(BufferReader& r) {
    if (r.remaining() < kIpv4HeaderSize) {
        throw ParseError("IPv4 header truncated");
    }
    const auto raw = r.rest().subspan(0, kIpv4HeaderSize);
    if (internet_checksum(raw) != 0) {
        throw ParseError("IPv4 header checksum mismatch");
    }

    Ipv4Header h;
    const std::uint8_t version_ihl = r.u8();
    if (version_ihl != kVersionIhl) {
        throw ParseError("unsupported IPv4 version/IHL byte");
    }
    h.tos = r.u8();
    h.total_length = r.u16();
    h.identification = r.u16();
    const std::uint16_t flags_offset = r.u16();
    h.dont_fragment = (flags_offset & kFlagDf) != 0;
    h.more_fragments = (flags_offset & kFlagMf) != 0;
    h.fragment_offset = flags_offset & kOffsetMask;
    h.ttl = r.u8();
    h.protocol = static_cast<IpProto>(r.u8());
    r.skip(2);  // checksum, already verified over the whole header
    h.src = Ipv4Address(r.u32());
    h.dst = Ipv4Address(r.u32());
    if (h.total_length < kIpv4HeaderSize) {
        throw ParseError("IPv4 total_length shorter than header");
    }
    return h;
}

}  // namespace mip::net
