#include "net/packet.h"

namespace mip::net {

Packet::Packet(Ipv4Header header, std::vector<std::uint8_t> payload)
    : header_(header), payload_(std::move(payload)) {
    header_.total_length = static_cast<std::uint16_t>(kIpv4HeaderSize + payload_.size());
}

Packet Packet::from_wire(std::span<const std::uint8_t> bytes) {
    BufferReader r(bytes);
    Ipv4Header h = Ipv4Header::parse(r);
    if (h.total_length > bytes.size()) {
        throw ParseError("IPv4 total_length exceeds captured bytes");
    }
    const std::size_t payload_len = h.total_length - kIpv4HeaderSize;
    auto payload = r.bytes(payload_len);
    Packet p;
    p.header_ = h;
    p.payload_.assign(payload.begin(), payload.end());
    return p;
}

std::vector<std::uint8_t> Packet::to_wire() const {
    BufferWriter w(wire_size());
    Ipv4Header h = header_;
    h.total_length = static_cast<std::uint16_t>(wire_size());
    h.serialize(w);
    w.bytes(payload_);
    return w.take();
}

std::vector<std::uint8_t> Packet::to_wire(BufferPool& pool) const {
    BufferWriter w(pool.acquire(wire_size()));
    Ipv4Header h = header_;
    h.total_length = static_cast<std::uint16_t>(wire_size());
    h.serialize(w);
    w.bytes(payload_);
    return w.take();
}

Packet make_packet(Ipv4Address src, Ipv4Address dst, IpProto proto,
                   std::vector<std::uint8_t> payload, std::uint8_t ttl,
                   std::uint16_t identification) {
    Ipv4Header h;
    h.src = src;
    h.dst = dst;
    h.protocol = proto;
    h.ttl = ttl;
    h.identification = identification;
    return Packet(h, std::move(payload));
}

}  // namespace mip::net
