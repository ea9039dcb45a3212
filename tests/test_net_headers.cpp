// Wire-format round trips and checksum validation for all header types.
#include <gtest/gtest.h>

#include "net/buffer.h"
#include "net/checksum.h"
#include "net/icmp.h"
#include "net/ipv4_header.h"
#include "net/packet.h"
#include "net/tcp_header.h"
#include "net/udp_header.h"

using namespace mip::net;
using namespace mip::net::literals;

TEST(Checksum, KnownVector) {
    // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2, checksum 220d.
    const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthAndIncrementalEquivalence) {
    const std::uint8_t data[] = {0x01, 0x02, 0x03, 0x04, 0x05};
    ChecksumAccumulator a;
    a.add(std::span(data, 2));
    a.add(std::span(data + 2, 3));
    EXPECT_EQ(a.finish(), internet_checksum(data));
}

TEST(Checksum, SplitAtOddBoundary) {
    const std::uint8_t data[] = {0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77};
    ChecksumAccumulator a;
    a.add(std::span(data, 3));  // leaves a pending odd byte
    a.add(std::span(data + 3, 4));
    EXPECT_EQ(a.finish(), internet_checksum(data));
}

TEST(Ipv4Header, RoundTrip) {
    Ipv4Header h;
    h.src = "10.1.0.10"_ip;
    h.dst = "10.3.0.2"_ip;
    h.protocol = IpProto::Udp;
    h.ttl = 17;
    h.identification = 4242;
    h.total_length = kIpv4HeaderSize + 100;
    h.dont_fragment = true;

    BufferWriter w;
    h.serialize(w);
    ASSERT_EQ(w.size(), kIpv4HeaderSize);

    BufferReader r(w.view());
    const Ipv4Header parsed = Ipv4Header::parse(r);
    EXPECT_EQ(parsed.src, h.src);
    EXPECT_EQ(parsed.dst, h.dst);
    EXPECT_EQ(parsed.protocol, IpProto::Udp);
    EXPECT_EQ(parsed.ttl, 17);
    EXPECT_EQ(parsed.identification, 4242);
    EXPECT_TRUE(parsed.dont_fragment);
    EXPECT_FALSE(parsed.more_fragments);
}

TEST(Ipv4Header, CorruptionDetected) {
    Ipv4Header h;
    h.src = "1.2.3.4"_ip;
    h.dst = "5.6.7.8"_ip;
    h.total_length = kIpv4HeaderSize;
    BufferWriter w;
    h.serialize(w);
    auto bytes = w.take();
    bytes[8] ^= 0xff;  // corrupt the TTL
    BufferReader r(bytes);
    EXPECT_THROW(Ipv4Header::parse(r), ParseError);
}

TEST(Ipv4Header, TruncatedRejected) {
    const std::uint8_t partial[10] = {0x45};
    BufferReader r(partial);
    EXPECT_THROW(Ipv4Header::parse(r), ParseError);
}

TEST(Udp, RoundTripWithChecksum) {
    const std::vector<std::uint8_t> payload = {'h', 'e', 'l', 'l', 'o'};
    UdpHeader u;
    u.src_port = 49152;
    u.dst_port = 53;
    BufferWriter w;
    u.serialize(w, "10.0.0.1"_ip, "10.0.0.2"_ip, payload);
    ASSERT_EQ(w.size(), kUdpHeaderSize + payload.size());

    BufferReader r(w.view());
    const UdpHeader parsed = UdpHeader::parse(r, "10.0.0.1"_ip, "10.0.0.2"_ip);
    EXPECT_EQ(parsed.src_port, 49152);
    EXPECT_EQ(parsed.dst_port, 53);
    EXPECT_EQ(parsed.length, kUdpHeaderSize + payload.size());
}

TEST(Udp, PseudoHeaderCoversAddresses) {
    // The same datagram parsed with the wrong IP addresses must fail: the
    // pseudo-header ties the UDP checksum to the IP endpoints.
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    UdpHeader u;
    u.src_port = 1000;
    u.dst_port = 2000;
    BufferWriter w;
    u.serialize(w, "10.0.0.1"_ip, "10.0.0.2"_ip, payload);
    BufferReader r(w.view());
    EXPECT_THROW(UdpHeader::parse(r, "10.0.0.1"_ip, "10.0.0.99"_ip), ParseError);
}

TEST(Tcp, RoundTrip) {
    const std::vector<std::uint8_t> payload(37, 0xab);
    TcpHeader t;
    t.src_port = 40000;
    t.dst_port = 80;
    t.seq = 123456;
    t.ack = 654321;
    t.flags = kTcpAck | kTcpPsh;
    BufferWriter w;
    t.serialize(w, "10.0.0.1"_ip, "10.0.0.2"_ip, payload);

    BufferReader r(w.view());
    const TcpHeader parsed = TcpHeader::parse(r, "10.0.0.1"_ip, "10.0.0.2"_ip);
    EXPECT_EQ(parsed.seq, 123456u);
    EXPECT_EQ(parsed.ack, 654321u);
    EXPECT_TRUE(parsed.ack_set());
    EXPECT_FALSE(parsed.syn());
    EXPECT_EQ(r.remaining(), payload.size());
}

TEST(Tcp, CorruptPayloadDetected) {
    const std::vector<std::uint8_t> payload(8, 0x11);
    TcpHeader t;
    t.flags = kTcpSyn;
    BufferWriter w;
    t.serialize(w, "10.0.0.1"_ip, "10.0.0.2"_ip, payload);
    auto bytes = w.take();
    bytes.back() ^= 0x01;
    BufferReader r(bytes);
    EXPECT_THROW(TcpHeader::parse(r, "10.0.0.1"_ip, "10.0.0.2"_ip), ParseError);
}

TEST(Icmp, EchoRoundTrip) {
    IcmpMessage m;
    m.type = IcmpType::EchoRequest;
    m.rest_of_header = 0x12345678;
    m.body = {9, 8, 7};
    BufferWriter w;
    m.serialize(w);
    BufferReader r(w.view());
    const IcmpMessage parsed = IcmpMessage::parse(r);
    EXPECT_EQ(parsed.type, IcmpType::EchoRequest);
    EXPECT_EQ(parsed.rest_of_header, 0x12345678u);
    EXPECT_EQ(parsed.body, m.body);
}

TEST(Icmp, CareOfAdvertCarriesBothAddresses) {
    const auto advert = IcmpMessage::care_of_advert("10.1.0.10"_ip, "10.2.0.10"_ip);
    BufferWriter w;
    advert.serialize(w);
    BufferReader r(w.view());
    const IcmpMessage parsed = IcmpMessage::parse(r);
    EXPECT_EQ(parsed.type, IcmpType::MobileCareOfAdvert);
    EXPECT_EQ(parsed.advertised_home_address(), "10.1.0.10"_ip);
    EXPECT_EQ(parsed.advertised_care_of(), "10.2.0.10"_ip);
}

TEST(Icmp, AdvertAccessorsRejectWrongType) {
    IcmpMessage m;
    m.type = IcmpType::EchoReply;
    EXPECT_THROW(m.advertised_care_of(), ParseError);
    EXPECT_THROW(m.advertised_home_address(), ParseError);
}

TEST(Packet, BuildSetsTotalLength) {
    auto p = make_packet("10.0.0.1"_ip, "10.0.0.2"_ip, IpProto::Udp,
                         std::vector<std::uint8_t>(42, 0));
    EXPECT_EQ(p.header().total_length, kIpv4HeaderSize + 42);
    EXPECT_EQ(p.wire_size(), kIpv4HeaderSize + 42);
}

TEST(Packet, WireRoundTrip) {
    auto p = make_packet("10.0.0.1"_ip, "10.0.0.2"_ip, IpProto::Tcp, {1, 2, 3, 4});
    const auto wire = p.to_wire();
    const auto q = Packet::from_wire(wire);
    EXPECT_EQ(q.header().src, p.header().src);
    EXPECT_EQ(q.header().dst, p.header().dst);
    ASSERT_EQ(q.payload().size(), 4u);
    EXPECT_EQ(q.payload()[2], 3);
}

TEST(Packet, FromWireRejectsShortBuffer) {
    auto p = make_packet("1.1.1.1"_ip, "2.2.2.2"_ip, IpProto::Udp,
                         std::vector<std::uint8_t>(10, 0));
    auto wire = p.to_wire();
    wire.resize(wire.size() - 5);  // truncate payload
    EXPECT_THROW(Packet::from_wire(wire), ParseError);
}
