#include "dns/server.h"

#include "net/protocol.h"

namespace mip::dns {

DnsServer::DnsServer(transport::UdpService& udp, Zone& zone) : zone_(zone) {
    socket_ = udp.open(net::ports::kDns);
    socket_->set_receiver([this](std::span<const std::uint8_t> data,
                                 const transport::RxMeta& meta) {
        on_datagram(data, meta.peer);
    });
}

void DnsServer::on_datagram(std::span<const std::uint8_t> data, transport::Endpoint from) {
    Message request;
    try {
        net::BufferReader r(data);
        request = Message::parse(r);
    } catch (const net::ParseError&) {
        return;
    }
    if (request.is_response) {
        return;
    }
    const Message response = handle(request);
    net::BufferWriter w;
    response.serialize(w);
    socket_->send_to(from.addr, from.port, w.take());
}

Message DnsServer::handle(const Message& request) {
    Message response = Message::response_to(request);

    if (request.opcode == Opcode::Update) {
        // Dynamic update: empty-RDATA records delete, others replace.
        for (const auto& rr : request.answers) {
            if (rr.addr.is_unspecified() && rr.ttl_seconds == 0) {
                zone_.remove(rr.name, rr.type);
            } else {
                zone_.replace(rr);
            }
            ++updates_applied_;
        }
        return response;
    }

    ++queries_served_;
    bool any_name_known = false;
    for (const auto& q : request.questions) {
        if (zone_.has_name(q.name)) any_name_known = true;
        for (auto& rr : zone_.lookup(q.name, q.type)) {
            response.answers.push_back(std::move(rr));
        }
    }
    if (response.answers.empty() && !any_name_known) {
        response.rcode = Rcode::NxDomain;
    }
    return response;
}

}  // namespace mip::dns
