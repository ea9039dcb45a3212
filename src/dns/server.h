// Authoritative DNS server bound to UDP port 53 of a host's stack.
#pragma once

#include <memory>

#include "dns/message.h"
#include "dns/zone.h"
#include "transport/udp_service.h"

namespace mip::dns {

class DnsServer {
public:
    /// Serves @p zone on port 53 of @p udp's stack. The zone is referenced,
    /// not owned, so scenario code can mutate it directly.
    DnsServer(transport::UdpService& udp, Zone& zone);

    Zone& zone() noexcept { return zone_; }

    std::size_t queries_served() const noexcept { return queries_served_; }
    std::size_t updates_applied() const noexcept { return updates_applied_; }

private:
    void on_datagram(std::span<const std::uint8_t> data, transport::Endpoint from);
    Message handle(const Message& request);

    Zone& zone_;
    std::unique_ptr<transport::UdpSocket> socket_;
    std::size_t queries_served_ = 0;
    std::size_t updates_applied_ = 0;
};

}  // namespace mip::dns
