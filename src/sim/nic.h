// A network interface card: the attachment point between a Node and a Link.
//
// Mobility in this simulator is literal: a mobile host detaches its NIC
// from one segment and attaches it to another, then re-runs address
// configuration — just as a laptop unplugs from one Ethernet and plugs
// into another.
#pragma once

#include <functional>
#include <string>

#include "sim/frame.h"
#include "sim/mac_address.h"

namespace mip::sim {

class Link;
class Node;

class Nic {
public:
    Nic(Node& owner, MacAddress mac, std::string name);
    Nic(const Nic&) = delete;
    Nic& operator=(const Nic&) = delete;
    ~Nic();

    /// Handler invoked (at simulated delivery time) for each frame this NIC
    /// accepts. Installed by the IP stack. The frame is this receiver's own
    /// copy, so the handler may take its payload (a router forwards the
    /// received buffer onward); the link returns whatever is left to the
    /// simulator's buffer pool once the handler is done. A handler taking
    /// `const Frame&` binds too.
    using FrameHandler = std::function<void(Frame&)>;
    void set_handler(FrameHandler handler) { handler_ = std::move(handler); }

    void connect(Link& link);
    void disconnect();
    bool connected() const noexcept { return link_ != nullptr; }
    Link* link() const noexcept { return link_; }

    /// Transmits a frame (no-op with a trace drop if disconnected).
    void send(Frame frame);

    /// Called by Link at delivery time: the tap sees @p frame first, then
    /// the handler gets it (and may take its payload).
    void deliver(Frame& frame);

    MacAddress mac() const noexcept { return mac_; }
    Node& owner() const noexcept { return owner_; }
    const std::string& name() const noexcept { return name_; }

    /// Installs a raw-frame observer (see obs::PcapWriter): fires for every
    /// frame this NIC transmits onto a connected link and every frame it
    /// accepts — the view tcpdump would give on this interface. One tap per
    /// NIC; the tap's owner must outlive the NIC's traffic.
    void set_tap(FrameTap tap) { tap_ = std::move(tap); }

private:
    friend class Link;  // clears link_ when the segment is destroyed first

    Node& owner_;
    MacAddress mac_;
    std::string name_;
    Link* link_ = nullptr;
    FrameHandler handler_;
    FrameTap tap_;
};

}  // namespace mip::sim
