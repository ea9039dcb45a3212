#include "sim/nic.h"

#include "sim/link.h"

namespace mip::sim {

Nic::Nic(Node& owner, MacAddress mac, std::string name)
    : owner_(owner), mac_(mac), name_(std::move(name)) {}

Nic::~Nic() {
    disconnect();
}

void Nic::connect(Link& link) {
    disconnect();
    link_ = &link;
    link.attach(*this);
}

void Nic::disconnect() {
    if (link_ != nullptr) {
        link_->detach(*this);
        link_ = nullptr;
    }
}

void Nic::send(Frame frame) {
    if (link_ == nullptr) {
        return;  // unplugged: the wire eats the frame, as in real life
    }
    frame.src = mac_;
    if (tap_) {
        tap_(frame);
    }
    link_->transmit(*this, std::move(frame));
}

void Nic::deliver(Frame& frame) {
    // A NIC that moved to a different link between scheduling and delivery
    // must not receive frames from the old segment.
    if (tap_) {
        tap_(frame);
    }
    if (handler_) {
        handler_(frame);
    }
}

}  // namespace mip::sim
