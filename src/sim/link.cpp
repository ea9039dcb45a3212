#include "sim/link.h"

#include <algorithm>

#include "sim/nic.h"
#include "sim/node.h"

namespace mip::sim {

Link::Link(Simulator& simulator, LinkConfig config)
    : simulator_(simulator), config_(std::move(config)), rng_(config_.seed) {}

Link::~Link() {
    for (Nic* nic : nics_) {
        nic->link_ = nullptr;
    }
}

void Link::attach(Nic& nic) {
    if (std::find(nics_.begin(), nics_.end(), &nic) == nics_.end()) {
        nics_.push_back(&nic);
    }
}

void Link::detach(Nic& nic) {
    std::erase(nics_, &nic);
}

bool Link::connects(const Nic& a, const Nic& b) const {
    const bool has_a = std::find(nics_.begin(), nics_.end(), &a) != nics_.end();
    const bool has_b = std::find(nics_.begin(), nics_.end(), &b) != nics_.end();
    return has_a && has_b;
}

Duration Link::transmission_delay(std::size_t bytes) const {
    const double seconds = static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps;
    return static_cast<Duration>(seconds * 1e9);
}

void Link::emit(TraceKind kind, const Nic* at, const Frame& frame,
                const TraceDetail& detail) const {
    if (trace_ == nullptr) return;
    trace_->record(kind, simulator_.now(),
                   at != nullptr ? trace_->node_id(at->owner()) : 0, this,
                   static_cast<std::uint32_t>(frame.wire_size()),
                   static_cast<std::uint16_t>(frame.type), frame.journey, detail);
}

void Link::transmit(const Nic& sender, Frame frame) {
    if (frame.payload.size() > config_.mtu) {
        emit(TraceKind::FrameTooBig, &sender, frame,
             TraceDetail::args(TraceDetailKind::PayloadExceedsMtu,
                               static_cast<std::uint32_t>(frame.payload.size()),
                               static_cast<std::uint32_t>(config_.mtu)));
        return;
    }
    emit(TraceKind::FrameTx, &sender, frame);
    if (tap_) {
        tap_(frame);
    }

    Duration fault_delay = 0;
    bool fault_duplicate = false;
    if (fault_ != nullptr) {
        const FaultVerdict verdict = fault_->on_transmit(frame, simulator_.now());
        if (verdict.drop) {
            emit(TraceKind::FrameLost, &sender, frame,
                 TraceDetail::txt(verdict.drop_reason != nullptr ? verdict.drop_reason
                                                                 : "fault"));
            simulator_.buffer_pool().release(std::move(frame.payload));
            return;
        }
        fault_delay = verdict.extra_delay;
        fault_duplicate = verdict.duplicate;
    }

    if (config_.loss_rate > 0.0) {
        std::bernoulli_distribution lost(config_.loss_rate);
        if (lost(rng_)) {
            emit(TraceKind::FrameLost, &sender, frame);
            simulator_.buffer_pool().release(std::move(frame.payload));
            return;
        }
    }

    // One talker at a time on the shared medium: serialization starts when
    // the wire frees up, so frames never overtake each other.
    const TimePoint start = std::max(simulator_.now(), busy_until_);
    busy_until_ = start + transmission_delay(frame.wire_size());
    const Duration delay = (busy_until_ - simulator_.now()) + config_.latency + fault_delay;

    // Group-addressed frames (broadcast and multicast) reach every
    // station; the IP layer filters multicast by joined groups. First find
    // the last receiver so the original frame can be moved to it.
    const auto receives = [&frame, &sender](const Nic* nic) {
        if (nic == &sender) return false;
        return frame.dst.is_group() || frame.dst == nic->mac() || nic->promiscuous();
    };
    const Nic* last_receiver = nullptr;
    for (const Nic* nic : nics_) {
        if (receives(nic)) last_receiver = nic;
    }

    // Delivery happens at simulated arrival time; each receiver needs its
    // own copy of the frame because a NIC that detached (or moved to
    // another segment) while the frame was in flight must not receive it
    // and the others still must. Copies draw their payload storage from
    // the simulator's buffer pool and return it right after delivery
    // (unless the receiver took the payload to forward it), so
    // steady-state traffic recycles instead of allocating; the final
    // receiver takes the original frame by move (the unicast common case
    // never copies at all).
    const auto schedule_delivery = [this](Nic* nic, Duration after, Frame&& f) {
        simulator_.schedule_in(after, [nic, this, f = std::move(f)]() mutable {
            if (nic->link() == this) {
                emit(TraceKind::FrameRx, nic, f);
                nic->deliver(f);
            }
            simulator_.buffer_pool().release(std::move(f.payload));
        },
        "frame-delivery");
    };
    const auto pooled_copy = [this](const Frame& f) {
        Frame c;
        c.dst = f.dst;
        c.src = f.src;
        c.type = f.type;
        c.journey = f.journey;
        c.payload = simulator_.buffer_pool().acquire(f.payload.size());
        c.payload.assign(f.payload.begin(), f.payload.end());
        return c;
    };

    if (last_receiver == nullptr) {
        simulator_.buffer_pool().release(std::move(frame.payload));
        return;
    }
    const Duration dup_delay = delay + transmission_delay(frame.wire_size());
    for (Nic* nic : nics_) {
        if (!receives(nic)) continue;
        if (fault_duplicate) {
            // The duplicate trails the original by one serialization
            // time, as if the frame had been put on the wire twice
            // back-to-back.
            schedule_delivery(nic, dup_delay, pooled_copy(frame));
        }
        schedule_delivery(nic, delay,
                          nic == last_receiver ? std::move(frame) : pooled_copy(frame));
    }
}

}  // namespace mip::sim
