#include "sim/link.h"

#include <algorithm>

#include "sim/nic.h"
#include "sim/node.h"

namespace mip::sim {

namespace {

/// The six octets of @p mac as one integer: equal keys iff equal MACs.
std::uint64_t mac_key(const MacAddress& mac) noexcept {
    std::uint64_t key = 0;
    for (const std::uint8_t octet : mac.octets()) key = key << 8 | octet;
    return key;
}

}  // namespace

Link::Link(Simulator& simulator, LinkConfig config)
    : simulator_(simulator), config_(std::move(config)), rng_(config_.seed) {}

Link::~Link() {
    for (const Station& station : stations_) {
        station.nic->link_ = nullptr;
    }
}

bool Link::has(const Nic& nic) const {
    return std::any_of(stations_.begin(), stations_.end(),
                       [&nic](const Station& s) { return s.nic == &nic; });
}

void Link::attach(Nic& nic) {
    if (!has(nic)) {
        stations_.push_back({mac_key(nic.mac()), &nic});
    }
}

void Link::detach(Nic& nic) {
    std::erase_if(stations_, [&nic](const Station& s) { return s.nic == &nic; });
}

bool Link::connects(const Nic& a, const Nic& b) const {
    return has(a) && has(b);
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

    // Delivery happens at simulated arrival time; each receiver needs its
    // own copy of the frame because a NIC that detached (or moved to
    // another segment) while the frame was in flight must not receive it
    // and the others still must. Copies draw their payload storage from
    // the simulator's buffer pool and return it right after delivery
    // (unless the receiver took the payload to forward it), so
    // steady-state traffic recycles instead of allocating; the final
    // receiver takes the original frame by move (the unicast common case
    // never copies at all).
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
    const Duration dup_delay = delay + transmission_delay(frame.wire_size());
    const auto deliver_to = [&](Nic* nic, bool last) {
        if (fault_duplicate) {
            // The duplicate trails the original by one serialization
            // time, as if the frame had been put on the wire twice
            // back-to-back.
            schedule_delivery(nic, dup_delay, pooled_copy(frame));
        }
        schedule_delivery(nic, delay, last ? std::move(frame) : pooled_copy(frame));
    };

    // Group-addressed frames (broadcast and multicast) reach every
    // station; the IP layer filters multicast by joined groups. One pass
    // in attach order: a receiver is scheduled once the next one is
    // found, so the last one found takes the original frame.
    const bool group = frame.dst.is_group();
    const std::uint64_t dst = mac_key(frame.dst);
    Nic* pending = nullptr;
    for (const Station& station : stations_) {
        if ((group || station.mac == dst) && station.nic != &sender) {
            if (pending != nullptr) deliver_to(pending, false);
            pending = station.nic;
        }
    }
    if (pending == nullptr) {
        simulator_.buffer_pool().release(std::move(frame.payload));
        return;
    }
    deliver_to(pending, true);
}

void Link::schedule_delivery(Nic* nic, Duration after, Frame&& frame) {
    std::uint32_t slot;
    if (free_in_flight_.empty()) {
        slot = static_cast<std::uint32_t>(in_flight_.size());
        in_flight_.push_back({nic, std::move(frame)});
    } else {
        slot = free_in_flight_.back();
        free_in_flight_.pop_back();
        in_flight_[slot] = {nic, std::move(frame)};
    }
    // Two words: std::function keeps the closure inline, no allocation.
    simulator_.schedule_in(after, [this, slot] { arrive(slot); }, "frame-delivery");
}

void Link::arrive(std::uint32_t slot) {
    // Moved out and freed first: the handler may transmit on this link,
    // which can reuse the slot or grow the table under a reference.
    Nic* const nic = in_flight_[slot].nic;
    Frame frame = std::move(in_flight_[slot].frame);
    free_in_flight_.push_back(slot);
    if (nic->link() == this) {
        emit(TraceKind::FrameRx, nic, frame);
        nic->deliver(frame);
    }
    simulator_.buffer_pool().release(std::move(frame.payload));
}

}  // namespace mip::sim
