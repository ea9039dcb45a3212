// A shared link-layer segment (Ethernet-like broadcast domain, or a
// two-endpoint point-to-point circuit — the same abstraction covers both).
//
// Transmission delay = propagation latency + size/bandwidth. Random frame
// loss uses a deterministic, per-link seeded PRNG so simulations are
// reproducible.
//
// Per-frame cost: receivers are chosen in one pass over a contiguous
// station table (MAC key + NIC pointer, in attach order) that never
// dereferences a Nic, and each in-flight frame waits in a free-listed
// table owned by the link, so the delivery event's closure is two words
// and steady-state traffic makes no heap allocation per frame.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sim/frame.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace mip::sim {

class Nic;

/// Verdict a LinkFault returns for one frame offered to the wire. The hook
/// may additionally have mutated the frame in place (bit corruption).
struct FaultVerdict {
    bool drop = false;                  ///< discard instead of delivering
    const char* drop_reason = nullptr;  ///< trace detail when dropped
    bool duplicate = false;             ///< deliver a second copy back-to-back
    Duration extra_delay = 0;           ///< added latency (jitter / reordering)
};

/// Fault-injection hook on a Link (implementations live in src/fault/).
/// Same contract as the simulator's profiler attachment: detached — the
/// default — the per-frame cost is one pointer compare; attached, the hook
/// sees every frame after the MTU check and capture tap, before the
/// config-level loss model. Implementations own their PRNGs, so an
/// unattached link's random-loss draw sequence is untouched and replay
/// stays bit-identical whether or not the fault library is even linked.
class LinkFault {
public:
    virtual ~LinkFault() = default;
    /// Called once per transmit; @p frame may be mutated (corruption).
    virtual FaultVerdict on_transmit(Frame& frame, TimePoint now) = 0;
};

struct LinkConfig {
    std::string name = "link";
    Duration latency = microseconds(100);
    double bandwidth_bps = 10e6;  ///< 10 Mb/s Ethernet by default
    std::size_t mtu = 1500;       ///< maximum frame *payload* (IP datagram) size
    double loss_rate = 0.0;       ///< independent per-frame loss probability
    std::uint64_t seed = 1;
};

/// A Link must outlive its pending delivery events: each one names the
/// link and a slot of its in-flight table.
class Link {
public:
    Link(Simulator& simulator, LinkConfig config);
    /// Unplugs every still-attached NIC so their back-pointers can't
    /// dangle if a segment is torn down before the hosts on it.
    ~Link();
    Link(const Link&) = delete;
    Link& operator=(const Link&) = delete;

    const std::string& name() const noexcept { return config_.name; }
    std::size_t mtu() const noexcept { return config_.mtu; }
    const LinkConfig& config() const noexcept { return config_; }

    /// Attaches (or, with nullptr, detaches) the trace recorder. Off by
    /// default; when detached the per-frame cost is one pointer compare,
    /// matching the fault-hook contract below. The recorder must outlive
    /// its attachment.
    void set_trace(TraceRecorder* trace) noexcept { trace_ = trace; }
    TraceRecorder* trace() const noexcept { return trace_; }

    /// Installs a raw-frame observer (see obs::PcapWriter). The tap sees
    /// every frame offered to the wire — including frames the loss model
    /// subsequently drops, exactly like a physical-layer capture. One tap
    /// per link; the tap's owner must outlive the link's traffic.
    void set_tap(FrameTap tap) { tap_ = std::move(tap); }

    /// Attaches (or, with nullptr, detaches) a fault-injection hook. Off by
    /// default; when detached the per-frame cost is one pointer compare.
    /// The hook must outlive its attachment.
    void set_fault(LinkFault* fault) noexcept { fault_ = fault; }
    LinkFault* fault() const noexcept { return fault_; }

    /// Registers/unregisters an endpoint. Nic::connect/disconnect call these.
    /// Stations keep their attach order; a NIC that detaches and
    /// re-attaches goes to the end.
    void attach(Nic& nic);
    void detach(Nic& nic);

    /// Puts @p frame on the wire. Unicast frames are delivered only to the
    /// NIC owning the destination MAC; group-addressed frames reach every
    /// other attached NIC. Receivers get their deliveries in attach order;
    /// each gets its own copy, and the last one the original.
    void transmit(const Nic& sender, Frame frame);

    std::size_t attached_count() const noexcept { return stations_.size(); }

    /// True if both NICs are currently attached to this segment — the test
    /// behind the paper's Row C ("Both Hosts on Same Network Segment").
    bool connects(const Nic& a, const Nic& b) const;

private:
    /// One attached NIC. The MAC is cached as an integer key (a Nic's MAC
    /// never changes), so choosing receivers reads only this table.
    struct Station {
        std::uint64_t mac;
        Nic* nic;
    };
    /// A frame on the wire, waiting for its delivery event.
    struct InFlight {
        Nic* nic;
        Frame frame;
    };

    bool has(const Nic& nic) const;
    Duration transmission_delay(std::size_t bytes) const;
    void emit(TraceKind kind, const Nic* at, const Frame& frame,
              const TraceDetail& detail = {}) const;
    /// Parks @p frame in the in-flight table and schedules its delivery
    /// to @p nic @p after from now.
    void schedule_delivery(Nic* nic, Duration after, Frame&& frame);
    /// The delivery event of in-flight slot @p slot.
    void arrive(std::uint32_t slot);

    Simulator& simulator_;
    LinkConfig config_;
    std::vector<Station> stations_;  ///< attach order
    std::vector<InFlight> in_flight_;
    std::vector<std::uint32_t> free_in_flight_;  ///< LIFO
    mutable std::mt19937_64 rng_;
    TraceRecorder* trace_ = nullptr;
    FrameTap tap_;
    LinkFault* fault_ = nullptr;
    /// The shared medium serializes transmissions: the time until which the
    /// wire is occupied. Keeps small frames from overtaking large ones.
    TimePoint busy_until_ = 0;
};

}  // namespace mip::sim
