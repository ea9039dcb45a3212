// Packet tracing: every frame transmission, delivery and drop — and every
// IP-layer milestone (send, forward, deliver, encapsulate, decapsulate,
// filter) — is reported to an optional TraceRecorder. The benchmark
// harnesses use traces to count hops and bytes; tests and
// obs::JourneyIndex use them to follow individual packets through the
// network.
//
// Hot-path contract (ISSUE 7): producers hold a raw TraceRecorder* —
// detached (the default outside a World) an event costs one pointer
// compare, exactly like the simulator's profiler and the link fault
// hooks. Attached, an event is one fixed-size binary TraceRecord
// appended into an arena chunk: no strings are built, no JSON is shaped,
// no per-event allocation happens. All formatting is deferred to
// events(), which materializes classic TraceEvents on demand at export
// time and is byte-identical to what the old eager path produced.
//
// The full event schema, including the per-kind meaning of every field
// and the binary record layout, is documented in docs/TRACE_FORMAT.md
// (§1 event schema, §9 binary record).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/mix.h"
#include "sim/record_arena.h"
#include "sim/time.h"

namespace mip::sim {

class Link;
class Node;

enum class TraceKind {
    // ---- link layer (emitted by Link) ------------------------------------
    FrameTx,      ///< a NIC put a frame on a link
    FrameRx,      ///< a NIC accepted a frame
    FrameLost,    ///< link-level loss (random loss model)
    FrameTooBig,  ///< frame exceeded the link MTU and was dropped
    // ---- IP layer drops (emitted by IpStack) -----------------------------
    FilterDrop,   ///< a router's policy filter discarded a packet
    TtlExpired,   ///< a router dropped a packet with exhausted TTL
    NoRoute,      ///< no forwarding entry for destination
    // ---- IP layer milestones (emitted by IpStack and the tunnel layer) ---
    PacketSent,       ///< origin stack assigned a fresh journey id and sent
    PacketForwarded,  ///< a router forwarded the packet at the IP layer
    PacketDelivered,  ///< local delivery to a protocol handler (post-reassembly)
    Encapsulated,     ///< a tunnel entry wrapped the packet in an outer datagram
    Decapsulated,     ///< a tunnel exit recovered the inner datagram
};

/// Number of TraceKind enumerators — sizes the per-kind counter array.
inline constexpr std::size_t kTraceKindCount =
    static_cast<std::size_t>(TraceKind::Decapsulated) + 1;

const char* to_string(TraceKind kind);

/// How a record's detail field renders at export time. Producers pick the
/// shape and pass raw arguments (addresses as host-order u32, sizes,
/// interned text); TraceRecorder::events() formats the exact strings the
/// eager path used to build inline. docs/TRACE_FORMAT.md §9 is normative.
enum class TraceDetailKind : std::uint8_t {
    None,                ///< ""
    Text,                ///< interned text, verbatim
    PayloadExceedsMtu,   ///< "payload <a> > mtu <b>"
    ProtoSrcDst,         ///< "proto <a> <ip:b> -> <ip:c>"
    Proto,               ///< "proto <a>"
    Dst,                 ///< "dst <ip:a>"
    DstVia,              ///< "dst <ip:a> via <ip:b>"
    NoRouteSend,         ///< "send: no route to <ip:a>"
    NoRouteForward,      ///< "forward: no route to <ip:a>"
    InterfaceDown,       ///< "transmit: interface down"
    ArpFailed,           ///< "ARP resolution failed"
    DfExceedsMtu,        ///< "DF set and packet exceeds MTU"
    FilterRule,          ///< "<text> [src <ip:a> dst <ip:b>]"
    EncapTo,             ///< "<text> -> <ip:a>"
    EncapRelayTo,        ///< "<text> relay -> <ip:a>"
    EncapReverseTo,      ///< "<text> reverse -> <ip:a>"
    DecapForVisitor,     ///< "<text> for visitor <ip:a>"
    DecapReverseTunnel,  ///< "<text> reverse tunnel"
};

/// Deferred detail argument pack. Building one is allocation-free — the
/// text member is a view interned by the recorder only when an attached
/// recorder actually retains the record.
struct TraceDetail {
    TraceDetailKind kind = TraceDetailKind::None;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    std::string_view text{};

    static TraceDetail none() { return {}; }
    static TraceDetail txt(std::string_view t) {
        return {TraceDetailKind::Text, 0, 0, 0, t};
    }
    static TraceDetail args(TraceDetailKind kind, std::uint32_t a, std::uint32_t b = 0,
                            std::uint32_t c = 0) {
        return {kind, a, b, c, {}};
    }
    static TraceDetail with_text(TraceDetailKind kind, std::string_view t,
                                 std::uint32_t a = 0, std::uint32_t b = 0) {
        return {kind, a, b, 0, t};
    }
};

/// The compact binary record (docs/TRACE_FORMAT.md §9): 56 bytes, POD,
/// written once into an arena chunk and never touched again until export.
struct TraceRecord {
    TimePoint when = 0;
    std::uint64_t packet_id = 0;
    const Link* link = nullptr;
    std::uint32_t node = 0;   ///< interned node name (0 = "")
    std::uint32_t bytes = 0;
    std::uint32_t a = 0;      ///< detail args, meaning per TraceDetailKind
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    std::uint32_t text = 0;   ///< interned detail text (0 = none)
    std::uint16_t ethertype = 0;
    std::uint8_t kind = 0;         ///< TraceKind
    std::uint8_t detail_kind = 0;  ///< TraceDetailKind
};

/// The classic eagerly-formatted event, materialized on demand from
/// TraceRecords. Export-time only — nothing on the hot path builds one.
struct TraceEvent {
    TraceKind kind;
    TimePoint when = 0;
    std::string node;          ///< node name where the event occurred
    const Link* link = nullptr;
    std::size_t bytes = 0;     ///< frame wire size (frame events) or datagram size
    /// Raw ethertype of the frame (0 for non-frame events). Lets analyses
    /// separate IP traffic from ARP chatter.
    std::uint16_t ethertype = 0;
    /// Journey id of the datagram involved (0 = none/unknown, e.g. ARP
    /// frames). Groups every event one datagram generates anywhere in the
    /// network — across hops, fragmentation and encapsulation — into one
    /// obs::PacketJourney.
    std::uint64_t packet_id = 0;
    std::string detail;        ///< free-form context (e.g. filter rule hit)
};

/// Per-Node cache slot for the recorder's name interning: the owner field
/// carries the recorder's serial number, so a node's id is resolved with
/// one u64 compare per event instead of a hash lookup. See
/// TraceRecorder::node_id().
struct NodeInternCache {
    std::uint64_t owner = 0;
    std::uint32_t id = 0;
};

/// Collects trace records and answers the questions the benches ask
/// (hop counts, total bytes on the wire, drop counts by kind). For
/// per-packet questions, feed events() to an obs::JourneyIndex.
///
/// Ownership and lifetime contract: producers (Link, stack::IpStack) hold
/// a raw TraceRecorder*, so the recorder must outlive every producer it
/// is attached to — World satisfies this by declaring its TraceRecorder
/// before any node. To stop recording, attach nullptr on the producers
/// instead of destroying the recorder. A recorder given an external
/// RecordArena (the per-Simulator one) must not outlive that arena.
/// events() returns a reference that is invalidated by the next recorded
/// event or clear(); copy what you need before resuming the simulation.
///
/// Sampling (ISSUE 7): set_sampling(rate, seed) retains each journey's
/// records with probability ~rate, decided by hashing the journey id —
/// deterministic for a given (rate, seed) no matter the thread count or
/// recording order, and all-or-nothing per journey so retained journeys
/// are always complete. Events with packet_id 0 (ARP chatter) are always
/// retained. Rate 1.0 (the default) retains everything and is
/// byte-identical to the historical eager path. The aggregate counters
/// below are EXACT regardless of the sampling rate: sampling trades
/// journey coverage for speed, never metric accuracy.
class TraceRecorder {
public:
    explicit TraceRecorder(RecordArena* arena = nullptr);
    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    // ---- hot path ---------------------------------------------------------

    /// Appends one binary record. Aggregates update unconditionally; the
    /// record itself is retained only if the journey passes sampling.
    void record(TraceKind kind, TimePoint when, std::uint32_t node_id, const Link* link,
                std::uint32_t bytes, std::uint16_t ethertype, std::uint64_t packet_id,
                const TraceDetail& detail);

    /// Interned id for @p node's name, cached in the node (one u64
    /// compare on the hot path after the first event per node).
    std::uint32_t node_id(const Node& node);

    /// Interned id for an arbitrary string (rarely needed directly).
    std::uint32_t intern(std::string_view text) { return names_.intern(text); }

    // ---- sampling ---------------------------------------------------------

    /// Sets the journey sampling rate in [0,1] and the hash seed. Rate
    /// >= 1 keeps everything (and short-circuits the hash entirely).
    void set_sampling(double rate, std::uint64_t seed = 0);
    double sample_rate() const noexcept { return sample_rate_; }
    std::uint64_t sample_seed() const noexcept { return sample_seed_; }
    /// The retention decision for a journey id (exposed for the
    /// determinism property tests and the exporters' metadata).
    bool keeps(std::uint64_t packet_id) const noexcept {
        return packet_id == 0 || sample_rate_ >= 1.0 ||
               (mix64(packet_id ^ sample_seed_) >> 11) < sample_threshold_;
    }
    /// Records dropped by sampling since construction/clear().
    std::uint64_t records_sampled_out() const noexcept { return sampled_out_; }

    // ---- export-time access ----------------------------------------------

    /// The retained records, materialized as classic TraceEvents (strings
    /// formatted here, lazily, and cached until the next record/clear).
    const std::vector<TraceEvent>& events() const;
    /// Retained binary records without materialization.
    std::size_t record_count() const noexcept { return records_.size(); }
    const TraceRecord& record_at(std::size_t i) const { return records_[i]; }
    /// Formats one record's detail string (what events() fills in).
    std::string format_detail(const TraceRecord& record) const;
    const std::string& node_name(std::uint32_t id) const { return names_.text(id); }

    void clear();

    // The aggregate queries below are O(1): record() maintains running
    // totals as events arrive (and clear() resets them). They are polled
    // as gauges by every MetricsSampler tick, so a per-query scan of the
    // records would make sampling quadratic in run length. They count
    // every event offered, including ones sampling did not retain.
    std::size_t count(TraceKind kind) const noexcept {
        return counts_[static_cast<std::size_t>(kind)];
    }
    /// Sum of frame bytes over all FrameTx events — total load offered to
    /// the network ("load on the shared resources of the Internet", §3.2).
    std::size_t total_tx_bytes() const noexcept { return total_tx_bytes_; }

    /// FrameTx events carrying IPv4 (= link-level hops taken by IP packets,
    /// excluding ARP chatter).
    std::size_t ip_hops() const noexcept { return ip_hops_; }
    /// Total bytes of those IPv4 frames.
    std::size_t ip_tx_bytes() const noexcept { return ip_tx_bytes_; }

    /// The sequence of nodes that transmitted IPv4 frames, in time order —
    /// for a single request/response exchange this reads as the packet's
    /// path through the network (e.g. "ch0 -> corr-gw -> bb-r3 -> ...").
    /// Covers retained records only (sampling applies).
    std::vector<std::string> ip_tx_nodes() const;
    /// ip_tx_nodes() joined with " -> ".
    std::string ip_path_string() const;

    /// This recorder's arena (the injected one or the owned fallback) —
    /// bench_perf reports its reuse stats as hot-path evidence.
    const RecordArena& arena() const noexcept { return *arena_; }

private:
    RecordArena owned_arena_;  ///< used when no arena is injected
    RecordArena* arena_;
    RecordLog<TraceRecord> records_;
    StringInterner names_;
    std::uint64_t serial_;  ///< distinguishes recorders for NodeInternCache

    double sample_rate_ = 1.0;
    std::uint64_t sample_seed_ = 0;
    /// keeps() compares the top 53 bits of the journey hash against this.
    std::uint64_t sample_threshold_ = 0;
    std::uint64_t sampled_out_ = 0;

    mutable std::vector<TraceEvent> materialized_;
    mutable std::size_t materialized_upto_ = 0;

    std::array<std::size_t, kTraceKindCount> counts_{};
    std::size_t total_tx_bytes_ = 0;
    std::size_t ip_hops_ = 0;
    std::size_t ip_tx_bytes_ = 0;
};

}  // namespace mip::sim
