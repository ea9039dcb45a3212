// A TCP-like reliable, connection-oriented transport.
//
// Deliberately simplified where the paper doesn't need fidelity (no
// window scaling, in-order-only reassembly) but faithful where it does:
//
//  * Connection endpoints are (address, port) pairs fixed at setup — so a
//    connection carried on a temporary care-of address breaks when the
//    host moves (Row D / Out-DT), while one carried on the home address
//    survives any number of moves.
//  * Lost segments are retransmitted on an RTO with exponential backoff,
//    and every retransmitted segment is flagged in its FlowKey — the
//    §7.1.2 "original packet or retransmission" signal the paper proposes
//    adding to the IP interface.
//  * Duplicate inbound segments are detected and surfaced, implementing
//    the paper's "repeated retransmissions *from* a particular address
//    suggest that acknowledgements are not getting through".
//
// Congestion control (ISSUE 10, DESIGN §14) is pluggable: every send,
// ack, loss and RTT sample is routed through a cc::CongestionController
// named by transport::Config, and the connection obeys its ControlState
// (cwnd gate, pacing rate, adaptive RTO). The default StaticController
// reproduces the pre-ISSUE-10 behaviour bit for bit.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/tcp_header.h"
#include "sim/simulator.h"
#include "stack/route_resolver.h"
#include "transport/cc/controller.h"
#include "transport/cc/paced_sender.h"
#include "transport/endpoint.h"

namespace mip::transport {

class TcpService;

struct TcpEndpoints {
    net::Ipv4Address local_addr;
    std::uint16_t local_port = 0;
    net::Ipv4Address remote_addr;
    std::uint16_t remote_port = 0;

    Endpoint local() const { return {local_addr, local_port}; }
    Endpoint remote() const { return {remote_addr, remote_port}; }

    auto operator<=>(const TcpEndpoints&) const = default;
    std::string to_string() const;
};

/// Transport configuration (ISSUE 10 API redesign): the canonical knobs
/// are the congestion-controller factory and the pacing toggle; mss and
/// initial_seq parameterize the wire format.
struct Config {
    std::size_t mss = 1000;  ///< app bytes per segment
    std::uint32_t initial_seq = 1000;

    /// Names the congestion controller for every connection this service
    /// creates. Null = StaticController(rto): the fixed-RTO, uncapped,
    /// unpaced pre-ISSUE-10 transport.
    cc::Factory controller;
    /// Route segment release through the PacedSender at the controller's
    /// pacing rate (no-op while the controller publishes rate <= 0, so it
    /// is safe to leave on with the static controller).
    bool paced = false;

    /// Initial RTO: the default StaticController's parameter, and the seed
    /// adaptive controllers start from before they take over scheduling.
    sim::Duration rto = sim::milliseconds(200);
    unsigned max_retries = 8;  ///< give up after this many RTOs, whatever the controller
};

enum class TcpState {
    SynSent,
    SynReceived,
    Established,
    FinWait,     ///< we sent FIN, awaiting its ack (and possibly peer FIN)
    CloseWait,   ///< peer sent FIN; we may still send, then close
    LastAck,     ///< peer closed first and we've now sent our FIN
    Closed,      ///< orderly shutdown complete
    Reset,       ///< peer sent RST
    Failed,      ///< retransmissions exhausted — the connection timed out
};

std::string to_string(TcpState s);

class TcpConnection {
public:
    /// Unified receive contract (transport/endpoint.h): payload first,
    /// delivery metadata second.
    using DataCallback = std::function<void(std::span<const std::uint8_t>, const RxMeta&)>;
    using StateCallback = std::function<void(TcpState)>;

    const TcpEndpoints& endpoints() const noexcept { return endpoints_; }
    TcpState state() const noexcept { return state_; }
    bool established() const noexcept { return state_ == TcpState::Established; }
    bool alive() const noexcept {
        return state_ != TcpState::Closed && state_ != TcpState::Reset &&
               state_ != TcpState::Failed;
    }

    void set_data_callback(DataCallback cb) { on_data_ = std::move(cb); }
    void set_state_callback(StateCallback cb) { on_state_ = std::move(cb); }

    /// Queues application data for reliable delivery.
    void send(std::span<const std::uint8_t> data);
    /// Vector overload: recycles the storage through the per-Simulator
    /// net::BufferPool after copying (ISSUE 10 satellite — send used to
    /// burn a fresh allocation per call).
    void send(std::vector<std::uint8_t> data);

    /// Initiates an orderly close once all queued data is acknowledged.
    void close();

    /// Drops the connection immediately with a RST to the peer.
    void abort();

    /// The congestion controller steering this connection.
    const cc::CongestionController& controller() const noexcept { return *cc_; }

    /// Signals that the path under this connection changed (handoff
    /// completed or connectivity was lost); forwards to the controller
    /// and forgives any pacing debt accumulated across the gap.
    void notify_route_change();

    struct Stats {
        std::size_t bytes_sent = 0;        ///< app bytes handed to send()
        std::size_t bytes_acked = 0;
        std::size_t bytes_received = 0;
        std::size_t segments_sent = 0;     ///< includes retransmissions
        std::size_t retransmissions = 0;
        std::size_t duplicate_segments_received = 0;
        std::size_t rtt_samples = 0;       ///< clean (Karn) samples taken
    };
    const Stats& stats() const noexcept { return stats_; }

private:
    friend class TcpService;

    TcpConnection(TcpService& service, TcpEndpoints endpoints, const Config& config,
                  bool active);

    void start_active_open();
    void on_segment(const net::TcpHeader& seg, std::span<const std::uint8_t> payload,
                    std::uint64_t journey);
    void send_segment(std::uint8_t flags, std::uint32_t seq,
                      std::span<const std::uint8_t> payload, bool retransmission);
    void send_ack();
    void pump();  ///< transmit whatever the window/pacer/state allows
    void arm_timer();
    void cancel_timer();
    void on_timeout();
    void arm_pace_timer();
    void cancel_pace_timer();
    void enter(TcpState next);
    /// Sequence number one past everything we have ever queued (incl. FIN).
    std::uint32_t snd_limit() const;
    bool pacing_active() const noexcept {
        return config_.paced && pacer_.enabled();
    }
    /// Feedback bookkeeping around a seq-consuming transmission.
    void record_sent(std::uint32_t end_seq, std::size_t payload_bytes, bool retransmission);
    void process_ack_feedback(std::uint32_t ack, std::uint32_t acked_data);
    /// Forwards queued controller transitions to the service's audit
    /// sinks and re-applies the pacing rate.
    void sync_controller_outputs();

    TcpService& service_;
    TcpEndpoints endpoints_;
    Config config_;
    TcpState state_;
    Stats stats_;

    std::unique_ptr<cc::CongestionController> cc_;
    cc::PacedSender pacer_;

    // Send side. sendbuf_ holds unacknowledged + unsent app bytes starting
    // at sequence snd_base_.
    std::deque<std::uint8_t> sendbuf_;
    std::uint32_t snd_base_ = 0;  ///< seq of sendbuf_[0]
    std::uint32_t snd_una_ = 0;
    std::uint32_t snd_nxt_ = 0;
    bool fin_queued_ = false;
    bool fin_sent_ = false;
    bool fin_received_ = false;

    /// Per-transmission bookkeeping for the controller's feedback stream
    /// (send timestamps, Karn exclusion, delivery-rate sampling). Pure
    /// memory: maintaining it never touches the event queue.
    struct SentRecord {
        std::uint32_t end_seq = 0;
        std::size_t bytes = 0;
        sim::TimePoint sent_at = 0;
        bool retransmitted = false;
        std::uint64_t delivered_at_send = 0;
    };
    std::deque<SentRecord> sent_records_;
    std::uint64_t delivered_bytes_ = 0;

    // Receive side.
    std::uint32_t rcv_nxt_ = 0;

    sim::EventId rto_timer_ = 0;
    bool timer_armed_ = false;
    unsigned backoff_ = 0;

    sim::EventId pace_timer_ = 0;
    bool pace_timer_armed_ = false;

    DataCallback on_data_;
    StateCallback on_state_;
    std::uint64_t rx_journey_ = 0;  ///< journey id of the segment being processed
};

}  // namespace mip::transport
