// Pluggable congestion control for mip::transport (ISSUE 10).
//
// A CongestionController consumes the transport's feedback stream —
// per-segment sends, acknowledgements carrying send/receive timestamps
// and delivery-rate samples, retransmission-timeout losses, clean RTT
// samples, and route-change signals from the mobility layer — and
// publishes a ControlState the connection obeys: how many bytes may be in
// flight, how fast the PacedSender may release segments, and the current
// retransmission timeout.
//
// The contract with determinism (DESIGN §14): controllers are pure
// functions of their feedback stream. They never schedule simulator
// events, draw randomness, or touch wall time — all timing flows in
// through the sample structs — so a sweep shard replaying the same
// feedback reproduces the same decisions byte for byte.
//
// State transitions worth auditing (overuse backoffs, loss backoffs,
// route-change resets) are queued as Transition records; the owning
// TcpConnection drains them after every feedback call and forwards them
// to the DecisionLog / MetricsRegistry when observability is attached —
// controllers themselves stay below obs in the link graph.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.h"

namespace mip::transport::cc {

/// What the connection is allowed to do right now.
struct ControlState {
    /// Maximum bytes in flight (snd_nxt - snd_una). The static controller
    /// publishes "unlimited" — the pre-ISSUE-10 behaviour.
    std::size_t cwnd_bytes = std::numeric_limits<std::size_t>::max();
    /// Segment release rate for the PacedSender; <= 0 disables pacing.
    double pacing_rate_bps = 0.0;
    /// Base retransmission timeout (the connection still applies its
    /// exponential backoff shift on successive timeouts).
    sim::Duration rto = sim::milliseconds(200);
};

/// One segment handed to the IP layer.
struct SentSample {
    std::size_t bytes = 0;
    sim::TimePoint sent_at = 0;
    bool retransmission = false;
    std::size_t in_flight_bytes = 0;  ///< after this send
};

/// One acknowledgement that advanced snd_una.
struct AckSample {
    std::size_t acked_bytes = 0;        ///< newly acknowledged payload bytes
    sim::TimePoint send_time = 0;       ///< newest acked segment's send time (0 = Karn-excluded)
    sim::TimePoint recv_time = 0;       ///< ack arrival at the sender
    std::uint64_t delivered_bytes = 0;  ///< cumulative delivered, incl. this ack
    double delivery_rate_bps = 0.0;     ///< sampled delivery rate (0 = no sample)
    sim::Duration rtt = 0;              ///< clean RTT sample (0 = none)
};

/// A retransmission timeout fired.
struct LossSample {
    std::size_t bytes = 0;              ///< oldest outstanding segment's size
    unsigned consecutive_timeouts = 0;  ///< backoff level including this one
    sim::TimePoint at = 0;              ///< when the timeout fired
};

/// An audited controller state transition; rendered as a `cc-<kind>`
/// DecisionEvent and a (node,"cc",<kind>) counter by the connection.
struct Transition {
    const char* kind;    ///< stable identifier, e.g. "overuse-backoff"
    std::string detail;  ///< human-readable elaboration
};

class CongestionController {
public:
    virtual ~CongestionController() = default;

    /// Stable controller name ("static", "delay-gradient", "loss-rate").
    virtual const char* name() const = 0;

    const ControlState& state() const noexcept { return state_; }

    /// Smallest clean RTT observed so far (0 until the first sample) —
    /// rtt - min_rtt() is the queueing-delay estimate the ablation gates
    /// on.
    sim::Duration min_rtt() const noexcept { return min_rtt_; }

    // ---- feedback stream --------------------------------------------------

    void on_packet_sent(const SentSample& s) { handle_sent(s); }
    void on_ack(const AckSample& s) { handle_ack(s); }
    void on_loss(const LossSample& s) { handle_loss(s); }
    void on_rtt_sample(sim::Duration rtt, sim::TimePoint now) {
        if (min_rtt_ == 0 || rtt < min_rtt_) min_rtt_ = rtt;
        handle_rtt(rtt, now);
    }
    /// The path under this connection changed (handoff completed, or
    /// connectivity was lost and reacquired). Controllers must drop any
    /// path-specific estimator state: the old path's delay floor and
    /// inter-arrival history would otherwise read as overuse or trigger
    /// spurious RTOs on the new path's RTT step.
    void on_route_change(sim::TimePoint now) {
        min_rtt_ = 0;
        handle_route_change(now);
    }

    /// Drains transitions queued since the last call.
    std::vector<Transition> take_transitions() {
        std::vector<Transition> out;
        out.swap(transitions_);
        return out;
    }

protected:
    virtual void handle_sent(const SentSample&) {}
    virtual void handle_ack(const AckSample&) {}
    virtual void handle_loss(const LossSample&) {}
    virtual void handle_rtt(sim::Duration, sim::TimePoint) {}
    virtual void handle_route_change(sim::TimePoint) {}

    void push_transition(const char* kind, std::string detail) {
        transitions_.push_back({kind, std::move(detail)});
    }

    ControlState state_{};

private:
    sim::Duration min_rtt_ = 0;
    std::vector<Transition> transitions_;
};

/// What a controller factory gets to see of the connection's config.
struct FactoryContext {
    std::size_t mss = 1000;
    sim::Duration initial_rto = sim::milliseconds(200);
};

/// Factory named by transport::Config. A null factory means the default
/// StaticController, built from the config's rto (which also seeds the
/// adaptive controllers, see FactoryContext::initial_rto).
using Factory = std::function<std::unique_ptr<CongestionController>(const FactoryContext&)>;

/// Factories for the three stock controllers (see the sibling headers for
/// their tuning structs).
Factory static_factory();
Factory delay_gradient_factory();
Factory loss_rate_factory();

/// Bench/CLI convenience: "static" | "delay" | "loss" -> factory.
/// Throws std::invalid_argument on anything else.
Factory factory_by_name(const std::string& name);

}  // namespace mip::transport::cc
