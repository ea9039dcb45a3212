// Control-plane overload protection (ISSUE 9): the paper's 4x4 grid
// assumes the home agent always has capacity for every registration, but
// at city scale a handoff storm turns UDP 434 into a thundering herd.
// This header holds the building blocks both sides of that fight use:
//
//   server side   RegistrationQueue — a bounded two-class work queue with
//                 a fixed service time, renewal-over-new priority, drop-
//                 oldest-within-class shedding and a token-bucket
//                 admission limiter for the new-registration class. An
//                 overloaded agent keeps serving existing bindings (the
//                 renewal fast-path bypasses the token bucket) while
//                 shedding new arrivals — graceful degradation instead of
//                 collapse.
//
//   client side   DecorrelatedBackoff — deterministic seeded decorrelated
//                 jitter (delay = uniform(base, 3 x previous), capped), so
//                 10k hosts orphaned by the same agent crash do NOT retry
//                 in lockstep. Every draw is a pure function of (seed,
//                 monotone draw counter): byte-identical per seed, at any
//                 sweep --jobs.
//
// Shedding is silent by design: a denial reply would itself cost a send
// on the saturated path, and the client's retry timeout already covers
// the loss. Every shed and queue deferral is audited as a DecisionEvent
// (trigger "overload") and exported as counters/gauges, so the decision
// to drop is observable even though the dropped packet is not.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "sim/mix.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace mip::obs {
class MetricsRegistry;
class DecisionLog;
class HealthMonitor;
}  // namespace mip::obs

namespace mip::core {

using sim::mix64;

/// Deterministic seeded decorrelated jitter (the "decorrelated jitter"
/// variant of exponential backoff): each delay is drawn uniformly from
/// [base, 3 x previous), clamped to [base, cap]. The first draw after a
/// reset uses previous = base. The draw counter is monotone across
/// resets so a host's whole retry history is one reproducible stream.
class DecorrelatedBackoff {
public:
    DecorrelatedBackoff(std::uint64_t seed, sim::Duration base, sim::Duration cap)
        : seed_(seed), base_(base), cap_(cap) {}

    /// Next delay in the stream; advances the internal state.
    sim::Duration next();
    /// Restart the ramp (previous := base). Does NOT rewind the draw
    /// counter — determinism requires the stream to stay monotone.
    void reset() noexcept { prev_ = 0; }

    std::uint64_t draws() const noexcept { return draws_; }

private:
    std::uint64_t seed_;
    sim::Duration base_;
    sim::Duration cap_;
    sim::Duration prev_ = 0;  ///< 0 = fresh ramp (previous := base)
    std::uint64_t draws_ = 0;
};

/// Token bucket refilled in simulated time. Fractional tokens accrue as
/// doubles; the arithmetic is pure over (rate, burst, timestamps), so
/// refill order — and therefore admission — is deterministic.
class TokenBucket {
public:
    TokenBucket(double rate_per_sec, double burst)
        : rate_(rate_per_sec), burst_(burst), tokens_(burst) {}

    /// Take one token if available. Refills lazily from @p now.
    bool try_take(sim::TimePoint now);
    /// Current level (after lazy refill) — exported as a gauge.
    double tokens(sim::TimePoint now);

private:
    void refill(sim::TimePoint now);

    double rate_;
    double burst_;
    double tokens_;
    sim::TimePoint last_ = 0;
};

/// Registration work classes, in priority order. Renewals of existing
/// bindings outrank new registrations: losing a renewal breaks a host
/// that is currently working, losing a new arrival merely delays one
/// that is not yet served.
enum class RequestClass : std::uint8_t { Renewal = 0, New = 1 };

const char* to_string(RequestClass c) noexcept;

/// Overload-protection knobs for an agent's registration path. The
/// default-constructed config is the *protected* shape; set
/// queue_capacity = 0 for an unbounded queue (the ablation's
/// protection-off leg) and new_tokens_per_sec = 0 to disable admission
/// control.
struct OverloadConfig {
    /// Fixed per-request service time — the agent's modeled processing
    /// cost (authentication, binding write, ARP update). Queue depth in
    /// requests x service_time = queueing delay.
    sim::Duration service_time = sim::milliseconds(10);
    /// Total queued requests across both classes. 0 = unbounded (no
    /// shedding — the collapse leg).
    std::size_t queue_capacity = 16;
    /// Token-bucket admission rate for the New class only — renewals
    /// always bypass the bucket (the renewal fast-path). 0 = no bucket.
    double new_tokens_per_sec = 0.0;
    /// Bucket burst size (also the initial level).
    double new_token_burst = 8.0;
};

/// Bounded priority work queue for an agent's registration path.
///
/// submit() classifies, admits and enqueues (or sheds); a self-scheduled
/// service loop pops one request per service_time, renewals first.
/// Shedding policy when the queue is full:
///   - an arriving Renewal evicts the oldest queued New (priority), or
///     failing that the oldest queued Renewal (drop-oldest within class);
///   - an arriving New evicts the oldest queued New — never a Renewal.
/// Every shed is audited (DecisionEvent, trigger "overload") and counted.
class RegistrationQueue {
public:
    RegistrationQueue(sim::Simulator& sim, OverloadConfig config)
        : sim_(sim), config_(config),
          bucket_(config.new_tokens_per_sec, config.new_token_burst) {}

    /// Admit-or-shed. @p who names the requester (home address) for the
    /// audit trail; @p work runs when the request reaches the head of the
    /// queue. Returns false when the request was shed (silently — no
    /// reply is sent for it).
    bool submit(RequestClass cls, const std::string& who, std::function<void()> work);

    /// Drops everything queued and stops the service loop (agent crash).
    void clear();

    std::size_t depth() const noexcept { return renewals_.size() + fresh_.size(); }

    struct Stats {
        std::size_t served_renewal = 0;
        std::size_t served_new = 0;
        std::size_t shed_new_bucket = 0;    ///< denied by the token bucket
        std::size_t shed_new_queue = 0;     ///< evicted from / refused a full queue
        std::size_t shed_renewal_queue = 0; ///< renewal dropped (queue all-renewal)
        std::size_t deferred = 0;           ///< admitted behind >= 1 waiter
        std::size_t queue_peak = 0;         ///< high-water depth
    };
    const Stats& stats() const noexcept { return stats_; }
    std::size_t shed_total() const noexcept {
        return stats_.shed_new_bucket + stats_.shed_new_queue + stats_.shed_renewal_queue;
    }

    const OverloadConfig& config() const noexcept { return config_; }

    /// Registers the queue's gauges under (node, "overload"): queue_depth,
    /// queue_peak, shed_* by class, served_* by class, deferred, tokens.
    void attach_metrics(obs::MetricsRegistry& metrics, const std::string& node);
    /// Audits sheds/deferrals into @p log (nullptr detaches) as node @p node.
    void set_decision_log(obs::DecisionLog* log, std::string node);

private:
    struct Item {
        std::string who;
        std::function<void()> work;
    };

    void audit(RequestClass cls, const std::string& who, const char* test,
               bool passed, std::string input, std::string detail);
    void ensure_service_scheduled();
    void service_one();

    sim::Simulator& sim_;
    OverloadConfig config_;
    TokenBucket bucket_;
    std::deque<Item> renewals_;
    std::deque<Item> fresh_;  ///< the New class ("new" is reserved)
    bool service_armed_ = false;
    sim::EventId service_timer_ = 0;
    Stats stats_;
    obs::DecisionLog* decisions_ = nullptr;
    std::string node_;
};

/// Arms the standard overload detectors for @p node on @p monitor:
///   "<node>-shed-spike"       rate spike on the total shed gauge — trips
///                             while the storm sheds, clears after;
///   "<node>-queue-watermark"  absolute depth watermark at @p depth_trip
///                             (collapse evidence: a protected queue can
///                             never reach it, an unbounded one does).
void arm_overload_monitors(obs::HealthMonitor& monitor, const std::string& node,
                           double depth_trip, double shed_min_rate = 4.0);

}  // namespace mip::core
