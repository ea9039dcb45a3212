// The mobile host's side of a registration exchange (paper §2: register
// the care-of address with the home agent, retrying until it answers) as
// a pure state machine: no Simulator, no sockets. MobileHost (real
// packets) and CitySim's overload model (modelled latency) feed it the
// same events and act on the Decision each returns, so both retry, back
// off, spend budgets, park and drop stale replies by one set of rules:
//
//   ramp     seeded decorrelated jitter (DecorrelatedBackoff), or
//            synchronized doubling when the policy turns jitter off;
//   give-up  an Attach exchange gives up after max_retries sends;
//   budget   a Refresh exchange past retry_budget retries opens the
//            circuit: it parks, probing every circuit_probe +-25%, until
//            a served reply closes it;
//   stale    a reply, timeout or retry for any id but the latest send is
//            ignored.
//
// When to draw is the caller's choice: MobileHost asks for the backoff
// right after each send, CitySim when its reply timeout fires.
#pragma once

#include <cstdint>

#include "core/overload.h"
#include "sim/time.h"

namespace mip::core {

/// Retry parameters; callers fill them from their existing config.
struct RetryPolicy {
    sim::Duration base = 0;  ///< first retry delay and the ramp's floor
    sim::Duration cap = 0;   ///< the ramp's ceiling
    unsigned max_retries = 0;   ///< sends before an Attach gives up
    unsigned retry_budget = 0;  ///< Refresh retries before the circuit opens; 0 = none
    sim::Duration circuit_probe = 0;  ///< park interval while the circuit is open
    bool jitter = true;  ///< false = doubling: base, 2 x base, ... up to cap
};

class RegistrationClient {
public:
    /// Attach: a caller waits on the outcome. Refresh: background, retry
    /// until answered.
    enum class Exchange : std::uint8_t { Attach, Refresh };
    enum class Action : std::uint8_t { Ignore, Send, Wait, GiveUp };

    struct Decision {
        Action action = Action::Ignore;
        std::uint64_t id = 0;     ///< Send: the request id
        sim::Duration delay = 0;  ///< Wait: how long until the retry
        unsigned attempt = 0;     ///< Send: this send's attempt; Wait: the next one's
        bool parked = false;      ///< the circuit is open: a probe send or a park wait
        bool circuit_opened = false;  ///< Wait: this decision opened the circuit
    };

    RegistrationClient(RetryPolicy policy, std::uint64_t seed)
        : policy_(policy), ramp_(seed, policy.base, policy.cap), seed_(seed) {}

    /// A fresh exchange at attempt 0, ramp restarted: Send, or GiveUp.
    Decision start(Exchange kind);
    /// The timer armed after send @p id fired: Send the next attempt,
    /// GiveUp, or Ignore when @p id was answered or superseded.
    Decision retry(std::uint64_t id);
    /// The wait before retrying send @p id (a ramp step, or a park once
    /// the budget is spent); Ignore when @p id is no longer pending.
    Decision backoff(std::uint64_t id);
    /// A reply to @p id arrived; false = stale. A @p served reply (a
    /// binding was granted) also closes the circuit.
    bool reply(std::uint64_t id, bool served);
    /// The host moved: abandon the exchange, close the circuit.
    void reset();
    /// An id for a one-shot request outside any exchange (deregistration).
    std::uint64_t take_id() noexcept { return next_id_++; }

    bool circuit_open() const noexcept { return circuit_open_; }

private:
    Decision send();

    RetryPolicy policy_;
    DecorrelatedBackoff ramp_;
    std::uint64_t seed_;
    std::uint64_t probe_draws_ = 0;  ///< monotone counter of the park stream
    std::uint64_t next_id_ = 1;
    std::uint64_t current_id_ = 0;  ///< the latest send
    unsigned attempt_ = 0;
    Exchange kind_ = Exchange::Refresh;
    bool pending_ = false;
    bool circuit_open_ = false;
};

}  // namespace mip::core
