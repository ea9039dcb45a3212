#include "core/registration_client.h"

#include <algorithm>

namespace mip::core {

RegistrationClient::Decision RegistrationClient::start(Exchange kind) {
    kind_ = kind;
    attempt_ = 0;
    ramp_.reset();
    return send();
}

RegistrationClient::Decision RegistrationClient::retry(std::uint64_t id) {
    if (!pending_ || id != current_id_) return {};
    // Saturates, so an exchange that retries forever cannot overflow it.
    attempt_ = std::min(attempt_ + 1, 16u);
    return send();
}

RegistrationClient::Decision RegistrationClient::send() {
    if (kind_ == Exchange::Attach && attempt_ >= policy_.max_retries) {
        pending_ = false;
        return {.action = Action::GiveUp, .attempt = attempt_};
    }
    pending_ = true;
    current_id_ = next_id_++;
    return {.action = Action::Send, .id = current_id_, .attempt = attempt_,
            .parked = circuit_open_};
}

RegistrationClient::Decision RegistrationClient::backoff(std::uint64_t id) {
    if (!pending_ || id != current_id_) return {};
    Decision d{.action = Action::Wait, .attempt = std::min(attempt_ + 1, 16u)};
    if (kind_ == Exchange::Refresh && policy_.retry_budget > 0 &&
        d.attempt > policy_.retry_budget) {
        // Park: the recovering agent meets a trickle of probes, +-25% off
        // a tagged stream of the same seed, not the whole orphaned fleet.
        d.parked = true;
        d.circuit_opened = !circuit_open_;
        circuit_open_ = true;
        const std::uint64_t draw = mix64(seed_ ^ (0x70726f6265ull + probe_draws_++));
        const sim::Duration span = std::max<sim::Duration>(policy_.circuit_probe / 2, 1);
        d.delay = policy_.circuit_probe * 3 / 4 +
                  static_cast<sim::Duration>(draw % static_cast<std::uint64_t>(span));
    } else if (policy_.jitter) {
        d.delay = ramp_.next();
    } else {
        // Synchronized doubling: clients that timed out together retry
        // together — the herd the jitter breaks up.
        d.delay = policy_.base;
        for (unsigned i = 0; i < attempt_ && d.delay < policy_.cap; ++i) d.delay *= 2;
        d.delay = std::min(d.delay, policy_.cap);
    }
    return d;
}

bool RegistrationClient::reply(std::uint64_t id, bool served) {
    if (id != current_id_) return false;
    pending_ = false;
    if (served) circuit_open_ = false;
    return true;
}

void RegistrationClient::reset() {
    pending_ = false;
    circuit_open_ = false;
    ramp_.reset();
}

}  // namespace mip::core
