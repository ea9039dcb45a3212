#include "core/capability_probe.h"

#include <cstdio>

#include "obs/decision.h"

namespace mip::core {

namespace {
constexpr std::array<OutMode, 4> kProbeOrder{OutMode::IE, OutMode::DE, OutMode::DH,
                                             OutMode::DT};
}

struct CapabilityProber::Session {
    net::Ipv4Address dst;
    std::size_t next_mode = 0;
    unsigned attempt = 0;  ///< retries already burned on the current mode
    /// Seeded decorrelated-jitter stream for retry backoff; empty when
    /// the config allows no retries.
    std::optional<DecorrelatedBackoff> jitter;
    ProbeReport report;
    Callback done;
    bool apply_to_cache = false;
    /// Whether the cache had an entry before probing (so we can restore a
    /// clean slate afterwards).
    bool had_entry = false;
    DeliveryMethodCache::Entry saved_entry;
};

std::string ProbeReport::summary() const {
    std::string out = correspondent.to_string() + ":";
    for (OutMode m : kAllOutModes) {
        out += " " + to_string(m) + "=";
        out += works(m) ? "ok" : "no";
    }
    out += " -> " + to_string(recommended);
    return out;
}

CapabilityProber::CapabilityProber(MobileHost& mh, ProbeConfig config)
    : mh_(mh), config_(config), pinger_(mh.stack()) {}

void CapabilityProber::note(net::Ipv4Address dst, const char* test, std::string input,
                            bool passed, OutMode mode, std::string detail) {
    obs::DecisionLog* log = mh_.method_cache().decision_log();
    if (log == nullptr) return;
    obs::DecisionEvent ev;
    ev.when = mh_.simulator().now();
    ev.node = mh_.name();
    ev.correspondent = dst.to_string();
    ev.trigger = "probe";
    ev.test = test;
    ev.input = std::move(input);
    ev.passed = passed;
    ev.from_mode = to_string(mode);
    ev.to_mode = to_string(mode);
    ev.detail = std::move(detail);
    log->record(std::move(ev));
}

void CapabilityProber::probe(net::Ipv4Address correspondent, Callback done,
                             bool apply_to_cache) {
    if (mh_.registration_circuit_open()) {
        // The registration retry budget is exhausted and the host is
        // parked: the control plane is the thing that is down, so adding
        // probe echoes to it only feeds the storm. Refuse immediately.
        ++suppressed_;
        ProbeReport empty;
        empty.correspondent = correspondent;
        note(correspondent, "circuit-suppressed", "registration circuit open", false,
             empty.recommended, "probe refused while parked; no traffic sent");
        if (done) done(empty);
        return;
    }
    auto s = std::make_shared<Session>();
    s->dst = correspondent;
    s->report.correspondent = correspondent;
    s->done = std::move(done);
    s->apply_to_cache = apply_to_cache;
    if (config_.retries_per_mode > 0) {
        const std::uint64_t seed = mix64(0x70726f62656a6974ull ^ mh_.home_address().value());
        s->jitter.emplace(mix64(seed ^ correspondent.value()), config_.retry_backoff,
                          config_.retry_backoff * 8);
    }
    if (const auto* entry = mh_.method_cache().find(correspondent)) {
        s->had_entry = true;
        s->saved_entry = *entry;
    }
    ++in_flight_;
    // The session advances itself mode by mode through ping callbacks.
    advance(std::move(s));
}

void CapabilityProber::advance(std::shared_ptr<Session> s) {
    if (s->next_mode >= kProbeOrder.size()) {
        // All probes done: recommend the most aggressive working home mode.
        s->report.any_home_mode_works = s->report.works(OutMode::IE) ||
                                        s->report.works(OutMode::DE) ||
                                        s->report.works(OutMode::DH);
        if (s->report.works(OutMode::DH)) {
            s->report.recommended = OutMode::DH;
        } else if (s->report.works(OutMode::DE)) {
            s->report.recommended = OutMode::DE;
        } else {
            s->report.recommended = OutMode::IE;
        }
        note(s->dst, "recommendation", s->report.summary(),
             s->report.any_home_mode_works, s->report.recommended,
             s->apply_to_cache ? "applying recommendation to cache"
                               : "report only; cache restored");
        if (s->apply_to_cache) {
            mh_.force_mode(s->dst, s->report.recommended);
        } else if (s->had_entry && s->saved_entry.forced) {
            mh_.force_mode(s->dst, s->saved_entry.mode);
        } else {
            mh_.method_cache().reset(s->dst);
        }
        --in_flight_;
        if (s->done) s->done(s->report);
        return;
    }

    const OutMode mode = kProbeOrder[s->next_mode];
    ++s->next_mode;
    s->attempt = 0;

    net::Ipv4Address src;
    if (mode == OutMode::DT) {
        src = mh_.care_of_address();
        if (src.is_unspecified()) {
            // No care-of address of our own (e.g. attached via a foreign
            // agent): Out-DT is structurally unavailable.
            note(s->dst, "availability", "care-of address unspecified", false, mode,
                 "Out-DT structurally unavailable; skipped");
            advance(std::move(s));
            return;
        }
    } else {
        src = mh_.home_address();
    }
    launch(std::move(s), mode, src);
}

void CapabilityProber::launch(std::shared_ptr<Session> s, OutMode mode,
                              net::Ipv4Address src) {
    if (mode != OutMode::DT) {
        mh_.force_mode(s->dst, mode);
    }
    pinger_.ping(
        s->dst,
        [this, s, mode, src](std::optional<sim::Duration> rtt,
                             const transport::RxMeta&) mutable {
            const auto idx = static_cast<std::size_t>(mode);
            if (rtt) {
                s->report.mode_works[idx] = true;
                s->report.mode_rtt_ms[idx] = sim::to_milliseconds(*rtt);
                char input[48];
                std::snprintf(input, sizeof input, "rtt=%.3fms",
                              s->report.mode_rtt_ms[idx]);
                note(s->dst, "probe-ping", input, true, mode, "echo reply received");
                advance(std::move(s));
                return;
            }
            if (s->attempt < config_.retries_per_mode) {
                // One lost echo is weak evidence during a loss burst: back
                // off and try the same mode again before condemning it.
                ++s->attempt;
                const sim::Duration delay = s->jitter->next();
                note(s->dst, "probe-retry",
                     "attempt=" + std::to_string(s->attempt) + "/" +
                         std::to_string(config_.retries_per_mode),
                     false, mode, "echo timed out; backing off and retrying");
                mh_.simulator().schedule_in(
                    delay,
                    [this, s, mode, src]() mutable { launch(std::move(s), mode, src); },
                    "probe-retry");
                return;
            }
            s->report.mode_works[idx] = false;
            note(s->dst, "probe-ping", "timeout", false, mode, "no echo reply");
            advance(std::move(s));
        },
        config_.per_mode_timeout, config_.payload, src);
}

}  // namespace mip::core
