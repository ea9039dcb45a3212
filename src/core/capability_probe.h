// The abstract's "series of tests": "This makes it easier for a mobile
// host, through a series of tests, to determine which of the currently
// available optimizations is the best to use for any given correspondent
// host."
//
// CapabilityProber actively probes a correspondent with ICMP echoes forced
// through each outgoing mode, observes which return, and recommends the
// best available mode (most efficient working one, by the aggressive
// ordering DH > DE > IE). The result can seed the delivery-method cache so
// conversations start in the right mode instead of discovering it through
// retransmissions.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/mobile_host.h"
#include "transport/pinger.h"

namespace mip::core {

struct ProbeConfig {
    sim::Duration per_mode_timeout = sim::seconds(2);
    /// Echo payload used for probes.
    std::size_t payload = 32;
    /// Extra attempts per mode after a timeout, so one unlucky loss burst
    /// doesn't misclassify a working mode as broken. 0 = single shot (the
    /// pre-fault-subsystem behaviour).
    unsigned retries_per_mode = 0;
    /// Base delay before the first retry. Retries use seeded decorrelated
    /// jitter: each delay is drawn from [retry_backoff, 3 x previous),
    /// capped at 8x the base, seeded from the host's home address, so a
    /// fleet probing through the same loss burst doesn't re-synchronize.
    sim::Duration retry_backoff = sim::milliseconds(500);
};

struct ProbeReport {
    net::Ipv4Address correspondent;
    /// Indexed by OutMode (IE, DE, DH, DT).
    std::array<bool, 4> mode_works{};
    std::array<double, 4> mode_rtt_ms{};
    /// The best working home-address mode (DH > DE > IE); IE when nothing
    /// was confirmed (the only mode that never needs probing).
    OutMode recommended = OutMode::IE;
    bool any_home_mode_works = false;

    bool works(OutMode m) const { return mode_works[static_cast<std::size_t>(m)]; }
    double rtt_ms(OutMode m) const { return mode_rtt_ms[static_cast<std::size_t>(m)]; }

    /// One-line human-readable summary.
    std::string summary() const;
};

class CapabilityProber {
public:
    using Callback = std::function<void(const ProbeReport&)>;

    explicit CapabilityProber(MobileHost& mh, ProbeConfig config = {});

    /// Probes @p correspondent through Out-IE, Out-DE, Out-DH and Out-DT in
    /// parallel; invokes @p done once all probes conclude.
    /// @p apply_to_cache seeds the delivery-method cache with the
    /// recommendation (force-pinning it).
    /// While the host's registration circuit is open (retry budget
    /// exhausted, agent unreachable) the probe is suppressed: @p done
    /// fires immediately with an empty report and the cache is left
    /// untouched — probe traffic must not pile onto a control plane that
    /// is already failing (ISSUE 9).
    void probe(net::Ipv4Address correspondent, Callback done, bool apply_to_cache = false);

    std::size_t probes_in_flight() const noexcept { return in_flight_; }
    /// Probes refused because the registration circuit was open.
    std::size_t probes_suppressed() const noexcept { return suppressed_; }

private:
    struct Session;
    /// Launches the next unprobed mode, or finalizes the report.
    void advance(std::shared_ptr<Session> s);
    /// Sends one echo through @p mode; a timeout retries with backoff up
    /// to config_.retries_per_mode before conceding the mode is broken.
    void launch(std::shared_ptr<Session> s, OutMode mode, net::Ipv4Address src);
    /// Records one per-mode probe step into the host's decision log (via
    /// the method cache's attached obs::DecisionLog; no-op when detached).
    void note(net::Ipv4Address dst, const char* test, std::string input, bool passed,
              OutMode mode, std::string detail);

    MobileHost& mh_;
    ProbeConfig config_;
    transport::Pinger pinger_;
    std::size_t in_flight_ = 0;
    std::size_t suppressed_ = 0;
};

}  // namespace mip::core
