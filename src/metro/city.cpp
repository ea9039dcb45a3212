#include "metro/city.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mip::metro {

namespace {
// Domain tags for the engine's deterministic draws (sample stagger,
// registration jitter, probe selection, overload retries, flap notice) —
// disjoint from the ones the population builder uses.
constexpr std::uint64_t kStaggerTag = 0x53414D50ull;  // "SAMP"
constexpr std::uint64_t kProbeTag = 0x50524F42ull;    // "PROB"
constexpr std::uint64_t kJitterTag = 0x4A495454ull;   // "JITT"
constexpr std::uint64_t kRetryTag = 0x52545259ull;    // "RTRY"
constexpr std::uint64_t kRenewTag = 0x52454E57ull;    // "RENW"
constexpr std::uint64_t kFlapTag = 0x464C4150ull;     // "FLAP"

/// Recovery poll cadence after an agent flap.
constexpr sim::Duration kRecoveryPoll = sim::milliseconds(250);

/// Widens a motion segment's disk before the look-ahead trusts it: far
/// above position rounding at city scale (about 1e-12 m) and far below
/// any cell, so it decides nothing but rounding.
constexpr double kSkipMargin = 1e-3;  // meters

/// Narrows @p last to the last instant at which a point at @p pos at
/// instant @p at, moving at @p v m/ns along one axis, stays more than
/// @p r inside (lo, hi). It is inside at @p at.
sim::TimePoint inside_until(double pos, double v, double r, double lo, double hi,
                            sim::TimePoint at, sim::TimePoint last) {
    if (v == 0) return last;
    // Nanoseconds until the disk touches the side it moves toward; +inf
    // toward a border cell's outer side. Compared before it is converted.
    const double room = v > 0 ? (hi - r - pos) / v : (lo + r - pos) / v;
    if (!(room < static_cast<double>(last - at))) return last;
    return at + static_cast<sim::TimePoint>(std::ceil(std::max(room, 0.0))) - 1;
}
}  // namespace

CellChange next_cell_change(const MetroTopology& topo, mobility::MobilityModel& model,
                            std::size_t cell, sim::TimePoint next, sim::Duration interval,
                            sim::TimePoint horizon) {
    const CellBounds box = topo.cell_bounds(cell);
    while (next <= horizon) {
        // Skip every instant the segment proves inside: its disk stays
        // strictly inside the cell until `last`, and the model stays
        // within the disk until seg.until.
        const mobility::Segment seg = model.segment_at(next);
        const double r = seg.radius + kSkipMargin;
        const mobility::Position p = seg.at(next);
        if (p.x - r > box.min_x && p.x + r < box.max_x && p.y - r > box.min_y &&
            p.y + r < box.max_y) {
            sim::TimePoint last = std::min(seg.until, horizon) - 1;
            last = inside_until(p.x, seg.vx, r, box.min_x, box.max_x, next, last);
            last = inside_until(p.y, seg.vy, r, box.min_y, box.max_y, next, last);
            if (last >= next) {
                next += ((last - next) / interval + 1) * interval;
                continue;
            }
        }
        // Not proven: evaluate this instant, and step one interval.
        const std::size_t found = topo.cell_at(model.position_at(next)).index;
        if (found != cell) return {next, static_cast<std::int32_t>(found)};
        next += interval;
    }
    return {next, -1};
}

CitySim::CitySim(CityConfig config)
    : config_(config),
      topo_(config.metro),
      pop_(topo_, config.population),
      decisions_(&sim_.record_arena()),
      tables_(static_cast<std::size_t>(config.metro.home_agents)) {
    if (config_.duration <= 0 || config_.sample_interval <= 0 ||
        config_.storm_window <= 0 || config_.registration_lifetime <= 0) {
        throw std::invalid_argument("CitySim: durations must be > 0");
    }

    // Per-cell and per-agent metric handles are resolved once here; the
    // hot path bumps cached Counter references instead of re-hashing
    // (node, layer, name) keys millions of times. The stats vectors are
    // never resized after this loop, so the gauge lambdas' pointers into
    // them stay valid for the registry's lifetime.
    cells_.resize(topo_.cells().size());
    for (std::size_t c = 0; c < cells_.size(); ++c) {
        const std::string& node = topo_.cells()[c].name;
        CellStats& cs = cells_[c];
        cs.handoffs = &registry_.counter(node, "metro", "handoffs");
        cs.storms = &registry_.counter(node, "metro", "storms");
        registry_.register_gauge(node, "metro", "occupancy",
                                 [p = &cs] { return static_cast<double>(p->occupancy); });
        registry_.register_gauge(node, "metro", "storm_peak",
                                 [p = &cs] { return static_cast<double>(p->window_peak); });
    }
    agents_.resize(tables_.size());
    for (std::size_t a = 0; a < agents_.size(); ++a) {
        const std::string node = "ha-" + std::to_string(a);
        AgentStats& as = agents_[a];
        as.registrations = &registry_.counter(node, "metro", "registrations");
        as.renewals = &registry_.counter(node, "metro", "renewals");
        as.expired = &registry_.counter(node, "metro", "bindings_expired");
        registry_.register_gauge(node, "metro", "bindings",
                                 [t = &tables_[a]] { return static_cast<double>(t->size()); });
    }
    if (const CityOverloadConfig& ov = config_.overload; ov.enabled) {
        // One bounded queue per home agent. The unprotected ablation leg
        // keeps the same finite service rate but loses the bound and the
        // admission bucket — that is the whole experiment.
        core::OverloadConfig qc = ov.agent;
        if (!ov.protection) {
            qc.queue_capacity = 0;
            qc.new_tokens_per_sec = 0.0;
        }
        queues_.reserve(tables_.size());
        for (std::size_t a = 0; a < tables_.size(); ++a) {
            auto q = std::make_unique<core::RegistrationQueue>(sim_, qc);
            const std::string node = "ha-" + std::to_string(a);
            q->attach_metrics(registry_, node);
            q->set_decision_log(&decisions_, node);
            queues_.push_back(std::move(q));
        }
        // Every exchange is a Refresh, so max_retries never applies. The
        // collapse leg's clients have no budget and double in lockstep.
        const core::RetryPolicy policy{.base = ov.reply_timeout,
                                       .cap = ov.retry_cap,
                                       .retry_budget = ov.protection ? ov.retry_budget : 0,
                                       .circuit_probe = ov.circuit_probe,
                                       .jitter = ov.protection};
        clients_.reserve(pop_.hosts().size());
        for (const MetroHost* host : pop_.hosts()) {
            clients_.emplace_back(policy, sim::mix64(config_.population.seed ^ kRetryTag ^
                                                     (static_cast<std::uint64_t>(host->index) << 20)));
        }
        ov_retries_ = &registry_.counter("city", "overload", "retries");
        ov_timeouts_ = &registry_.counter("city", "overload", "timeouts");
        ov_circuit_opens_ = &registry_.counter("city", "overload", "circuit_opens");
        ov_circuit_probes_ = &registry_.counter("city", "overload", "circuit_probes");
        ov_flaps_ = &registry_.counter("city", "overload", "flaps");
    }
    handoffs_agg_ = &registry_.counter("city", "metro", "handoffs");
    probes_ = &registry_.counter("city", "metro", "probes");
    delivered_ = &registry_.counter("city", "metro", "probes_delivered");
    stale_ = &registry_.counter("city", "metro", "probes_stale");
    unbound_ = &registry_.counter("city", "metro", "probes_unbound");
    reg_latency_ = &registry_.histogram("city", "metro", "registration_latency_ns",
                                        obs::rtt_bounds_ns());
    reg_hops_ = &registry_.histogram("city", "metro", "registration_hops",
                                     obs::hop_bounds());
}

CitySim::~CitySim() = default;

sim::Duration CitySim::member_jitter(std::size_t host_index, std::uint32_t epoch) const {
    const std::uint64_t m = sim::mix64(
        config_.population.seed ^ kJitterTag ^ (static_cast<std::uint64_t>(host_index) << 20) ^
        (static_cast<std::uint64_t>(epoch) << 44));
    return static_cast<sim::Duration>(m % 1'000'000);  // < 1 ms
}

void CitySim::sample_host(std::uint32_t index, std::int32_t found) {
    MetroHost* host = pop_.hosts()[index];
    const sim::TimePoint now = sim_.now();
    const MetroCell& cell = found >= 0 ? topo_.cells()[static_cast<std::size_t>(found)]
                                       : topo_.cell_at(host->model->position_at(now));
    if (static_cast<std::int32_t>(cell.index) != host->cell) {
        const std::int32_t old = host->cell;
        host->cell = static_cast<std::int32_t>(cell.index);
        if (old >= 0) --cells_[static_cast<std::size_t>(old)].occupancy;
        CellStats& cs = cells_[cell.index];
        ++cs.occupancy;
        if (old >= 0) {
            // The first association is an attach, not a handoff.
            cs.handoffs->add();
            handoffs_agg_->add();
            ++handoffs_total_;
            ++cs.window;
            if (cs.window > cs.window_peak) cs.window_peak = cs.window;
            if (cs.window == config_.storm_threshold) {
                cs.storms->add();
                decisions_.record({now, cell.name, "city", "handoff-storm",
                                   "window-threshold",
                                   "window=" + std::to_string(cs.window) + "/" +
                                       std::to_string(config_.storm_threshold),
                                   true, "calm", "storm", "",
                                   "handoff rate crossed the storm threshold"});
            }
            sim_.schedule_in(config_.storm_window,
                             [this, idx = cell.index] { --cells_[idx].window; },
                             "storm-decay");
        }
        begin_registration(host, /*renewal=*/false);
    }
    // Look ahead while the model and the host's cell are hot: the next
    // sample that can change anything is the first later instant that
    // finds the host in another cell. Models are pure functions of t, so
    // answering early changes nothing (DESIGN.md §11).
    const CellChange change =
        next_cell_change(topo_, *host->model, cell.index, now + config_.sample_interval,
                         config_.sample_interval, config_.duration);
    sim_.schedule_at(change.at, [this, index, found = change.cell] { sample_host(index, found); },
                     "city-sample");
}

sim::Duration CitySim::one_way_latency(const MetroHost* host, bool observe) {
    const int hops = topo_.hop_count(static_cast<std::size_t>(host->cell),
                                     topo_.home_agent_cell(host->home_agent));
    const sim::Duration latency = config_.reg_base_latency + hops * config_.reg_hop_latency +
                                  member_jitter(host->index, host->epoch);
    if (observe) {
        reg_hops_->observe(static_cast<double>(hops));
        reg_latency_->observe(static_cast<double>(latency));
    }
    return latency;
}

void CitySim::begin_registration(MetroHost* host, bool renewal) {
    ++host->epoch;  // any in-flight completion for an older epoch is now stale
    host->renewing = renewal;
    if (config_.overload.enabled) {
        send_request(host, renewal,
                     clients_[host->index].start(core::RegistrationClient::Exchange::Refresh));
        return;
    }
    // Sixteen bytes of capture fit std::function's inline buffer, so the
    // event allocates nothing; finish_registration reads the rest from
    // the host.
    sim_.schedule_in(one_way_latency(host, /*observe=*/true),
                     [this, index = static_cast<std::uint32_t>(host->index),
                      epoch = host->epoch] { finish_registration(index, epoch); },
                     "registration");
}

void CitySim::finish_registration(std::uint32_t index, std::uint32_t epoch) {
    MetroHost* host = pop_.hosts()[index];
    if (host->epoch != epoch) return;  // superseded by a later handoff
    // Every handoff bumps the epoch, so host->cell is still the cell the
    // host registered from, and host->renewing still says which kind of
    // registration this was.
    const sim::TimePoint expires = sim_.now() + config_.registration_lifetime;
    tables_[host->home_agent].set(host->home_address,
                                  topo_.cells()[static_cast<std::size_t>(host->cell)].care_of,
                                  expires);
    host->binding_expires = expires;
    AgentStats& as = agents_[host->home_agent];
    (host->renewing ? *as.renewals : *as.registrations).add();
    ++registrations_total_;
    sim_.schedule_in(config_.registration_lifetime / 5 * 4,
                     [this, index, epoch] {
                         MetroHost* current = pop_.hosts()[index];
                         if (current->epoch == epoch) begin_registration(current, /*renewal=*/true);
                     },
                     "reg-renewal");
}

// ---- overload model (ISSUE 9) ---------------------------------------------
//
// With overload.enabled the analytic always-succeeds exchange above is
// replaced by a full request/reply loop: the request takes the same
// hop-proportional latency to reach the home agent, queues in that
// agent's RegistrationQueue (where it can be shed), and the reply takes
// the latency back. Losses — shed requests, flap-wiped state — surface as
// reply timeouts; each host's core::RegistrationClient decides every
// retry, and this engine only models the wire.

void CitySim::send_request(MetroHost* host, bool renewal,
                           const core::RegistrationClient::Decision& send) {
    if (send.action != core::RegistrationClient::Action::Send) return;
    if (send.parked) ov_circuit_probes_->add();
    const std::uint32_t epoch = host->epoch;
    const std::int32_t cell = host->cell;
    const std::uint64_t xid = send.id;
    const sim::Duration latency = one_way_latency(host, /*observe=*/true);
    sim_.schedule_in(latency,
                     [this, host, epoch, cell, renewal, xid] {
                         server_arrival(host, epoch, cell, renewal, xid);
                     },
                     "registration");
    // The timeout covers the round trip plus the expected queueing delay;
    // a request stuck deeper than reply_timeout is retried even though it
    // may still be served (the duplicate converges via the xid guard).
    sim_.schedule_in(2 * latency + config_.overload.reply_timeout,
                     [this, host, renewal, xid] { client_timeout(host, renewal, xid); },
                     "reg-timeout");
}

void CitySim::server_arrival(MetroHost* host, std::uint32_t epoch, std::int32_t cell,
                             bool renewal, std::uint64_t xid) {
    // Classify against the agent's *actual* table: after a flap the whole
    // homed population arrives as New — exactly the class the bounded
    // queue sheds first while renewals from other hosts keep flowing.
    const bool bound =
        tables_[host->home_agent].lookup(host->home_address, sim_.now()).has_value();
    queues_[host->home_agent]->submit(
        bound ? core::RequestClass::Renewal : core::RequestClass::New,
        host->home_address.to_string(),
        [this, host, epoch, cell, renewal, xid] {
            serve_registration(host, epoch, cell, renewal, xid);
        });
    // A shed submit needs no handling here: shedding is silent and the
    // client recovers through its reply timeout.
}

void CitySim::serve_registration(MetroHost* host, std::uint32_t epoch,
                                 std::int32_t cell, bool renewal, std::uint64_t xid) {
    if (host->epoch != epoch) return;  // superseded by a later handoff
    const sim::TimePoint expires = sim_.now() + config_.registration_lifetime;
    tables_[host->home_agent].set(host->home_address,
                                  topo_.cells()[static_cast<std::size_t>(cell)].care_of,
                                  expires);
    AgentStats& as = agents_[host->home_agent];
    (renewal ? *as.renewals : *as.registrations).add();
    ++registrations_total_;
    sim_.schedule_in(one_way_latency(host, /*observe=*/false),
                     [this, host, xid] { client_reply(host, xid); }, "reg-reply");
}

void CitySim::client_reply(MetroHost* host, std::uint64_t xid) {
    if (!clients_[host->index].reply(xid, /*served=*/true)) return;
    host->binding_expires = sim_.now() + config_.registration_lifetime;
    // Renewal point. The protected leg draws it from [0.6, 0.9) of the
    // lifetime: cohorts that registered together (initial attach, the
    // post-flap storm) would otherwise renew together forever, and a
    // synchronized renewal wave overflows even a healthy agent's bounded
    // queue. The OFF leg renews at the fixed 4/5 point, keeping the
    // cohorts aligned — part of what the unprotected storm collapses under.
    sim::Duration renew_in = config_.registration_lifetime / 5 * 4;
    if (config_.overload.protection) {
        const std::uint64_t draw = sim::mix64(config_.population.seed ^ kRenewTag ^
                                              (static_cast<std::uint64_t>(host->index) << 20) ^
                                              xid);
        const auto span = static_cast<std::uint64_t>(
            std::max<sim::Duration>(config_.registration_lifetime * 3 / 10, 1));
        renew_in = config_.registration_lifetime * 3 / 5 +
                   static_cast<sim::Duration>(draw % span);
    }
    sim_.schedule_in(renew_in,
                     [this, host, epoch = host->epoch] {
                         if (host->epoch == epoch) begin_registration(host, /*renewal=*/true);
                     },
                     "reg-renewal");
}

void CitySim::client_timeout(MetroHost* host, bool renewal, std::uint64_t xid) {
    const core::RegistrationClient::Decision wait = clients_[host->index].backoff(xid);
    if (wait.action != core::RegistrationClient::Action::Wait) {
        return;  // answered or superseded meanwhile
    }
    ov_timeouts_->add();
    if (!wait.parked) ov_retries_->add();
    if (wait.circuit_opened) {
        ov_circuit_opens_->add();
        decisions_.record({sim_.now(), "host-" + std::to_string(host->index),
                           "ha-" + std::to_string(host->home_agent), "overload",
                           "retry-budget",
                           "attempts=" + std::to_string(wait.attempt) + "/" +
                               std::to_string(config_.overload.retry_budget),
                           false, "retrying", "parked", "",
                           "retry budget exhausted; parking with slow probes"});
    }
    sim_.schedule_in(wait.delay,
                     [this, host, renewal, xid] {
                         send_request(host, renewal, clients_[host->index].retry(xid));
                     },
                     "reg-retry");
}

void CitySim::flap_agent_now() {
    const std::size_t a = config_.overload.flap_agent;
    pre_flap_bindings_ = tables_[a].size();
    tables_[a].clear();
    queues_[a]->clear();
    ov_flaps_->add();
    decisions_.record({sim_.now(), "ha-" + std::to_string(a), "city", "fault",
                       "agent-flap", "bindings=" + std::to_string(pre_flap_bindings_),
                       true, "up", "flapped", "",
                       "binding table wiped; homed population storms back"});
    // Every attached host homed at the flapped agent notices — its renewal
    // or traffic fails — within the notice window and re-registers. The
    // notice offsets are seeded draws, not policy: this is the arrival
    // process of the storm the retry policy is then measured against.
    const auto window = static_cast<std::uint64_t>(
        std::max<sim::Duration>(config_.overload.flap_notice_window, 1));
    for (MetroHost* host : pop_.hosts()) {
        if (host->home_agent != a || host->cell < 0) continue;
        const sim::Duration offset = static_cast<sim::Duration>(
            sim::mix64(config_.population.seed ^ kFlapTag ^ host->index) % window);
        sim_.schedule_in(offset,
                         [this, host] { begin_registration(host, /*renewal=*/false); },
                         "flap-rereg");
    }
    sim_.schedule_in(kRecoveryPoll, [this] { check_recovery(); }, "storm-recovery");
}

void CitySim::check_recovery() {
    if (storm_recovery_) return;
    const std::size_t a = config_.overload.flap_agent;
    if (queues_[a]->depth() == 0 && tables_[a].size() * 10 >= pre_flap_bindings_ * 9) {
        storm_recovery_ = sim_.now() - config_.overload.flap_at;
        decisions_.record({sim_.now(), "ha-" + std::to_string(a), "city", "overload",
                           "storm-recovered",
                           "bindings=" + std::to_string(tables_[a].size()) + "/" +
                               std::to_string(pre_flap_bindings_),
                           true, "flapped", "recovered", "",
                           "table back above 90% of pre-flap size with a drained queue"});
        return;
    }
    if (sim_.now() + kRecoveryPoll <= config_.duration) {
        sim_.schedule_in(kRecoveryPoll, [this] { check_recovery(); }, "storm-recovery");
    }
}

void CitySim::probe_sweep(std::uint64_t sweep_index) {
    const auto& hosts = pop_.hosts();
    const sim::TimePoint now = sim_.now();
    for (std::size_t k = 0; k < config_.probes_per_sweep; ++k) {
        const std::uint64_t draw = sim::mix64(
            config_.population.seed ^ kProbeTag ^ (sweep_index * 0x10001ull + k));
        MetroHost* host = hosts[draw % hosts.size()];
        probes_->add();
        ++probes_total_;
        if (host->cell < 0) {
            unbound_->add();
            continue;
        }
        const auto binding =
            tables_[host->home_agent].lookup(host->home_address, now);
        if (!binding) {
            unbound_->add();
        } else if (binding->care_of_address ==
                   topo_.cells()[static_cast<std::size_t>(host->cell)].care_of) {
            delivered_->add();
        } else {
            stale_->add();  // binding points at a cell the host already left
        }
    }
    if (now + config_.probe_interval <= config_.duration) {
        sim_.schedule_in(config_.probe_interval,
                         [this, next = sweep_index + 1] { probe_sweep(next); },
                         "deliverability-probe");
    }
}

void CitySim::run() {
    if (ran_) throw std::logic_error("CitySim::run called twice");
    ran_ = true;

    if (config_.metrics_interval > 0) {
        sampler_ = std::make_unique<obs::MetricsSampler>(
            sim_, registry_,
            obs::SamplerConfig{config_.metrics_interval, 4096});
        sampler_->start();
    }
    if (config_.monitor_interval > 0) {
        monitor_ = std::make_unique<obs::HealthMonitor>(
            sim_, registry_, obs::MonitorConfig{config_.monitor_interval});
        monitor_->add_rate_spike(
            {.name = "handoff-storm",
             .node = "city",
             .layer = "metro",
             .metric = "handoffs",
             .min_rate = config_.storm_rate_floor,
             .spike_factor = config_.storm_spike_factor,
             .alpha = 0.3,
             .warmup_evals = 2,
             .detail = "citywide handoff wave above the EWMA baseline"});
        if (config_.overload.enabled) {
            // Shed-spike + queue watermark on the agent the ablation flaps.
            // The watermark trips only when the queue outruns 4x the
            // protected capacity — collapse evidence on the unbounded leg.
            core::arm_overload_monitors(
                *monitor_, "ha-" + std::to_string(config_.overload.flap_agent),
                4.0 * static_cast<double>(
                          std::max<std::size_t>(config_.overload.agent.queue_capacity, 16)),
                config_.overload.shed_rate_floor);
        }
        monitor_->set_decision_log(&decisions_);
        incidents_ = std::make_unique<obs::IncidentRecorder>();
        incidents_->attach_decisions(&decisions_);
        if (sampler_) incidents_->attach_sampler(sampler_.get());
        incidents_->arm(*monitor_, "bench_city", config_.label);
        monitor_->start();
    }

    // Stagger every host's sampling phase inside the interval so 10k
    // timers spread across it instead of beating on the same instant —
    // exactly the access pattern the calendar queue is built for.
    for (MetroHost* host : pop_.hosts()) {
        const sim::Duration stagger = static_cast<sim::Duration>(
            sim::mix64(config_.population.seed ^ kStaggerTag ^ host->index) %
            static_cast<std::uint64_t>(config_.sample_interval));
        sim_.schedule_at(stagger,
                         [this, index = static_cast<std::uint32_t>(host->index)] {
                             sample_host(index, /*found=*/-1);
                         },
                         "city-sample");
    }
    if (config_.probes_per_sweep > 0 && config_.probe_interval > 0) {
        sim_.schedule_at(config_.probe_interval, [this] { probe_sweep(0); },
                         "deliverability-probe");
    }
    // Home-agent GC: a lazy sweep twice per lifetime counts what expired
    // without renewal (binding-table pressure from churned-out hosts).
    const sim::Duration gc_interval = config_.registration_lifetime / 2;
    struct GcTick {
        CitySim* city;
        sim::Duration interval;
        void operator()() const {
            const sim::TimePoint now = city->sim_.now();
            for (std::size_t a = 0; a < city->tables_.size(); ++a) {
                const std::size_t dropped = city->tables_[a].expire(now);
                if (dropped > 0) city->agents_[a].expired->add(dropped);
            }
            if (now + interval <= city->config_.duration) {
                city->sim_.schedule_in(interval, GcTick{city, interval}, "ha-gc");
            }
        }
    };
    sim_.schedule_at(gc_interval, GcTick{this, gc_interval}, "ha-gc");

    if (config_.overload.enabled && config_.overload.flap_at > 0 &&
        config_.overload.flap_at < config_.duration &&
        config_.overload.flap_agent < tables_.size()) {
        sim_.schedule_at(config_.overload.flap_at, [this] { flap_agent_now(); },
                         "agent-flap");
    }

    sim_.run_until(config_.duration);
    if (monitor_) monitor_->stop();
    if (sampler_) sampler_->stop();
}

obs::JsonValue CitySim::snapshot(const std::string& bench, const std::string& label) const {
    return registry_.snapshot(bench, label, sim_.now());
}

std::string CitySim::snapshot_json(const std::string& bench,
                                   const std::string& label) const {
    return registry_.snapshot_json(bench, label, sim_.now());
}

}  // namespace mip::metro
