#include "mobility/motion.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mip::mobility {

namespace {
constexpr sim::TimePoint kForever = std::numeric_limits<sim::TimePoint>::max();

/// The first waypoint strictly after @p t.
std::vector<TraceMobility::Waypoint>::const_iterator first_after(
    const std::vector<TraceMobility::Waypoint>& waypoints, sim::TimePoint t) {
    return std::upper_bound(
        waypoints.begin(), waypoints.end(), t,
        [](sim::TimePoint when, const TraceMobility::Waypoint& w) { return when < w.at; });
}

/// A segment that holds @p pos over [t0, until).
Segment stationary(Position pos, sim::TimePoint t0, sim::TimePoint until) {
    return {.origin = pos, .vx = 0, .vy = 0, .t0 = t0, .until = until, .radius = 0};
}

/// The straight run from @p from at @p t0 to @p to at @p t1 (t0 < t1).
Segment moving(Position from, sim::TimePoint t0, Position to, sim::TimePoint t1) {
    const double span = static_cast<double>(t1 - t0);
    return {.origin = from,
            .vx = (to.x - from.x) / span,
            .vy = (to.y - from.y) / span,
            .t0 = t0,
            .until = t1,
            .radius = 0};
}
}  // namespace

double distance(Position a, Position b) {
    return std::hypot(a.x - b.x, a.y - b.y);
}

// ---- LinearMobility ---------------------------------------------------------

Position LinearMobility::position_at(sim::TimePoint t) {
    const double secs = sim::to_seconds(t);
    return {start_.x + vx_ * secs, start_.y + vy_ * secs};
}

Segment LinearMobility::segment_at(sim::TimePoint t) {
    return {.origin = position_at(t),
            .vx = vx_ / 1e9,
            .vy = vy_ / 1e9,
            .t0 = t,
            .until = kForever,
            .radius = 0};
}

// ---- TraceMobility ----------------------------------------------------------

TraceMobility::TraceMobility(std::vector<Waypoint> waypoints)
    : waypoints_(std::move(waypoints)) {
    if (waypoints_.empty()) {
        throw std::invalid_argument("TraceMobility needs at least one waypoint");
    }
    for (std::size_t i = 1; i < waypoints_.size(); ++i) {
        if (waypoints_[i].at < waypoints_[i - 1].at) {
            throw std::invalid_argument("TraceMobility waypoints must be time-sorted");
        }
    }
}

Position TraceMobility::position_at(sim::TimePoint t) {
    if (t <= waypoints_.front().at) return waypoints_.front().pos;
    if (t >= waypoints_.back().at) return waypoints_.back().pos;
    const auto after = first_after(waypoints_, t);
    const Waypoint& b = *after;
    const Waypoint& a = *(after - 1);
    if (b.at == a.at) return b.pos;  // instantaneous jump: land on the later one
    const double f = static_cast<double>(t - a.at) / static_cast<double>(b.at - a.at);
    return {a.pos.x + (b.pos.x - a.pos.x) * f, a.pos.y + (b.pos.y - a.pos.y) * f};
}

Segment TraceMobility::segment_at(sim::TimePoint t) {
    // The same three cases as position_at, in the same order: the first
    // waypoint holds up to and including its instant, so an equal-time
    // jump out of it happens one nanosecond later.
    const Waypoint& first = waypoints_.front();
    if (t <= first.at) return stationary(first.pos, t, first.at + 1);
    const Waypoint& last = waypoints_.back();
    if (t >= last.at) return stationary(last.pos, t, kForever);
    const auto after = first_after(waypoints_, t);
    const Waypoint& a = *(after - 1);
    return moving(a.pos, a.at, after->pos, after->at);
}

// ---- RandomWaypointMobility -------------------------------------------------

RandomWaypointMobility::RandomWaypointMobility(Config config)
    : config_(config), rng_(config.seed) {
    if (config_.max_x < config_.min_x || config_.max_y < config_.min_y) {
        throw std::invalid_argument("RandomWaypointMobility: inverted bounding box");
    }
    if (config_.min_speed_mps <= 0 || config_.max_speed_mps < config_.min_speed_mps) {
        throw std::invalid_argument("RandomWaypointMobility: bad speed range");
    }
    if (!config_.start) {
        config_.start = Position{(config_.min_x + config_.max_x) / 2,
                                 (config_.min_y + config_.max_y) / 2};
    }
}

void RandomWaypointMobility::extend_until(sim::TimePoint t) {
    std::uniform_real_distribution<double> x_dist(config_.min_x, config_.max_x);
    std::uniform_real_distribution<double> y_dist(config_.min_y, config_.max_y);
    std::uniform_real_distribution<double> speed_dist(config_.min_speed_mps,
                                                      config_.max_speed_mps);
    while (legs_.empty() || legs_.back().pause_until <= t) {
        Leg leg;
        leg.depart = legs_.empty() ? 0 : legs_.back().pause_until;
        leg.from = legs_.empty() ? *config_.start : legs_.back().to;
        leg.to = {x_dist(rng_), y_dist(rng_)};
        const double speed = speed_dist(rng_);
        const double travel_s = distance(leg.from, leg.to) / speed;
        // A waypoint drawn on top of the current position would produce a
        // zero-duration leg; clamp so lazy extension always makes progress.
        const sim::Duration travel =
            std::max<sim::Duration>(sim::milliseconds(1),
                                    static_cast<sim::Duration>(std::llround(travel_s * 1e9)));
        leg.arrive = leg.depart + travel;
        leg.pause_until = leg.arrive + config_.pause;
        legs_.push_back(leg);
    }
}

const RandomWaypointMobility::Leg& RandomWaypointMobility::leg_at(sim::TimePoint t) {
    extend_until(t);
    // Legs are contiguous (each departs at the previous pause_until), so
    // the leg covering t is the first one still running or pausing at t.
    // extend_until guarantees the last leg qualifies. Binary search keeps
    // out-of-order queries (flock members sampling one leader from
    // different instants) at O(log legs).
    return *std::upper_bound(
        legs_.begin(), legs_.end(), t,
        [](sim::TimePoint when, const Leg& l) { return when < l.pause_until; });
}

Position RandomWaypointMobility::position_at(sim::TimePoint t) {
    if (t < 0) t = 0;
    const Leg& leg = leg_at(t);
    if (t >= leg.arrive) return leg.to;  // pausing at the waypoint
    if (t <= leg.depart) return leg.from;
    const double f = static_cast<double>(t - leg.depart) /
                     static_cast<double>(leg.arrive - leg.depart);
    return {leg.from.x + (leg.to.x - leg.from.x) * f,
            leg.from.y + (leg.to.y - leg.from.y) * f};
}

Segment RandomWaypointMobility::segment_at(sim::TimePoint t) {
    if (t < 0) return stationary(*config_.start, t, 0);  // position_at clamps to 0
    const Leg& leg = leg_at(t);
    if (t >= leg.arrive) return stationary(leg.to, leg.arrive, leg.pause_until);
    return moving(leg.from, leg.depart, leg.to, leg.arrive);
}

}  // namespace mip::mobility
