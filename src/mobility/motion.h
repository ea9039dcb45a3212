// Physical motion models: simulated time -> 2-D position (meters).
//
// Every model is a deterministic function of its configuration (and seed):
// sampling the same model at the same instants always yields the same
// trajectory. This preserves the simulator's bit-reproducibility invariant
// — the same rule sim/link.h applies to random frame loss — so a fixed
// seed implies a bit-identical handoff sequence for a whole run.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "sim/time.h"

namespace mip::mobility {

/// A point in the simulation plane, in meters.
struct Position {
    double x = 0;
    double y = 0;
    friend bool operator==(const Position&, const Position&) = default;
};

/// Euclidean distance in meters.
double distance(Position a, Position b);

/// The straight-line piece of a trajectory around an instant, with a
/// bound on everything that is not linear. segment_at(t) promises
///
///     |position_at(s) - line(s)| <= radius   (plus rounding)
///
/// for every s in [t, until), where line(s) = origin + v * (s - t0) and
/// t0 <= t. A waypoint leg or a pause has radius 0; a group member's
/// wander around its anchor is the radius of its leader's segment plus
/// the wander amplitude. The city look-ahead uses it to prove that a
/// run of sample instants stays inside one cell without evaluating
/// the model at any of them (DESIGN.md §11).
struct Segment {
    Position origin;          ///< the line's point at t0
    double vx = 0, vy = 0;    ///< meters per nanosecond
    sim::TimePoint t0 = 0;
    sim::TimePoint until = 0; ///< first instant the promise no longer covers
    double radius = 0;        ///< meters

    /// The line's point at @p t.
    Position at(sim::TimePoint t) const noexcept {
        const double dt = static_cast<double>(t - t0);
        return {origin.x + vx * dt, origin.y + vy * dt};
    }
};

class MobilityModel {
public:
    virtual ~MobilityModel() = default;
    /// Position at absolute simulated time @p t. Queries may arrive in any
    /// order; the answer for a given t never changes.
    virtual Position position_at(sim::TimePoint t) = 0;
    /// The segment of the trajectory that covers @p t (see Segment). Like
    /// position_at, a pure function of t.
    virtual Segment segment_at(sim::TimePoint t) = 0;
};

/// Constant-velocity straight-line motion from a starting point.
class LinearMobility final : public MobilityModel {
public:
    LinearMobility(Position start, double vx_mps, double vy_mps)
        : start_(start), vx_(vx_mps), vy_(vy_mps) {}

    Position position_at(sim::TimePoint t) override;
    /// One segment, valid forever.
    Segment segment_at(sim::TimePoint t) override;

private:
    Position start_;
    double vx_;
    double vy_;
};

/// Scripted waypoints with linear interpolation between them. The position
/// holds at the first waypoint before its time and at the last waypoint
/// forever after. A trace that sits on the home segment until t and then
/// rides to a foreign cell reproduces the old hard-coded
/// "attach_foreign at t" tests as a degenerate motion.
class TraceMobility final : public MobilityModel {
public:
    struct Waypoint {
        sim::TimePoint at = 0;
        Position pos;
    };

    /// @p waypoints must be non-empty and sorted by time (throws otherwise).
    explicit TraceMobility(std::vector<Waypoint> waypoints);

    Position position_at(sim::TimePoint t) override;
    /// The waypoint pair around @p t; stationary before the first
    /// waypoint and after the last.
    Segment segment_at(sim::TimePoint t) override;

private:
    std::vector<Waypoint> waypoints_;
};

/// The classic random-waypoint model: pick a uniform destination inside the
/// bounding box, travel there at a uniform-random speed, pause, repeat.
/// Legs are generated lazily from a per-model seeded PRNG and memoized, so
/// the whole trajectory is a pure function of the configuration.
class RandomWaypointMobility final : public MobilityModel {
public:
    struct Config {
        double min_x = 0, min_y = 0;
        double max_x = 1000, max_y = 1000;
        double min_speed_mps = 1.0;
        double max_speed_mps = 20.0;
        /// Rest time at each waypoint before departing for the next.
        sim::Duration pause = sim::seconds(0);
        /// Starting position; defaults to the center of the box.
        std::optional<Position> start;
        std::uint64_t seed = 1;
    };

    explicit RandomWaypointMobility(Config config);

    Position position_at(sim::TimePoint t) override;
    /// The moving leg over [depart, arrive), or the pause at its
    /// waypoint over [arrive, pause_until).
    Segment segment_at(sim::TimePoint t) override;

private:
    struct Leg {
        sim::TimePoint depart = 0;
        Position from, to;
        sim::TimePoint arrive = 0;       ///< depart + travel time
        sim::TimePoint pause_until = 0;  ///< arrive + pause
    };

    /// Draws legs from the PRNG until the memoized trajectory covers @p t.
    void extend_until(sim::TimePoint t);
    /// The leg running or pausing at @p t >= 0 (extends the trajectory).
    const Leg& leg_at(sim::TimePoint t);

    Config config_;
    std::mt19937_64 rng_;
    std::vector<Leg> legs_;
};

}  // namespace mip::mobility
