// Group mobility: members moving as a flock around a shared leader
// trajectory (ISSUE 6 — the city-scale scenario's commuter flocks).
//
// Following the INET taxonomy (SNIPPETS.md: single vs *group*,
// stochastic vs trace-based), a group model is built by superposition: a
// single leader MobilityModel carries the flock's path — a stochastic
// RandomWaypointMobility for a roaming flock, a TraceMobility for a
// trace-driven commuter line — and every member adds its own bounded
// offset. The member offset is a closed-form deterministic function of
// (member seed, t): a fixed anchor displacement plus a slow sinusoidal
// wander, with anchor + wander amplitude clamped inside max_radius_m.
// That gives the cohesion guarantee the tests assert:
//
//     distance(member(t), leader(t)) <= max_radius_m   for all t
//
// and keeps the whole flock a pure function of its seeds — sampling in
// any order, at any rate, from any thread schedule yields the same
// trajectories, preserving the simulator's bit-reproducibility rule.
#pragma once

#include <cstdint>
#include <memory>

#include "mobility/motion.h"
#include "sim/mix.h"

namespace mip::mobility {

/// One flock member: the shared leader's position plus a bounded,
/// deterministic offset. Many members share one leader model; queries
/// delegate to it, so a memoizing leader (RandomWaypointMobility)
/// extends its trajectory once for the whole flock.
class GroupMemberMobility final : public MobilityModel {
public:
    struct Config {
        /// Hard cohesion bound: the member never strays farther than
        /// this from the leader (meters, > 0).
        double max_radius_m = 50.0;
        /// Fraction of max_radius_m taken by the fixed anchor offset;
        /// the remainder bounds the wander amplitude. In [0, 1].
        double anchor_fraction = 0.6;
        /// Period of the sinusoidal wander around the anchor.
        sim::Duration wander_period = sim::seconds(30);
        /// Per-member seed: anchor angle, wander phase and amplitude are
        /// derived from it (sim::mix64), so a flock built from seeds
        /// 1..N is deterministic and members are mutually distinct.
        std::uint64_t seed = 1;
    };

    GroupMemberMobility(std::shared_ptr<MobilityModel> leader, Config config);

    Position position_at(sim::TimePoint t) override;
    /// The leader's segment moved by the anchor offset, its radius
    /// widened by the wander amplitude.
    Segment segment_at(sim::TimePoint t) override;

    const Config& config() const noexcept { return config_; }
    MobilityModel& leader() noexcept { return *leader_; }

private:
    std::shared_ptr<MobilityModel> leader_;
    Config config_;
    // Derived once from the seed:
    double anchor_x_ = 0;
    double anchor_y_ = 0;
    double wander_r_ = 0;     ///< wander amplitude (<= max_radius - |anchor|)
    double wander_phase_ = 0; ///< radians
};

/// A uniform double in [0, 1) from a mixed seed (deterministic, no RNG
/// state; used for per-member parameter derivation).
double seed_unit(std::uint64_t mixed);

}  // namespace mip::mobility
