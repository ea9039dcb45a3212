#include "mobility/group.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace mip::mobility {

double seed_unit(std::uint64_t mixed) {
    // Top 53 bits -> [0, 1); exact in a double.
    return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

GroupMemberMobility::GroupMemberMobility(std::shared_ptr<MobilityModel> leader,
                                         Config config)
    : leader_(std::move(leader)), config_(config) {
    if (!leader_) {
        throw std::invalid_argument("GroupMemberMobility needs a leader model");
    }
    if (config_.max_radius_m <= 0) {
        throw std::invalid_argument("GroupMemberMobility: max_radius_m must be > 0");
    }
    if (config_.anchor_fraction < 0 || config_.anchor_fraction > 1) {
        throw std::invalid_argument("GroupMemberMobility: anchor_fraction outside [0,1]");
    }
    if (config_.wander_period <= 0) {
        throw std::invalid_argument("GroupMemberMobility: wander_period must be > 0");
    }
    const std::uint64_t m0 = sim::mix64(config_.seed);
    const std::uint64_t m1 = sim::mix64(m0);
    const std::uint64_t m2 = sim::mix64(m1);
    const std::uint64_t m3 = sim::mix64(m2);
    const double anchor_r = config_.max_radius_m * config_.anchor_fraction *
                            seed_unit(m0);
    const double anchor_theta = 2 * std::numbers::pi * seed_unit(m1);
    anchor_x_ = anchor_r * std::cos(anchor_theta);
    anchor_y_ = anchor_r * std::sin(anchor_theta);
    // Whatever the anchor left unused of the radius budget bounds the
    // wander, so |anchor| + wander_r <= max_radius_m by construction.
    wander_r_ = (config_.max_radius_m - anchor_r) * seed_unit(m2);
    wander_phase_ = 2 * std::numbers::pi * seed_unit(m3);
}

Position GroupMemberMobility::position_at(sim::TimePoint t) {
    const Position lead = leader_->position_at(t);
    const double omega =
        2 * std::numbers::pi / sim::to_seconds(config_.wander_period);
    const double phase = omega * sim::to_seconds(t) + wander_phase_;
    // A circular orbit around the anchor point: |offset| <=
    // |anchor| + wander_r <= max_radius_m for every t — the cohesion bound.
    return {lead.x + anchor_x_ + wander_r_ * std::cos(phase),
            lead.y + anchor_y_ + wander_r_ * std::sin(phase)};
}

Segment GroupMemberMobility::segment_at(sim::TimePoint t) {
    // The member orbits its anchor point at exactly wander_r_, so the
    // leader's line moved by the anchor, widened by the wander, holds it.
    Segment seg = leader_->segment_at(t);
    seg.origin.x += anchor_x_;
    seg.origin.y += anchor_y_;
    seg.radius += wander_r_;
    return seg;
}

}  // namespace mip::mobility
