#include "metro/population.h"

#include <cmath>
#include <stdexcept>

namespace mip::metro {

using mobility::GroupMemberMobility;
using sim::mix64;
using mobility::Position;
using mobility::RandomWaypointMobility;
using mobility::seed_unit;
using mobility::TraceMobility;

namespace {

// Domain-separation tags so flock-leader, line, member and solo seeds
// never collide even for adjacent indices.
constexpr std::uint64_t kFlockTag = 0x464C4F434Bull;   // "FLOCK"
constexpr std::uint64_t kLineTag = 0x4C494E45ull;      // "LINE"
constexpr std::uint64_t kMemberTag = 0x4D454D42ull;    // "MEMB"
constexpr std::uint64_t kSoloTag = 0x534F4C4Full;      // "SOLO"

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
    return mix64(mix64(seed ^ tag) + index);
}

/// A scripted metro line: ping-pong across the city @p cycles times at
/// constant speed, then hold at the final terminus. Odd lines run
/// north–south, even lines east–west, spread evenly across the grid.
std::vector<TraceMobility::Waypoint> metro_line_waypoints(
    const MetroTopology& topo, int line, int lines, int cycles, double speed_mps,
    std::uint64_t seed) {
    const double w = topo.width_m();
    const double h = topo.height_m();
    const bool east_west = (line % 2) == 0;
    // Lane offset keeps parallel lines apart; jitter the departure so
    // lines do not all arrive at termini in lock-step.
    const double lane = (static_cast<double>(line) + 0.5) / static_cast<double>(lines);
    const Position a = east_west ? Position{0, lane * h} : Position{lane * w, 0};
    const Position b = east_west ? Position{w, lane * h} : Position{lane * w, h};
    const double leg_s = mobility::distance(a, b) / speed_mps;
    const sim::Duration leg = static_cast<sim::Duration>(std::llround(leg_s * 1e9));
    const sim::Duration dwell = sim::seconds(20);
    sim::TimePoint t = static_cast<sim::TimePoint>(
        std::llround(seed_unit(derive(seed, kLineTag, line)) * 60e9));  // 0–60 s stagger

    std::vector<TraceMobility::Waypoint> wps;
    wps.push_back({0, a});
    wps.push_back({t, a});
    for (int c = 0; c < cycles; ++c) {
        t += leg;
        wps.push_back({t, b});
        t += dwell;
        wps.push_back({t, b});
        t += leg;
        wps.push_back({t, a});
        t += dwell;
        wps.push_back({t, a});
    }
    return wps;
}

}  // namespace

Population::Population(const MetroTopology& topo, PopulationConfig config)
    : config_(config) {
    if (config_.hosts == 0) {
        throw std::invalid_argument("Population: need at least one host");
    }
    if (config_.flock_fraction < 0 || config_.transit_fraction < 0 ||
        config_.flock_fraction + config_.transit_fraction > 1.0) {
        throw std::invalid_argument("Population: bad kind fractions");
    }
    if (config_.flock_size <= 0 || config_.metro_lines <= 0) {
        throw std::invalid_argument("Population: flock_size and metro_lines must be > 0");
    }

    const std::size_t n_flock =
        static_cast<std::size_t>(std::llround(config_.flock_fraction *
                                              static_cast<double>(config_.hosts)));
    const std::size_t n_transit =
        static_cast<std::size_t>(std::llround(config_.transit_fraction *
                                              static_cast<double>(config_.hosts)));
    flock_count_ = (n_flock + config_.flock_size - 1) / config_.flock_size;
    transit_hosts_ = n_transit;
    solo_hosts_ = config_.hosts - n_flock - n_transit;

    // Shared leaders first: one random-waypoint model per commuter flock,
    // one trace per metro line.
    std::vector<std::shared_ptr<mobility::MobilityModel>> flock_leaders;
    flock_leaders.reserve(flock_count_);
    for (std::size_t f = 0; f < flock_count_; ++f) {
        RandomWaypointMobility::Config rw;
        rw.max_x = topo.width_m();
        rw.max_y = topo.height_m();
        rw.min_speed_mps = config_.min_speed_mps;
        rw.max_speed_mps = config_.max_speed_mps;
        rw.pause = config_.pause;
        rw.seed = derive(config_.seed, kFlockTag, f);
        rw.start = Position{seed_unit(mix64(rw.seed)) * topo.width_m(),
                            seed_unit(mix64(rw.seed + 1)) * topo.height_m()};
        flock_leaders.push_back(std::make_shared<RandomWaypointMobility>(rw));
    }
    std::vector<std::shared_ptr<mobility::MobilityModel>> line_leaders;
    line_leaders.reserve(config_.metro_lines);
    for (int l = 0; l < config_.metro_lines; ++l) {
        line_leaders.push_back(std::make_shared<TraceMobility>(metro_line_waypoints(
            topo, l, config_.metro_lines, config_.trace_cycles, config_.metro_speed_mps,
            config_.seed)));
    }

    hosts_.reserve(config_.hosts);
    for (std::size_t i = 0; i < config_.hosts; ++i) {
        MetroHost* host = arena_.create<MetroHost>();
        host->index = i;
        host->home_address = MetroTopology::host_home_address(i);
        host->home_agent = topo.home_agent_of(i);
        const std::uint64_t member_seed = derive(config_.seed, kMemberTag, i);
        if (i < n_flock) {
            host->kind = MetroHost::Kind::Flock;
            GroupMemberMobility::Config gm;
            gm.max_radius_m = config_.cohesion_radius_m;
            gm.seed = member_seed;
            host->model = arena_.create<GroupMemberMobility>(
                flock_leaders[i / static_cast<std::size_t>(config_.flock_size)], gm);
        } else if (i < n_flock + n_transit) {
            host->kind = MetroHost::Kind::Transit;
            GroupMemberMobility::Config gm;
            // Riders stay inside the train: a tight radius and a short
            // shuffle period around the car they sit in.
            gm.max_radius_m = 25.0;
            gm.wander_period = sim::seconds(90);
            gm.seed = member_seed;
            host->model = arena_.create<GroupMemberMobility>(
                line_leaders[(i - n_flock) % line_leaders.size()], gm);
        } else {
            host->kind = MetroHost::Kind::Solo;
            RandomWaypointMobility::Config rw;
            rw.max_x = topo.width_m();
            rw.max_y = topo.height_m();
            rw.min_speed_mps = config_.min_speed_mps;
            rw.max_speed_mps = config_.max_speed_mps;
            rw.pause = config_.pause;
            rw.seed = derive(config_.seed, kSoloTag, i);
            rw.start = Position{seed_unit(mix64(rw.seed)) * topo.width_m(),
                                seed_unit(mix64(rw.seed + 1)) * topo.height_m()};
            host->model = arena_.create<RandomWaypointMobility>(rw);
        }
        hosts_.push_back(host);
    }

    leaders_ = std::move(flock_leaders);
    leaders_.insert(leaders_.end(), line_leaders.begin(), line_leaders.end());
}

}  // namespace mip::metro
