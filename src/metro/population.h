// Deterministic city population (ISSUE 6 tentpole).
//
// Builds 10k–50k mobile hosts from a single seed: commuter flocks that
// share a stochastic leader path (GroupMemberMobility over
// RandomWaypointMobility), transit riders that share a trace-driven
// metro-line path (GroupMemberMobility over TraceMobility), and solo
// walkers on independent random-waypoint trajectories. Every per-host
// parameter — leader seeds, member jitter, start positions — is derived
// from (config.seed, index) via sim::mix64, so two populations
// built from equal configs are trajectory-identical, which is what lets
// SweepRunner jobs at any --jobs produce byte-identical artifacts.
//
// Host records live in an Arena (metro/arena.h): construction order is
// index order, so CitySim's hot loops walk them sequentially in memory,
// and teardown is a few block frees instead of 50k heap frees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "metro/arena.h"
#include "metro/topology.h"
#include "mobility/group.h"
#include "mobility/motion.h"
#include "net/ipv4_address.h"
#include "sim/time.h"

namespace mip::metro {

struct PopulationConfig {
    std::size_t hosts = 10000;
    std::uint64_t seed = 1;
    /// Fraction of hosts in commuter flocks (random-waypoint leaders).
    double flock_fraction = 0.45;
    /// Fraction of hosts riding trace-driven metro lines.
    double transit_fraction = 0.20;
    /// Members per commuter flock.
    int flock_size = 25;
    /// Number of scripted metro lines crossing the city.
    int metro_lines = 4;
    /// Times each metro line crosses the city and returns.
    int trace_cycles = 6;
    /// Cohesion bound for flock members around their leader (meters).
    double cohesion_radius_m = 120.0;
    /// Leader / solo walking-speed range (m/s); metro lines run at
    /// metro_speed_mps point to point.
    double min_speed_mps = 1.0;
    double max_speed_mps = 15.0;
    double metro_speed_mps = 18.0;
    /// Pause at random waypoints.
    sim::Duration pause = sim::seconds(5);
};

/// One mobile host: identity plus the runtime registration state CitySim
/// mutates while the city runs. Arena-allocated; pointers stay valid for
/// the population's lifetime.
struct MetroHost {
    enum class Kind : std::uint8_t { Solo, Flock, Transit };

    std::size_t index = 0;
    Kind kind = Kind::Solo;
    net::Ipv4Address home_address;
    std::size_t home_agent = 0;
    mobility::MobilityModel* model = nullptr;  ///< arena- or leader-owned

    // --- runtime state (owned by CitySim) ---
    std::int32_t cell = -1;                ///< current cell, -1 before first sample
    sim::TimePoint binding_expires = 0;    ///< host's view of its registration
    std::uint32_t epoch = 0;               ///< guards stale in-flight registrations
    bool renewing = false;                 ///< the latest registration is a renewal
};

class Population {
public:
    /// Builds the full population against @p topo. The topology must
    /// outlive the population (leaders are bounded by its extent).
    Population(const MetroTopology& topo, PopulationConfig config);

    Population(const Population&) = delete;
    Population& operator=(const Population&) = delete;

    const PopulationConfig& config() const noexcept { return config_; }
    const std::vector<MetroHost*>& hosts() const noexcept { return hosts_; }
    std::vector<MetroHost*>& hosts() noexcept { return hosts_; }

    std::size_t flock_count() const noexcept { return flock_count_; }
    std::size_t transit_hosts() const noexcept { return transit_hosts_; }
    std::size_t solo_hosts() const noexcept { return solo_hosts_; }
    const Arena& arena() const noexcept { return arena_; }

private:
    PopulationConfig config_;
    Arena arena_;
    /// Shared flock/line leader models (see mobility/group.h — members
    /// hold shared_ptr copies, so one lazy trajectory serves a flock).
    std::vector<std::shared_ptr<mobility::MobilityModel>> leaders_;
    std::vector<MetroHost*> hosts_;
    std::size_t flock_count_ = 0;
    std::size_t transit_hosts_ = 0;
    std::size_t solo_hosts_ = 0;
};

}  // namespace mip::metro
