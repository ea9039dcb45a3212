// Hierarchical metro topology (ISSUE 6 tentpole).
//
// The paper's experiments run a handful of subnets on a bench; a metro
// deployment is three tiers deep: a city backbone, regional aggregation
// routers hanging off it, and hundreds of radio cells hanging off the
// regionals. This builder lays the radio cells out as a uniform
// cells_x × cells_y grid (each cell one square, cell_size_m on a side),
// assigns consecutive runs of cells to regional routers and consecutive
// runs of regionals to backbone routers, and derives every address from
// the indices — so the whole topology is a pure function of its config
// and two topologies built from equal configs are identical.
//
// Tiering matters to the simulation in two ways:
//   - hop_count(a, b) gives the registration path length between two
//     cells (the deeper the divergence point, the longer the path), which
//     CitySim turns into registration latency;
//   - cell_at(p) is the radio-association function: an O(1) grid index
//     from position to cell, the city-scale replacement for the O(cells)
//     linear scan a CoverageMap::best_at would cost per sample at 10^4
//     hosts × 10^2 cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mobility/motion.h"
#include "net/ipv4_address.h"

namespace mip::metro {

struct MetroConfig {
    /// Radio-cell grid dimensions; cell_count = cells_x * cells_y.
    int cells_x = 12;
    int cells_y = 12;
    /// Side of each (square) cell, meters.
    double cell_size_m = 500.0;
    /// Consecutive cells aggregated per regional router.
    int cells_per_regional = 16;
    /// Consecutive regionals aggregated per backbone router.
    int regionals_per_backbone = 4;
    /// Home agents serving the mobile population (hosts are assigned
    /// round-robin by host index).
    int home_agents = 8;
};

struct MetroCell {
    std::size_t index = 0;
    std::string name;                ///< "cell-0042"
    mobility::Position center;
    std::size_t regional = 0;        ///< index into regionals()
    /// Foreign-agent style care-of address shared by visitors of the cell.
    net::Ipv4Address care_of;
};

struct MetroRegional {
    std::size_t index = 0;
    std::string name;                ///< "regional-03"
    std::size_t backbone = 0;        ///< index into backbones()
};

/// The region cell_at maps to one cell: [min_x, max_x) × [min_y, max_y).
/// Border cells extend to ±infinity on their outer sides, because
/// cell_at clamps positions outside the grid to the nearest edge cell.
struct CellBounds {
    double min_x = 0, min_y = 0;
    double max_x = 0, max_y = 0;
};

struct MetroBackbone {
    std::size_t index = 0;
    std::string name;                ///< "backbone-0"
};

class MetroTopology {
public:
    /// Throws std::invalid_argument on non-positive dimensions.
    explicit MetroTopology(MetroConfig config);

    const MetroConfig& config() const noexcept { return config_; }
    const std::vector<MetroCell>& cells() const noexcept { return cells_; }
    const std::vector<MetroRegional>& regionals() const noexcept { return regionals_; }
    const std::vector<MetroBackbone>& backbones() const noexcept { return backbones_; }

    double width_m() const noexcept { return config_.cells_x * config_.cell_size_m; }
    double height_m() const noexcept { return config_.cells_y * config_.cell_size_m; }

    /// The cell whose square contains @p p — O(1) grid arithmetic.
    /// Positions outside the grid clamp to the nearest edge cell (the
    /// radio associates with the closest base station; there are no dead
    /// zones at city scale, only weak edges).
    const MetroCell& cell_at(mobility::Position p) const noexcept;

    /// The region cell_at maps to cell @p index (see CellBounds).
    CellBounds cell_bounds(std::size_t index) const noexcept;

    /// Link-level hops a registration travels from a host in @p from_cell
    /// to a home agent reached via @p to_cell: up to the lowest common
    /// tier and back down. Same cell: 2; same regional: 4; same backbone
    /// router: 6; across the backbone: 8.
    int hop_count(std::size_t from_cell, std::size_t to_cell) const noexcept;

    /// Home address of mobile host @p host_index (10.0.0.0/8, dense).
    static net::Ipv4Address host_home_address(std::size_t host_index) noexcept {
        return net::Ipv4Address(0x0A000000u + static_cast<std::uint32_t>(host_index) + 1);
    }

    /// Address of home agent @p ha_index (192.168.0.0/16, dense).
    static net::Ipv4Address home_agent_address(std::size_t ha_index) noexcept {
        return net::Ipv4Address(0xC0A80000u + static_cast<std::uint32_t>(ha_index) + 1);
    }

    /// The home-agent index serving @p host_index (round-robin).
    std::size_t home_agent_of(std::size_t host_index) const noexcept {
        return host_index % static_cast<std::size_t>(config_.home_agents);
    }

    /// The cell a home agent's wired subnet hangs off (used as the far
    /// end of registration paths): home agents are spread across the
    /// regional grid the same round-robin way hosts are spread across
    /// home agents.
    std::size_t home_agent_cell(std::size_t ha_index) const noexcept;

private:
    MetroConfig config_;
    std::vector<MetroCell> cells_;
    std::vector<MetroRegional> regionals_;
    std::vector<MetroBackbone> backbones_;
};

}  // namespace mip::metro
