#include "metro/topology.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace mip::metro {

namespace {

std::string indexed_name(const char* stem, std::size_t index, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s-%0*zu", stem, digits, index);
    return buf;
}

}  // namespace

MetroTopology::MetroTopology(MetroConfig config) : config_(config) {
    if (config_.cells_x <= 0 || config_.cells_y <= 0) {
        throw std::invalid_argument("MetroTopology: cell grid must be non-empty");
    }
    if (config_.cell_size_m <= 0) {
        throw std::invalid_argument("MetroTopology: cell_size_m must be > 0");
    }
    if (config_.cells_per_regional <= 0 || config_.regionals_per_backbone <= 0) {
        throw std::invalid_argument("MetroTopology: aggregation fan-in must be > 0");
    }
    if (config_.home_agents <= 0) {
        throw std::invalid_argument("MetroTopology: need at least one home agent");
    }

    const std::size_t n_cells =
        static_cast<std::size_t>(config_.cells_x) * static_cast<std::size_t>(config_.cells_y);
    const std::size_t n_regionals =
        (n_cells + config_.cells_per_regional - 1) / config_.cells_per_regional;
    const std::size_t n_backbones =
        (n_regionals + config_.regionals_per_backbone - 1) / config_.regionals_per_backbone;

    backbones_.reserve(n_backbones);
    for (std::size_t b = 0; b < n_backbones; ++b) {
        backbones_.push_back({b, indexed_name("backbone", b, 1)});
    }
    regionals_.reserve(n_regionals);
    for (std::size_t r = 0; r < n_regionals; ++r) {
        regionals_.push_back({r, indexed_name("regional", r, 2),
                              r / static_cast<std::size_t>(config_.regionals_per_backbone)});
    }
    cells_.reserve(n_cells);
    for (std::size_t c = 0; c < n_cells; ++c) {
        const std::size_t ix = c % static_cast<std::size_t>(config_.cells_x);
        const std::size_t iy = c / static_cast<std::size_t>(config_.cells_x);
        MetroCell cell;
        cell.index = c;
        cell.name = indexed_name("cell", c, 4);
        cell.center = {(static_cast<double>(ix) + 0.5) * config_.cell_size_m,
                       (static_cast<double>(iy) + 0.5) * config_.cell_size_m};
        cell.regional = c / static_cast<std::size_t>(config_.cells_per_regional);
        cell.care_of = net::Ipv4Address(0xAC100000u + static_cast<std::uint32_t>(c) + 1);
        cells_.push_back(std::move(cell));
    }
}

const MetroCell& MetroTopology::cell_at(mobility::Position p) const noexcept {
    const auto clamp_axis = [](double v, double size, int n) {
        long i = static_cast<long>(std::floor(v / size));
        return std::clamp(i, 0L, static_cast<long>(n) - 1);
    };
    const long ix = clamp_axis(p.x, config_.cell_size_m, config_.cells_x);
    const long iy = clamp_axis(p.y, config_.cell_size_m, config_.cells_y);
    return cells_[static_cast<std::size_t>(iy) * config_.cells_x + ix];
}

CellBounds MetroTopology::cell_bounds(std::size_t index) const noexcept {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto cols = static_cast<std::size_t>(config_.cells_x);
    const int ix = static_cast<int>(index % cols);
    const int iy = static_cast<int>(index / cols);
    const double size = config_.cell_size_m;
    return {.min_x = ix == 0 ? -kInf : ix * size,
            .min_y = iy == 0 ? -kInf : iy * size,
            .max_x = ix + 1 == config_.cells_x ? kInf : (ix + 1) * size,
            .max_y = iy + 1 == config_.cells_y ? kInf : (iy + 1) * size};
}

int MetroTopology::hop_count(std::size_t from_cell, std::size_t to_cell) const noexcept {
    if (from_cell == to_cell) return 2;
    const std::size_t ra = cells_[from_cell].regional;
    const std::size_t rb = cells_[to_cell].regional;
    if (ra == rb) return 4;
    if (regionals_[ra].backbone == regionals_[rb].backbone) return 6;
    return 8;
}

std::size_t MetroTopology::home_agent_cell(std::size_t ha_index) const noexcept {
    // Spread agents across the grid with a fixed stride so consecutive
    // agents land in different regionals (and usually different
    // backbones) — registrations exercise every tier of the hierarchy.
    const std::size_t stride = cells_.size() / static_cast<std::size_t>(config_.home_agents);
    return (ha_index * (stride == 0 ? 1 : stride)) % cells_.size();
}

}  // namespace mip::metro
