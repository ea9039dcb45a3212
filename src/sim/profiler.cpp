#include "sim/profiler.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace mip::sim {

void SimProfiler::record(const char* kind, std::uint64_t wall_ns, std::size_t queue_depth,
                         std::size_t cancelled_size) {
    auto it = std::find_if(by_tag_.begin(), by_tag_.end(),
                           [kind](const auto& entry) { return entry.first == kind; });
    if (it == by_tag_.end()) it = by_tag_.insert(it, {kind, {}});
    EventKindProfile& p = it->second;
    merged_ = false;
    ++p.dispatches;
    p.wall_ns += wall_ns;
    p.max_wall_ns = std::max(p.max_wall_ns, wall_ns);
    ++total_dispatches_;
    total_wall_ns_ += wall_ns;
    max_queue_depth_ = std::max(max_queue_depth_, queue_depth);
    max_cancelled_size_ = std::max(max_cancelled_size_, cancelled_size);
}

const std::map<std::string, EventKindProfile>& SimProfiler::by_kind() const {
    if (!merged_) {
        by_kind_.clear();
        for (const auto& [tag, profile] : by_tag_) {
            EventKindProfile& p = by_kind_[tag != nullptr ? tag : "event"];
            p.dispatches += profile.dispatches;
            p.wall_ns += profile.wall_ns;
            p.max_wall_ns = std::max(p.max_wall_ns, profile.max_wall_ns);
        }
        merged_ = true;
    }
    return by_kind_;
}

double SimProfiler::events_per_second() const noexcept {
    if (total_wall_ns_ == 0) return 0.0;
    return static_cast<double>(total_dispatches_) * 1e9 /
           static_cast<double>(total_wall_ns_);
}

std::string SimProfiler::summary() const {
    std::vector<const std::map<std::string, EventKindProfile>::value_type*> rows;
    rows.reserve(by_kind().size());
    for (const auto& kv : by_kind()) rows.push_back(&kv);
    std::sort(rows.begin(), rows.end(),
              [](const auto* a, const auto* b) { return a->second.wall_ns > b->second.wall_ns; });

    std::string out;
    char line[160];
    std::snprintf(line, sizeof line, "%-24s %12s %12s %10s %10s\n", "kind", "dispatches",
                  "wall(us)", "mean(ns)", "max(ns)");
    out += line;
    for (const auto* row : rows) {
        const EventKindProfile& p = row->second;
        std::snprintf(line, sizeof line, "%-24s %12llu %12.1f %10.0f %10llu\n",
                      row->first.c_str(), static_cast<unsigned long long>(p.dispatches),
                      static_cast<double>(p.wall_ns) / 1e3, p.mean_wall_ns(),
                      static_cast<unsigned long long>(p.max_wall_ns));
        out += line;
    }
    std::snprintf(line, sizeof line,
                  "total: %llu dispatches, %.1f ms wall, %.0f events/s, "
                  "queue high-water %zu, cancelled high-water %zu\n",
                  static_cast<unsigned long long>(total_dispatches_),
                  static_cast<double>(total_wall_ns_) / 1e6, events_per_second(),
                  max_queue_depth_, max_cancelled_size_);
    out += line;
    return out;
}

void SimProfiler::reset() {
    by_tag_.clear();
    by_kind_.clear();
    merged_ = true;
    total_dispatches_ = 0;
    total_wall_ns_ = 0;
    max_queue_depth_ = 0;
    max_cancelled_size_ = 0;
}

}  // namespace mip::sim
