#include "sim/event_queue.h"

#include <algorithm>

namespace mip::sim {

namespace {

/// Brown's rule over @p n keys sorted ascending: the mean gap between
/// neighbouring instants, recomputed without the gaps over twice that
/// mean, times 3. Ties are left out: counted as zero gaps they would pass
/// the trim while every gap between bunches of tied keys failed it, and a
/// head of a few such bunches would size the day at the 1 ns floor, so
/// each pop would step over hundreds of empty days. Keys all at one
/// instant give the floor.
Duration head_width(const EventKey* keys, std::size_t n) {
    Duration steps = 0;
    for (std::size_t i = 1; i < n; ++i) steps += keys[i].when != keys[i - 1].when;
    if (steps == 0) return 1;
    const Duration mean = (keys[n - 1].when - keys[0].when) / steps;
    Duration sum = 0;
    Duration kept = 0;
    for (std::size_t i = 1; i < n; ++i) {
        const Duration gap = keys[i].when - keys[i - 1].when;
        if (gap > 0 && gap <= 2 * mean) {
            sum += gap;
            ++kept;
        }
    }
    return std::max<Duration>(1, 3 * sum / kept);
}

}  // namespace

CalendarQueue::CalendarQueue() : buckets_(kMinBuckets) {}

void CalendarQueue::push(EventKey key) {
    if (count_ == 0 || key.when < cur_top_ - width_) {
        // First key, or one scheduled before the scan's current day
        // (possible during setup, when a near event follows a far one):
        // park the scan on it so nothing later is popped first.
        aim_at(key.when);
    }
    insert(key);
    ++count_;
    if (count_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
        rebuild(buckets_.size() * 2);
    }
}

void CalendarQueue::insert(EventKey key) {
    Bucket& b = buckets_[bucket_of(key.when)];
    std::vector<EventKey>& keys = b.keys;
    const auto live = static_cast<std::ptrdiff_t>(keys.size() - b.head);
    auto first = keys.begin() + static_cast<std::ptrdiff_t>(b.head);
    auto pos = std::upper_bound(first, keys.end(), key, fires_before);
    const std::ptrdiff_t before = pos - first;
    if (b.head > 0 && before <= live - before) {
        // Slide the earlier keys down into the hole the pops left.
        std::move(first, pos, first - 1);
        *(pos - 1) = key;
        --b.head;
        stats_.shifts += static_cast<std::uint64_t>(before);
        return;
    }
    if (static_cast<std::ptrdiff_t>(b.head) > live) {
        // More hole than keys: a bucket that never empties would otherwise
        // grow without bound.
        keys.erase(keys.begin(), first);
        b.head = 0;
        stats_.shifts += static_cast<std::uint64_t>(live);
        pos = keys.begin() + before;
    }
    stats_.shifts += static_cast<std::uint64_t>(keys.end() - pos);
    keys.insert(pos, key);
}

bool CalendarQueue::pop_if(TimePoint limit, EventKey& out) {
    if (count_ == 0) return false;
    std::size_t scanned = 0;
    while (true) {
        Bucket& b = buckets_[cur_];
        // The year guard: only keys inside the current one-day window
        // belong to this visit; a far-future key hashing into this
        // bucket waits for its own year.
        if (!b.empty() && b.front().when < cur_top_) {
            if (b.front().when > limit) return false;
            out = b.front();
            if (++b.head == b.keys.size()) {
                b.keys.clear();
                b.head = 0;
            }
            --count_;
            ++pops_since_rebuild_;
            if (count_ > 0 && count_ * 4 < buckets_.size() && buckets_.size() > kMinBuckets) {
                rebuild(buckets_.size() / 2);
            }
            return true;
        }
        ++stats_.scans;
        ++scans_since_rebuild_;
        cur_ = (cur_ + 1) & mask_;
        cur_top_ += width_;
        if (++scanned >= buckets_.size() ||
            (scans_since_rebuild_ > buckets_.size() &&
             scans_since_rebuild_ > 2 * pops_since_rebuild_)) {
            // A whole year scanned dry, or more than a year's worth of
            // scans at over two per pop since the days were last sized:
            // they are too narrow for what is pending now. Re-estimate
            // them from the new head, which also aims the scan at the
            // earliest key.
            rebuild(buckets_.size());
            scanned = 0;
        }
    }
}

void CalendarQueue::rebuild(std::size_t nbuckets) {
    ++stats_.rebuilds;
    scans_since_rebuild_ = 0;
    pops_since_rebuild_ = 0;
    std::vector<EventKey> all;
    all.reserve(count_);
    for (const Bucket& b : buckets_) {
        all.insert(all.end(), b.keys.begin() + static_cast<std::ptrdiff_t>(b.head), b.keys.end());
    }
    // Brown's rule samples the head: the kWidthSample earliest keys.
    const std::size_t sample = std::min(all.size(), kWidthSample);
    std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(sample), all.end(),
                      fires_before);
    if (sample >= 2) width_ = head_width(all.data(), sample);
    buckets_.assign(nbuckets, {});
    mask_ = nbuckets - 1;
    for (const EventKey& key : all) buckets_[bucket_of(key.when)].keys.push_back(key);
    for (Bucket& b : buckets_) std::sort(b.keys.begin(), b.keys.end(), fires_before);
    aim_at(all.front().when);
}

}  // namespace mip::sim
