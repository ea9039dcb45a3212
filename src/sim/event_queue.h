// Event-queue structures behind sim::Simulator.
//
// The simulator's ordering contract is a *total* order — (when, schedule
// sequence) ascending, sequences unique — so any correct priority
// structure dispatches the exact same event sequence and every artifact
// stays byte-identical. That is what lets the queue be tuned for speed,
// and what lets tests/test_sim.cpp check it pop for pop against a
// std::priority_queue oracle over the same keys.
//
// Storage is split in two. The priority structure holds only 16-byte,
// trivially copyable EventKeys {when, seq << 24 | slot}; the closure and
// its profiler tag live in the simulator's slot slab, reached through
// the key's slot index. Moving a key is a memmove, never a std::function
// move, and the key alone decides the order.
//
// The structure is Brown's indexed calendar queue (CACM 1988):
// time-ordered buckets, one "day" wide each, scanned like a desk
// calendar. Enqueue hashes the timestamp to a bucket; dequeue takes the
// current bucket's earliest key or advances to the next day. The bucket
// count doubles and halves with the population. The day width follows
// Brown's rule on the ~25 keys nearest the head of the queue (3x the
// trimmed mean gap between their distinct instants; ties are left out),
// so a few distant timers cannot stretch the days the dense near-term
// traffic lives in. A whole year scanned dry, or more than a year's
// worth of scan steps at over two per pop since the last rebuild, means
// the width is too small for what is pending now, and re-estimates it
// from the new head.
//
// A bad width costs speed, never order: each bucket is kept sorted, and
// the year guard (`when < cur_top_`) defers a far-future key that hashes
// into a near bucket. QueueStats counts the work — key shifts on insert,
// empty-bucket scan steps on pop, rebuilds — deterministically, so tests
// and CI bound it exactly (tests/test_sim.cpp, bench/check_perf_trend.py).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace mip::sim {

/// Handle for cancelling a scheduled event: generation << 32 | slot.
/// Never 0, so 0 works as "no event" in timer members.
using EventId = std::uint64_t;

/// What a priority structure orders: the firing time, then `order` =
/// schedule sequence << kSlotBits | slot. Sequences are unique, so the
/// slot bits never decide a comparison.
struct EventKey {
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;

    TimePoint when = 0;
    std::uint64_t order = 0;

    std::uint32_t slot() const noexcept { return static_cast<std::uint32_t>(order & kSlotMask); }
};

/// True when @p a must fire before @p b (the simulator's total order).
inline bool fires_before(const EventKey& a, const EventKey& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.order < b.order;
}

/// Deterministic work counters for the event queue.
struct QueueStats {
    std::uint64_t scheduled = 0;  ///< keys pushed
    std::uint64_t popped = 0;     ///< keys popped, cancelled ones included
    std::uint64_t cancelled = 0;  ///< successful cancel() calls
    std::uint64_t shifts = 0;     ///< keys moved inside buckets by inserts
    std::uint64_t scans = 0;      ///< empty-bucket steps taken by pops
    std::uint64_t rebuilds = 0;   ///< re-bucketings (resizes and re-estimates)

    double shifts_per_push() const noexcept {
        return scheduled == 0 ? 0.0 : static_cast<double>(shifts) / static_cast<double>(scheduled);
    }
    double scans_per_pop() const noexcept {
        return popped == 0 ? 0.0 : static_cast<double>(scans) / static_cast<double>(popped);
    }
};

/// Indexed calendar queue over EventKeys.
class CalendarQueue {
public:
    CalendarQueue();

    void push(EventKey key);

    /// Moves the earliest key into @p out if its timestamp is <= @p
    /// limit; returns false (leaving the queue untouched) otherwise.
    bool pop_if(TimePoint limit, EventKey& out);

    /// The key the scan is parked on, or nullptr: most often the next to
    /// pop, which makes it a prefetch hint.
    const EventKey* front_hint() const noexcept {
        const Bucket& b = buckets_[cur_];
        return b.empty() ? nullptr : &b.front();
    }

    std::size_t size() const noexcept { return count_; }
    bool empty() const noexcept { return count_ == 0; }

    /// Bucket count and day width right now (resize observability).
    std::size_t buckets() const noexcept { return buckets_.size(); }
    Duration bucket_width() const noexcept { return width_; }

    /// shifts, scans and rebuilds; the simulator fills in the rest.
    const QueueStats& stats() const noexcept { return stats_; }

private:
    static constexpr std::size_t kMinBuckets = 16;
    static constexpr std::size_t kMaxBuckets = 1 << 20;
    /// Keys sampled from the head to size the day (Brown's rule).
    static constexpr std::size_t kWidthSample = 25;

    /// Keys ascending by (when, order) in keys[head, end). Pops advance
    /// `head`; an insert ahead of everything reuses the hole it leaves.
    struct Bucket {
        std::vector<EventKey> keys;
        std::size_t head = 0;

        bool empty() const noexcept { return head == keys.size(); }
        const EventKey& front() const noexcept { return keys[head]; }
    };

    std::size_t bucket_of(TimePoint when) const noexcept {
        return static_cast<std::size_t>(when / width_) & mask_;
    }

    /// Inserts @p key into its bucket in order, counting shifted keys.
    void insert(EventKey key);

    /// Re-buckets every key into @p nbuckets buckets, with the day width
    /// re-estimated from the earliest keys.
    void rebuild(std::size_t nbuckets);

    /// Points the scan at @p when's bucket and year.
    void aim_at(TimePoint when) noexcept {
        cur_ = bucket_of(when);
        cur_top_ = (when / width_ + 1) * width_;
    }

    std::vector<Bucket> buckets_;
    std::size_t mask_ = kMinBuckets - 1;
    Duration width_ = milliseconds(1);
    std::size_t count_ = 0;
    std::size_t cur_ = 0;        ///< bucket the scan is parked on
    TimePoint cur_top_ = 0;      ///< end of cur_'s active one-day window
    std::uint64_t scans_since_rebuild_ = 0;  ///< scan steps since the last rebuild
    std::uint64_t pops_since_rebuild_ = 0;   ///< pops since the last rebuild
    QueueStats stats_;
};

}  // namespace mip::sim
