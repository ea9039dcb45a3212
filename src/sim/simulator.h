// Single-threaded discrete-event simulator.
//
// Every link transmission, protocol timer and host action in this library
// is an event on one Simulator's queue. Events scheduled for the same
// instant fire in scheduling order (a monotonically increasing sequence
// number breaks ties), which makes whole-network runs bit-reproducible.
//
// Closures live in a slab of slots reused through a LIFO free list; the
// priority structure orders 16-byte keys that point into it (see
// event_queue.h). An EventId names a slot and the slot's generation, so
// cancel() is an index and a compare: it leaves a tombstone that is
// freed when its key pops, and a stale id (its event already fired)
// simply fails the generation check.
//
// The priority structure is the indexed calendar queue. tests/test_sim.cpp
// pins its pop order against a std::priority_queue oracle over the same
// keys.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/pool.h"
#include "sim/event_queue.h"
#include "sim/record_arena.h"
#include "sim/time.h"

namespace mip::sim {

class SimProfiler;

class Simulator {
public:
    Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    TimePoint now() const noexcept { return now_; }

    /// Schedules @p action to run at absolute time @p when (>= now).
    /// @p kind tags the event for the self-profiler ("frame-delivery",
    /// "tcp-rto", ...); it must be a string literal or otherwise outlive
    /// the event. Untagged events profile under "event".
    EventId schedule_at(TimePoint when, std::function<void()> action,
                        const char* kind = nullptr);

    /// Schedules @p action to run @p delay from now.
    EventId schedule_in(Duration delay, std::function<void()> action,
                        const char* kind = nullptr) {
        return schedule_at(now_ + delay, std::move(action), kind);
    }

    /// Cancels a pending event and releases its closure. Cancelling an
    /// already-fired, already-cancelled or unknown id is a harmless no-op
    /// (timers race with the events that cancel them) and leaves nothing
    /// behind.
    void cancel(EventId id) {
        const std::uint64_t slot = id & 0xffff'ffffu;
        if (slot >= slots_.size()) return;
        Slot& s = slots_[slot];
        if (s.gen != id >> 32 || s.state != SlotState::Pending) return;
        s.state = SlotState::Cancelled;
        ++tombstones_;
        ++counts_.cancelled;
        // Destroyed last: a closure's destructor may re-enter the simulator.
        const std::function<void()> doomed = std::move(s.action);
    }

    /// Runs until the queue drains or @p max_events fire. Returns the
    /// number of events executed.
    std::size_t run(std::size_t max_events = kDefaultEventLimit);

    /// Runs events with timestamps <= @p until.
    std::size_t run_until(TimePoint until);

    /// Hands out the next packet-journey id (1, 2, 3, ...). Every IP stack
    /// in a simulation draws from this one counter, so ids are unique
    /// network-wide and — the scheduler being deterministic — reproducible
    /// run to run.
    std::uint64_t next_packet_id() noexcept { return next_packet_id_++; }

    /// Hands out the next NIC MAC id (1, 2, 3, ...). Scoped to this
    /// simulator — not process-global — so a World's MAC addresses depend
    /// only on its own construction order, never on how many other worlds
    /// this process (or a parallel sweep job on another thread) built
    /// first. That scoping is what makes sweep shards byte-identical to a
    /// serial run.
    std::uint32_t next_mac_id() noexcept { return next_mac_id_++; }

    /// Hands out the next ICMP echo identifier. Per-simulator for the same
    /// reproducibility reason as next_mac_id().
    std::uint16_t next_ping_ident() noexcept { return next_ping_ident_++; }

    /// The world's packet-payload recycler (see net::BufferPool): the link
    /// layer and the IP serialization path draw payload storage from here
    /// and return it after delivery. Single-threaded like the simulator.
    net::BufferPool& buffer_pool() noexcept { return buffer_pool_; }
    const net::BufferPool& buffer_pool() const noexcept { return buffer_pool_; }

    /// The world's observability-record arena (see sim::RecordArena): the
    /// trace recorder and decision log draw their chunk storage from here,
    /// so clearing a window recycles storage instead of freeing it.
    /// Single-threaded like the simulator and the buffer pool.
    RecordArena& record_arena() noexcept { return record_arena_; }
    const RecordArena& record_arena() const noexcept { return record_arena_; }

    /// Queued events, cancelled ones not yet popped included.
    std::size_t pending_events() const noexcept { return calendar_.size(); }
    /// Cancelled events still queued. Stale cancellations never count.
    /// Observability hook for the leak regression tests.
    std::size_t cancelled_backlog() const noexcept { return tombstones_; }

    /// Deterministic work counters of the event queue over the
    /// simulator's lifetime (monotone, never reset).
    QueueStats queue_stats() const noexcept;

    /// Cumulative count of events dispatched over the simulator's lifetime
    /// (bench_perf's events/sec numerator; monotone, never reset).
    std::uint64_t events_fired() const noexcept { return events_fired_; }

    /// Attaches (or, with nullptr, detaches) a self-profiler. Off by
    /// default; when detached the per-event cost is one pointer compare.
    /// The profiler must outlive its attachment.
    void set_profiler(SimProfiler* profiler) noexcept { profiler_ = profiler; }
    SimProfiler* profiler() const noexcept { return profiler_; }

    static constexpr std::size_t kDefaultEventLimit = 10'000'000;

private:
    enum class SlotState : std::uint8_t { Free, Pending, Cancelled };

    /// One event's closure and profiler tag, addressed by its key's slot.
    /// Cache-line sized, so reading one on pop costs one miss, not two.
    struct alignas(64) Slot {
        std::function<void()> action;
        const char* kind = nullptr;
        std::uint32_t gen = 1;  ///< bumped on release, so never 0 in an EventId
        SlotState state = SlotState::Free;
    };

    /// Returns @p slot to the free list; ids naming it go stale.
    void release(std::uint32_t slot) noexcept;

    /// Fires the next non-cancelled event with timestamp <= @p limit.
    /// Returns false when none qualifies (cancelled events up to the limit
    /// are purged either way).
    bool fire_next(TimePoint limit);

    TimePoint now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t next_packet_id_ = 1;
    std::uint32_t next_mac_id_ = 1;
    std::uint16_t next_ping_ident_ = 1;
    net::BufferPool buffer_pool_;
    RecordArena record_arena_;
    std::uint64_t events_fired_ = 0;
    SimProfiler* profiler_ = nullptr;
    CalendarQueue calendar_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;  ///< LIFO: reuse the slot still in cache
    std::size_t tombstones_ = 0;
    QueueStats counts_;  ///< scheduled, popped, cancelled
};

}  // namespace mip::sim
