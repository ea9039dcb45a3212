#include "sim/simulator.h"

#include <chrono>
#include <limits>
#include <stdexcept>

#include "sim/profiler.h"

namespace mip::sim {

EventId Simulator::schedule_at(TimePoint when, std::function<void()> action,
                               const char* kind) {
    if (when < now_) {
        throw std::logic_error("Simulator::schedule_at in the past");
    }
    if (next_seq_ > std::numeric_limits<std::uint64_t>::max() >> EventKey::kSlotBits) {
        throw std::length_error("Simulator: event sequence exhausted");
    }
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        if (slots_.size() > EventKey::kSlotMask) {
            throw std::length_error("Simulator: too many pending events");
        }
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.action = std::move(action);
    s.kind = kind;
    s.state = SlotState::Pending;
    const EventKey key{when, next_seq_++ << EventKey::kSlotBits | slot};
    ++counts_.scheduled;
    calendar_.push(key);
    return EventId{s.gen} << 32 | slot;
}

void Simulator::release(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    s.action = nullptr;
    s.state = SlotState::Free;
    if (++s.gen == 0) s.gen = 1;
    free_slots_.push_back(slot);
}

QueueStats Simulator::queue_stats() const noexcept {
    QueueStats q = calendar_.stats();
    q.scheduled = counts_.scheduled;
    q.popped = counts_.popped;
    q.cancelled = counts_.cancelled;
    return q;
}

bool Simulator::fire_next(TimePoint limit) {
    EventKey key;
    while (calendar_.pop_if(limit, key)) {
        ++counts_.popped;
        const std::uint32_t slot = key.slot();
        Slot& s = slots_[slot];
        if (s.state == SlotState::Cancelled) {
            --tombstones_;
            release(slot);
            continue;
        }
        // Moved out and released first: the handler may schedule events,
        // which can reuse this slot or grow the slab under a reference.
        const std::function<void()> action = std::move(s.action);
        const char* kind = s.kind;
        release(slot);
        // The next event's slot is most likely a cache miss: start
        // loading it while this handler runs.
        if (const EventKey* next = calendar_.front_hint()) {
            __builtin_prefetch(&slots_[next->slot()]);
        }
        now_ = key.when;
        ++events_fired_;
        if (profiler_ != nullptr) {
            // Attach-time guard: the disabled path above pays only the
            // nullptr compare. Queue/cancelled sizes are read after the
            // handler so the gauges see what the handler scheduled.
            const auto t0 = std::chrono::steady_clock::now();
            action();
            const auto t1 = std::chrono::steady_clock::now();
            profiler_->record(
                kind,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()),
                pending_events(), tombstones_);
        } else {
            action();
        }
        return true;
    }
    return false;
}

std::size_t Simulator::run(std::size_t max_events) {
    std::size_t fired = 0;
    while (fired < max_events && fire_next(std::numeric_limits<TimePoint>::max())) {
        ++fired;
    }
    return fired;
}

std::size_t Simulator::run_until(TimePoint until) {
    std::size_t fired = 0;
    while (fire_next(until)) {
        ++fired;
    }
    if (now_ < until) now_ = until;
    return fired;
}

}  // namespace mip::sim
