#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/link.h"
#include "sim/node.h"
#include "sim/simulator.h"

using namespace mip::sim;

TEST(Simulator, EventsFireInTimeOrder) {
    Simulator s;
    std::vector<int> order;
    s.schedule_in(milliseconds(30), [&] { order.push_back(3); });
    s.schedule_in(milliseconds(10), [&] { order.push_back(1); });
    s.schedule_in(milliseconds(20), [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), milliseconds(30));
}

TEST(Simulator, SameInstantFiresInScheduleOrder) {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        s.schedule_in(milliseconds(1), [&order, i] { order.push_back(i); });
    }
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CancelPreventsExecution) {
    Simulator s;
    bool fired = false;
    const EventId id = s.schedule_in(milliseconds(5), [&] { fired = true; });
    s.cancel(id);
    s.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIdIsHarmless) {
    Simulator s;
    s.cancel(99999);
    bool fired = false;
    s.schedule_in(milliseconds(1), [&] { fired = true; });
    s.run();
    EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
    Simulator s;
    int count = 0;
    s.schedule_in(milliseconds(10), [&] { ++count; });
    s.schedule_in(milliseconds(20), [&] { ++count; });
    s.run_until(milliseconds(15));
    EXPECT_EQ(count, 1);
    EXPECT_EQ(s.now(), milliseconds(15));
    s.run();
    EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
    Simulator s;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 10) s.schedule_in(milliseconds(1), recurse);
    };
    s.schedule_in(milliseconds(1), recurse);
    s.run();
    EXPECT_EQ(depth, 10);
}

TEST(Simulator, RunUntilNotDerailedByCancelledEvents) {
    // Regression: a cancelled event at the head of the queue must not cause
    // run_until to fire a later-than-limit event (observed as simulated
    // time jumping hours ahead during a bounded run).
    Simulator s;
    const EventId cancelled = s.schedule_in(milliseconds(5), [] {});
    bool late_fired = false;
    s.schedule_in(seconds(100), [&] { late_fired = true; });
    s.cancel(cancelled);
    s.run_until(milliseconds(10));
    EXPECT_FALSE(late_fired);
    EXPECT_EQ(s.now(), milliseconds(10));
}

TEST(Simulator, SchedulingInPastThrows) {
    Simulator s;
    s.schedule_in(milliseconds(1), [] {});
    s.run();
    EXPECT_THROW(s.schedule_at(0, [] {}), std::logic_error);
}

namespace {
struct TestRig {
    Simulator sim;
    TraceRecorder trace;
    Link link;
    Node a{sim, "a"};
    Node b{sim, "b"};
    Nic& nic_a;
    Nic& nic_b;

    explicit TestRig(LinkConfig cfg = {})
        : link(sim, cfg), nic_a(a.add_nic()), nic_b(b.add_nic()) {
        link.set_trace(&trace);
        nic_a.connect(link);
        nic_b.connect(link);
    }
};

/// A crowded shared segment: @p n single-NIC stations attached in index
/// order. Every station logs the frames it accepts.
struct Segment {
    struct Arrival {
        std::size_t station;
        TimePoint at;
        std::vector<std::uint8_t> payload;
    };

    Simulator sim;
    Link link;
    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<Nic*> nics;
    std::vector<Arrival> arrivals;

    explicit Segment(std::size_t n, LinkConfig cfg = {}) : link(sim, std::move(cfg)) {
        for (std::size_t i = 0; i < n; ++i) {
            nodes.push_back(std::make_unique<Node>(sim, "s" + std::to_string(i)));
            nics.push_back(&nodes.back()->add_nic());
            nics.back()->connect(link);
            nics.back()->set_handler([this, i](const Frame& f) {
                arrivals.push_back({i, sim.now(), f.payload});
            });
        }
    }

    void send(std::size_t from, MacAddress dst, std::vector<std::uint8_t> payload) {
        Frame f;
        f.dst = dst;
        f.payload = std::move(payload);
        nics[from]->send(std::move(f));
    }

    std::vector<std::size_t> receivers() const {
        std::vector<std::size_t> out;
        for (const Arrival& a : arrivals) out.push_back(a.station);
        return out;
    }
};

constexpr std::size_t kCrowd = 100;

std::vector<std::uint8_t> bytes(std::size_t v) { return {static_cast<std::uint8_t>(v)}; }

/// Duplicates every frame, changing nothing else.
class DuplicateEveryFrame final : public LinkFault {
public:
    FaultVerdict on_transmit(Frame&, TimePoint) override { return {.duplicate = true}; }
};
}  // namespace

TEST(Link, UnicastReachesOnlyAddressee) {
    Segment seg(kCrowd);
    // Station 0 addresses every other station once, then every station
    // answers station 0: each frame reaches its addressee and no one else.
    for (std::size_t to = 1; to < kCrowd; ++to) {
        seg.send(0, seg.nics[to]->mac(), bytes(to));
    }
    seg.sim.run();
    ASSERT_EQ(seg.arrivals.size(), kCrowd - 1);
    for (const Segment::Arrival& a : seg.arrivals) {
        EXPECT_EQ(a.payload, bytes(a.station));
    }

    seg.arrivals.clear();
    for (std::size_t from = 1; from < kCrowd; ++from) {
        seg.send(from, seg.nics[0]->mac(), bytes(from));
    }
    seg.sim.run();
    ASSERT_EQ(seg.arrivals.size(), kCrowd - 1);
    for (std::size_t i = 0; i < seg.arrivals.size(); ++i) {
        EXPECT_EQ(seg.arrivals[i].station, 0u);
        EXPECT_EQ(seg.arrivals[i].payload, bytes(i + 1));
    }
}

TEST(Link, BroadcastReachesEveryoneExceptSender) {
    Segment seg(kCrowd);
    constexpr std::size_t kSender = 3;
    seg.send(kSender, MacAddress::broadcast(), bytes(7));
    seg.sim.run();
    // Everyone but the sender, once each, in attach order.
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < kCrowd; ++i) {
        if (i != kSender) expected.push_back(i);
    }
    EXPECT_EQ(seg.receivers(), expected);
    for (const Segment::Arrival& a : seg.arrivals) {
        EXPECT_EQ(a.payload, bytes(7));
    }

    // A station that detaches and re-attaches goes to the back of the
    // attach order.
    constexpr std::size_t kMover = 10;
    seg.nics[kMover]->disconnect();
    seg.nics[kMover]->connect(seg.link);
    std::erase(expected, kMover);
    expected.push_back(kMover);
    seg.arrivals.clear();
    seg.send(kSender, MacAddress::broadcast(), bytes(8));
    seg.sim.run();
    EXPECT_EQ(seg.receivers(), expected);
}

TEST(Link, DuplicateTrailsOriginalByOneSerializationTime) {
    LinkConfig cfg;
    cfg.latency = milliseconds(1);
    cfg.bandwidth_bps = 8000.0;  // 1 byte per millisecond
    Segment seg(5, cfg);
    DuplicateEveryFrame dup;
    seg.link.set_fault(&dup);
    const std::vector<std::uint8_t> payload(86, 0x5a);  // 100 wire bytes: 100 ms

    // Broadcast: every receiver gets the original at 101 ms, in attach
    // order, then its duplicate at 201 ms, in the same order.
    seg.send(0, MacAddress::broadcast(), payload);
    seg.sim.run();
    ASSERT_EQ(seg.arrivals.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(seg.arrivals[i].station, 1 + i % 4);
        EXPECT_EQ(seg.arrivals[i].at, milliseconds(i < 4 ? 101 : 201));
        EXPECT_EQ(seg.arrivals[i].payload, payload);
    }

    // Unicast: the addressee's original is the moved frame, the
    // duplicate a copy; both carry the same bytes.
    seg.arrivals.clear();
    const TimePoint sent = seg.sim.now();
    seg.send(2, seg.nics[4]->mac(), payload);
    seg.sim.run();
    ASSERT_EQ(seg.arrivals.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(seg.arrivals[i].station, 4u);
        EXPECT_EQ(seg.arrivals[i].at, sent + milliseconds(i == 0 ? 101 : 201));
        EXPECT_EQ(seg.arrivals[i].payload, payload);
    }
}

TEST(Link, HandlerMaySendOnItsOwnLinkMidDelivery) {
    // Station 1 answers the first broadcast with a broadcast of its own
    // from inside its delivery, while the other 98 copies still wait:
    // the in-flight table grows under the delivery in progress. The frame
    // that handler holds, and every copy still waiting, must stay intact.
    Segment seg(kCrowd);
    const std::vector<std::uint8_t> query{1, 2, 3, 4};
    const std::vector<std::uint8_t> reply{9, 8, 7};
    bool answered = false;
    seg.nics[1]->set_handler([&](const Frame& f) {
        seg.arrivals.push_back({1, seg.sim.now(), f.payload});
        if (answered) return;
        answered = true;
        seg.send(1, MacAddress::broadcast(), reply);
        EXPECT_EQ(f.payload, query);
    });
    seg.send(0, MacAddress::broadcast(), query);
    seg.sim.run();

    ASSERT_TRUE(answered);
    std::size_t queries = 0, replies = 0;
    std::vector<int> got(kCrowd, 0);
    for (const Segment::Arrival& a : seg.arrivals) {
        if (a.payload == query) {
            ++queries;
            EXPECT_NE(a.station, 0u);
        } else {
            ASSERT_EQ(a.payload, reply);
            ++replies;
            EXPECT_NE(a.station, 1u);
        }
        ++got[a.station];
    }
    EXPECT_EQ(queries, kCrowd - 1);
    EXPECT_EQ(replies, kCrowd - 1);
    EXPECT_EQ(got[0], 1);
    EXPECT_EQ(got[1], 1);
    for (std::size_t i = 2; i < kCrowd; ++i) EXPECT_EQ(got[i], 2) << "station " << i;
}

TEST(Link, DeliveryDelayIncludesLatencyAndSerialization) {
    LinkConfig cfg;
    cfg.latency = milliseconds(1);
    cfg.bandwidth_bps = 8000.0;  // 1 byte per millisecond
    TestRig rig(cfg);

    TimePoint delivered_at = -1;
    rig.nic_b.set_handler([&](const Frame&) { delivered_at = rig.sim.now(); });
    Frame f;
    f.dst = rig.nic_b.mac();
    f.payload.assign(86, 0);  // 86 + 14 header = 100 bytes -> 100 ms
    rig.nic_a.send(std::move(f));
    rig.sim.run();
    EXPECT_EQ(delivered_at, milliseconds(101));
}

TEST(Link, OversizedFrameDropped) {
    LinkConfig cfg;
    cfg.mtu = 100;
    TestRig rig(cfg);
    int got = 0;
    rig.nic_b.set_handler([&](const Frame&) { ++got; });
    Frame f;
    f.dst = rig.nic_b.mac();
    f.payload.assign(101, 0);
    rig.nic_a.send(std::move(f));
    rig.sim.run();
    EXPECT_EQ(got, 0);
    EXPECT_EQ(rig.trace.count(TraceKind::FrameTooBig), 1u);
}

TEST(Link, LossyLinkDropsSomeFrames) {
    LinkConfig cfg;
    cfg.loss_rate = 0.5;
    cfg.seed = 42;
    TestRig rig(cfg);
    int got = 0;
    rig.nic_b.set_handler([&](const Frame&) { ++got; });
    for (int i = 0; i < 200; ++i) {
        Frame f;
        f.dst = rig.nic_b.mac();
        rig.nic_a.send(std::move(f));
    }
    rig.sim.run();
    EXPECT_GT(got, 50);
    EXPECT_LT(got, 150);
    EXPECT_EQ(rig.trace.count(TraceKind::FrameLost), 200u - got);
}

TEST(Link, FramesAreSerializedInFifoOrder) {
    // Regression: a small frame sent right after a large one must not
    // overtake it — the shared medium serializes transmissions. (This once
    // reordered a short final TCP segment ahead of a full-sized one.)
    LinkConfig cfg;
    cfg.bandwidth_bps = 8000.0;  // slow enough that tx time dominates
    TestRig rig(cfg);
    std::vector<std::size_t> arrival_sizes;
    rig.nic_b.set_handler(
        [&](const Frame& f) { arrival_sizes.push_back(f.payload.size()); });
    Frame big;
    big.dst = rig.nic_b.mac();
    big.payload.assign(1000, 0);
    rig.nic_a.send(std::move(big));
    Frame small;
    small.dst = rig.nic_b.mac();
    small.payload.assign(10, 0);
    rig.nic_a.send(std::move(small));
    rig.sim.run();
    ASSERT_EQ(arrival_sizes.size(), 2u);
    EXPECT_EQ(arrival_sizes[0], 1000u);
    EXPECT_EQ(arrival_sizes[1], 10u);
}

TEST(Link, NicMovedBetweenSegmentsMissesInFlightFrames) {
    TestRig rig;
    Link other(rig.sim, {});
    int got = 0;
    rig.nic_b.set_handler([&](const Frame&) { ++got; });
    Frame f;
    f.dst = rig.nic_b.mac();
    rig.nic_a.send(std::move(f));
    // b unplugs before the frame arrives.
    rig.nic_b.connect(other);
    rig.sim.run();
    EXPECT_EQ(got, 0);
}

TEST(Link, DisconnectedNicSendsVanish) {
    TestRig rig;
    int got = 0;
    rig.nic_b.set_handler([&](const Frame&) { ++got; });
    rig.nic_a.disconnect();
    Frame f;
    f.dst = rig.nic_b.mac();
    rig.nic_a.send(std::move(f));
    rig.sim.run();
    EXPECT_EQ(got, 0);
}

TEST(Trace, CountsTxRxBytes) {
    TestRig rig;
    rig.nic_b.set_handler([](const Frame&) {});
    Frame f;
    f.dst = rig.nic_b.mac();
    f.payload.assign(100, 0);
    rig.nic_a.send(std::move(f));
    rig.sim.run();
    EXPECT_EQ(rig.trace.count(TraceKind::FrameTx), 1u);
    EXPECT_EQ(rig.trace.count(TraceKind::FrameRx), 1u);
    EXPECT_EQ(rig.trace.total_tx_bytes(), 114u);
}

TEST(MacAddress, FormattingAndBroadcast) {
    EXPECT_EQ(MacAddress::broadcast().to_string(), "ff:ff:ff:ff:ff:ff");
    EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
    const MacAddress m = MacAddress::from_id(0x1234);
    EXPECT_FALSE(m.is_broadcast());
    EXPECT_EQ(m.to_string(), "02:00:00:00:12:34");
}

TEST(Simulator, StaleCancellationsSweptWhenQueueDrains) {
    Simulator s;
    const EventId id = s.schedule_in(milliseconds(1), [] {});
    s.run();
    s.cancel(id);  // the event already fired: this cancellation is stale
    EXPECT_EQ(s.cancelled_backlog(), 0u) << "a stale id fails the generation check";
    s.schedule_in(milliseconds(1), [] {});
    s.run();
    EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(Simulator, StaleCancellationsDoNotLeakBesideAPeriodicTimer) {
    // A world with a periodic timer never drains its queue, so stale
    // cancellations must not wait for a drain to be forgotten.
    Simulator s;
    std::function<void()> tick = [&] { s.schedule_in(milliseconds(10), tick); };
    s.schedule_in(milliseconds(10), tick);
    std::vector<EventId> fired;
    for (int i = 0; i < 100'000; ++i) fired.push_back(s.schedule_in(milliseconds(1), [] {}));
    s.run_until(milliseconds(5));
    for (const EventId id : fired) s.cancel(id);
    EXPECT_EQ(s.cancelled_backlog(), 0u);
    EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, CancellationErasedWhenItsEventIsPurged) {
    Simulator s;
    int fired = 0;
    const EventId id = s.schedule_in(milliseconds(1), [&] { ++fired; });
    s.schedule_in(milliseconds(2), [&] { ++fired; });
    s.cancel(id);
    s.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(Simulator, CancelOfNeverScheduledIdIsIgnoredOutright) {
    Simulator s;
    s.cancel(12345);  // larger than any id ever handed out
    s.cancel(0);
    EXPECT_EQ(s.cancelled_backlog(), 0u);
}

// ---- calendar queue (ISSUE 6: the indexed event queue) ----------------------

#include <algorithm>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace {

using Order = std::uint64_t;

/// Pops everything <= limit and returns the (when, order) sequence.
std::vector<std::pair<TimePoint, Order>> drain(CalendarQueue& q,
                                               TimePoint limit =
                                                   std::numeric_limits<TimePoint>::max()) {
    std::vector<std::pair<TimePoint, Order>> out;
    EventKey key;
    while (q.pop_if(limit, key)) out.emplace_back(key.when, key.order);
    return out;
}

}  // namespace

TEST(CalendarQueue, PopsInTotalEventOrder) {
    CalendarQueue q;
    std::mt19937_64 rng(42);
    // Timestamps spanning ns to minutes: wildly non-uniform bucket load.
    std::vector<std::pair<TimePoint, Order>> expect;
    for (Order id = 1; id <= 2000; ++id) {
        const TimePoint when =
            static_cast<TimePoint>(rng() % static_cast<std::uint64_t>(seconds(90)));
        q.push({when, id});
        expect.emplace_back(when, id);
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(q.size(), 2000u);
    EXPECT_EQ(drain(q), expect);
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SameInstantPopsInIdOrder) {
    CalendarQueue q;
    for (Order id = 10; id >= 1; --id) q.push({seconds(1), id});
    const auto got = drain(q);
    ASSERT_EQ(got.size(), 10u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].second, static_cast<Order>(i + 1));
    }
}

TEST(CalendarQueue, PopIfRespectsLimit) {
    CalendarQueue q;
    q.push({seconds(5), 1});
    EventKey key;
    EXPECT_FALSE(q.pop_if(seconds(4), key)) << "earliest event is beyond the limit";
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.pop_if(seconds(5), key));
    EXPECT_EQ(key.order, 1u);
}

TEST(CalendarQueue, FarFutureEventDoesNotBlockNearOnes) {
    CalendarQueue q;
    // A far-future event hashes into some bucket modulo the bucket count;
    // the year guard must defer it past every nearer event.
    q.push({seconds(3600), 1});
    for (Order id = 2; id <= 64; ++id) {
        q.push({milliseconds(static_cast<std::int64_t>(id)), id});
    }
    const auto got = drain(q);
    ASSERT_EQ(got.size(), 64u);
    EXPECT_EQ(got.back().second, 1u) << "the distant event must pop last";
    for (std::size_t i = 0; i + 1 < got.size(); ++i) {
        EXPECT_LE(got[i].first, got[i + 1].first);
    }
}

TEST(CalendarQueue, InterleavedPushPopStaysOrdered) {
    // The simulator's real access pattern: pop one, schedule a few more
    // (sometimes earlier than the current scan position), repeat — with
    // grows and shrinks happening along the way.
    CalendarQueue q;
    std::mt19937_64 rng(7);
    Order next_id = 1;
    TimePoint now = 0;
    std::vector<std::pair<TimePoint, Order>> reference;  // what a sorted pop yields
    for (int i = 0; i < 200; ++i) {
        q.push({static_cast<TimePoint>(rng() % seconds(10)), next_id});
        ++next_id;
    }
    std::vector<std::pair<TimePoint, Order>> popped;
    EventKey key;
    while (q.pop_if(std::numeric_limits<TimePoint>::max(), key)) {
        EXPECT_GE(key.when, now) << "time went backwards";
        now = key.when;
        popped.emplace_back(key.when, key.order);
        if (next_id <= 5000 && rng() % 3 != 0) {
            const TimePoint when = now + static_cast<TimePoint>(rng() % seconds(2));
            q.push({when, next_id});
            ++next_id;
        }
    }
    EXPECT_TRUE(q.empty());
    // Every pop respected the total order relative to what was pending:
    // verified by the monotone `now` above plus exact id coverage here.
    EXPECT_EQ(popped.size(), static_cast<std::size_t>(next_id - 1));
    reference = popped;
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(popped, reference) << "(when, id) pops must already be sorted";
}

// ---- queue work bounds and the reference oracle -----------------------------

#include <functional>
#include <queue>
#include <tuple>

#include "queue_bounds.h"

namespace {

// The queue's work bounds (queue_bounds.h) hold on every case below.
using mip::sim::test::kMaxScansPerPop;
using mip::sim::test::kMaxShiftsPerPush;

double per(std::uint64_t work, std::size_t ops) {
    return static_cast<double>(work) / static_cast<double>(ops);
}

/// The reference the simulator's dispatch order is checked against: a
/// binary heap over (when, schedule order), the simulator's total order,
/// that skips cancelled entries when they reach the top.
struct Oracle {
    using Entry = std::tuple<TimePoint, std::uint64_t>;  // when, schedule order

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::vector<bool> cancelled;     ///< by schedule order; fired ones too
    std::size_t live_cancelled = 0;  ///< cancelled and still queued

    /// Queues an event at @p when; returns its schedule order.
    std::uint64_t push(TimePoint when) {
        const std::uint64_t order = cancelled.size();
        cancelled.push_back(false);
        heap.emplace(when, order);
        return order;
    }

    void cancel(std::uint64_t order) {
        if (cancelled[order]) return;  // already cancelled or fired: stale
        cancelled[order] = true;
        ++live_cancelled;
    }

    /// Moves the next live entry into @p out; false when none is left.
    bool pop(Entry& out) {
        while (!heap.empty() && cancelled[std::get<1>(heap.top())]) {
            heap.pop();
            --live_cancelled;
        }
        if (heap.empty()) return false;
        out = heap.top();
        heap.pop();
        cancelled[std::get<1>(out)] = true;  // fired: later cancels are stale
        return true;
    }
};

/// The delay mixes the randomized oracle test draws from.
enum class Mix {
    /// Same-instant ties, microsecond to second delays, far-future outliers.
    Random,
    /// A scenario's shape: microsecond-spaced frame chains, same-instant
    /// bursts, 1-300 s lifetimes, and a 200 ms RTO timer cancelled and
    /// re-armed on each dispatch.
    Scenario,
    /// A city's sampling: 500 host timers at staggered phases, each
    /// dispatch re-arming its host 1-60 sample intervals ahead, no
    /// cancels. The head thins as the timers spread out, so the day sized
    /// at setup ends up ~30x narrower than the gaps, though short of a
    /// whole year.
    City,
    /// 1,000 timers ~100 ns apart, each dispatch re-arming one, and now
    /// and then a broadcast: 25-100 events at the dispatch's own instant.
    /// A resize while a broadcast is the head sizes the day at the 1 ns
    /// floor, and the timers' gaps are short of a year.
    TiedHead,
};

/// One random interleaving of schedule, dispatch and cancel (stale
/// cancels included) drawn from @p mix, checked dispatch for dispatch
/// against the oracle, with the queue's work bounds checked at the end.
void check_against_oracle(Mix mix, std::uint64_t seed) {
    Simulator s;
    Oracle oracle;
    std::mt19937_64 rng(seed);
    std::vector<EventId> ids;  // by schedule order
    std::uint64_t fired = 0;
    std::uint64_t dispatched = 0;
    const auto schedule = [&](TimePoint when) {
        const std::uint64_t order = oracle.push(when);
        ids.push_back(s.schedule_at(when, [&fired, order] { fired = order; }));
        return order;
    };
    const auto cancel = [&](std::uint64_t order) {
        s.cancel(ids[order]);
        oracle.cancel(order);
    };
    const auto random_delay = [&rng]() -> Duration {
        switch (rng() % 8) {
            case 0: return 0;
            case 1: return seconds(300) + static_cast<Duration>(rng() % seconds(3600));
            case 2: return static_cast<Duration>(rng() % seconds(2));
            default: return static_cast<Duration>(rng() % microseconds(500));
        }
    };
    const auto scenario_push = [&] {
        const TimePoint now = s.now();
        switch (rng() % 6) {
            case 0:
            case 1:
            case 2: {  // a frame crossing up to 8 hops, 1-120 us apart
                const Duration gap =
                    microseconds(1) + static_cast<Duration>(rng() % microseconds(120));
                const int hops = 1 + static_cast<int>(rng() % 8);
                for (int h = 1; h <= hops; ++h) schedule(now + gap * h);
                break;
            }
            case 3:
            case 4: {  // 2-16 events at one instant
                const TimePoint when = now + static_cast<Duration>(rng() % milliseconds(1));
                const int n = 2 + static_cast<int>(rng() % 15);
                for (int i = 0; i < n; ++i) schedule(when);
                break;
            }
            default:  // a registration or binding lifetime
                schedule(now + seconds(1) + static_cast<Duration>(rng() % seconds(299)));
        }
    };
    constexpr Duration kSampleInterval = seconds(2);
    constexpr std::uint64_t kHosts = 500;
    constexpr std::uint64_t kTimers = 1000;
    constexpr Duration kTimerSpan = microseconds(100);
    if (mix == Mix::City) {
        for (std::uint64_t h = 0; h < kHosts; ++h) {
            schedule(static_cast<Duration>(rng() % static_cast<std::uint64_t>(kSampleInterval)));
        }
    } else if (mix == Mix::TiedHead) {
        for (std::uint64_t t = 0; t < kTimers; ++t) {
            schedule(static_cast<Duration>(rng() % static_cast<std::uint64_t>(kTimerSpan)));
        }
    }
    std::uint64_t rto = 0;
    bool rto_armed = false;
    for (int step = 0; step < 6000; ++step) {
        // The timer mixes dispatch instead of pushing; the city never
        // cancels either.
        std::uint64_t op = rng() % 10;
        if ((mix == Mix::City) || (mix == Mix::TiedHead && op < 5)) op = 9;
        if (op < 5 || oracle.heap.empty()) {
            if (mix == Mix::Random) {
                schedule(s.now() + random_delay());
            } else {
                scenario_push();
            }
        } else if (op < 7) {
            cancel(rng() % ids.size());  // any id: pending, fired or cancelled
        } else {
            Oracle::Entry next;
            if (!oracle.pop(next)) {
                EXPECT_EQ(s.run(1), 0u);
                continue;
            }
            ASSERT_EQ(s.run(1), 1u);
            ++dispatched;
            ASSERT_EQ(fired, std::get<1>(next));
            ASSERT_EQ(s.now(), std::get<0>(next));
            if (mix == Mix::Scenario) {
                // Each dispatch acknowledges something: the pending
                // retransmission timer goes and a fresh one is armed.
                if (rto_armed) cancel(rto);
                rto = schedule(s.now() + milliseconds(200));
                rto_armed = true;
            } else if (mix == Mix::City) {
                schedule(s.now() + kSampleInterval * static_cast<Duration>(1 + rng() % 60));
            } else if (mix == Mix::TiedHead) {
                // Each dispatch re-arms a timer; now and then one is a
                // broadcast, its receivers all due at this instant.
                schedule(s.now() + static_cast<Duration>(rng() % kTimerSpan));
                if (rng() % 200 == 0) {
                    for (int n = 25 + static_cast<int>(rng() % 76); n > 0; --n) schedule(s.now());
                }
            }
        }
        ASSERT_EQ(s.pending_events(), oracle.heap.size());
        ASSERT_EQ(s.cancelled_backlog(), oracle.live_cancelled);
    }
    EXPECT_GT(dispatched, 1000u);
    const QueueStats stats = s.queue_stats();
    EXPECT_EQ(stats.scheduled, ids.size());
    EXPECT_LE(stats.shifts_per_push(), kMaxShiftsPerPush);
    EXPECT_LE(stats.scans_per_pop(), kMaxScansPerPop);
}

}  // namespace

TEST(Simulator, NestedSpawnAndCancelMatchesOracle) {
    // Handlers that schedule more events, some at their own instant, plus
    // one each that they cancel at once: every dispatch is checked
    // against the oracle as it fires.
    Simulator s;
    Oracle oracle;
    std::mt19937_64 rng(99);
    std::size_t fired = 0;
    std::function<EventId(TimePoint, int)> schedule = [&](TimePoint when, int depth) {
        const std::uint64_t order = oracle.push(when);
        return s.schedule_at(when, [&, order, depth] {
            Oracle::Entry next;
            ASSERT_TRUE(oracle.pop(next));
            ASSERT_EQ(std::get<1>(next), order) << "out of order, or a cancelled event fired";
            ASSERT_EQ(std::get<0>(next), s.now());
            ++fired;
            if (depth >= 3) return;
            for (int i = 0; i < 3; ++i) {
                const Duration d =
                    rng() % 4 == 0 ? 0 : static_cast<Duration>(rng() % seconds(1));
                schedule(s.now() + d, depth + 1);
            }
            const std::uint64_t doomed = oracle.cancelled.size();
            s.cancel(schedule(s.now() + milliseconds(1), depth + 1));
            oracle.cancel(doomed);
        });
    };
    for (int i = 0; i < 5; ++i) schedule(static_cast<TimePoint>(rng() % seconds(2)), 1);
    s.run();
    EXPECT_EQ(fired, 5u + 15u + 45u);
    Oracle::Entry left;
    EXPECT_FALSE(oracle.pop(left));
    EXPECT_EQ(s.pending_events(), 0u);
    EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(CalendarQueue, DistantTimerDoesNotWidenTheDays) {
    // One 300 s lifetime timer beside 10k events 1 us apart: the days must
    // follow the dense head, not the span to the timer.
    CalendarQueue q;
    q.push({seconds(300), 0});
    constexpr Order kEvents = 10'000;
    for (Order i = 1; i <= kEvents; ++i) q.push({microseconds(1) * static_cast<Duration>(i), i});
    const auto got = drain(q);
    ASSERT_EQ(got.size(), kEvents + 1);
    for (std::size_t i = 0; i + 1 < got.size(); ++i) EXPECT_EQ(got[i].second, i + 1);
    EXPECT_EQ(got.back().second, 0u) << "the timer pops last";
    EXPECT_LE(per(q.stats().shifts, kEvents + 1), kMaxShiftsPerPush);
    EXPECT_LE(per(q.stats().scans, kEvents + 1), kMaxScansPerPop);
}

TEST(CalendarQueue, SameInstantBurstStaysCheap) {
    // A setup burst: 10k events at one instant, then each pop schedules a
    // follow-up a little later, as the burst's handlers do.
    CalendarQueue q;
    constexpr Order kEvents = 10'000;
    Order next = 1;
    for (; next <= kEvents; ++next) q.push({seconds(1), next});
    std::size_t pops = 0;
    EventKey key;
    TimePoint last = 0;
    Order last_order = 0;
    while (q.pop_if(std::numeric_limits<TimePoint>::max(), key)) {
        ASSERT_TRUE(key.when > last || (key.when == last && key.order > last_order));
        last = key.when;
        last_order = key.order;
        ++pops;
        if (next <= 2 * kEvents) q.push({key.when + milliseconds(1), next++});
    }
    EXPECT_EQ(pops, 2 * kEvents);
    EXPECT_LE(per(q.stats().shifts, 2 * kEvents), kMaxShiftsPerPush);
    EXPECT_LE(per(q.stats().scans, pops), kMaxScansPerPop);
}

TEST(Simulator, RandomPushPopCancelMatchesOracle) {
    for (const Mix mix : {Mix::Random, Mix::Scenario, Mix::City, Mix::TiedHead}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " mix "
                                            << static_cast<int>(mix));
            check_against_oracle(mix, seed);
            if (HasFatalFailure()) return;
        }
    }
}
