// The physical mobility subsystem: motion-model determinism, coverage
// lookup, handoff hysteresis, connection survival across automatic
// handoffs (paper §1: "users should not have to restart their
// applications whenever they change location"), and dead-zone crossings.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "core/scenario.h"
#include "mobility/coverage.h"
#include "mobility/group.h"
#include "mobility/handoff.h"
#include "mobility/motion.h"
#include "transport/pinger.h"

using namespace mip;
using namespace mip::core;
using namespace mip::mobility;

// ---- motion models ----------------------------------------------------------

TEST(Motion, LinearMobilityMovesAtVelocity) {
    LinearMobility m({10, 20}, 2.0, -1.0);
    EXPECT_EQ(m.position_at(0), (Position{10, 20}));
    EXPECT_EQ(m.position_at(sim::seconds(5)), (Position{20, 15}));
}

TEST(Motion, TraceMobilityInterpolatesAndClamps) {
    TraceMobility m({{sim::seconds(1), {0, 0}}, {sim::seconds(3), {100, 50}}});
    EXPECT_EQ(m.position_at(0), (Position{0, 0}));            // clamp before
    EXPECT_EQ(m.position_at(sim::seconds(2)), (Position{50, 25}));
    EXPECT_EQ(m.position_at(sim::seconds(9)), (Position{100, 50}));  // clamp after
}

TEST(Motion, TraceMobilityRejectsBadInput) {
    EXPECT_THROW(TraceMobility({}), std::invalid_argument);
    EXPECT_THROW(TraceMobility({{sim::seconds(2), {0, 0}}, {sim::seconds(1), {1, 1}}}),
                 std::invalid_argument);
}

TEST(Motion, RandomWaypointSameSeedSameTrajectory) {
    RandomWaypointMobility::Config cfg;
    cfg.max_x = 500;
    cfg.max_y = 500;
    cfg.seed = 7;
    RandomWaypointMobility a(cfg), b(cfg);
    for (sim::TimePoint t = 0; t <= sim::seconds(120); t += sim::milliseconds(333)) {
        EXPECT_EQ(a.position_at(t), b.position_at(t)) << "diverged at t=" << t;
    }
}

TEST(Motion, RandomWaypointStaysInBoundsAndSupportsRewind) {
    RandomWaypointMobility::Config cfg;
    cfg.min_x = 100;
    cfg.max_x = 200;
    cfg.min_y = -50;
    cfg.max_y = 50;
    cfg.start = Position{150, 0};
    cfg.seed = 3;
    RandomWaypointMobility m(cfg);
    const Position early = m.position_at(sim::seconds(2));
    for (sim::TimePoint t = 0; t <= sim::seconds(60); t += sim::milliseconds(250)) {
        const Position p = m.position_at(t);
        EXPECT_GE(p.x, 100);
        EXPECT_LE(p.x, 200);
        EXPECT_GE(p.y, -50);
        EXPECT_LE(p.y, 50);
    }
    // Non-monotone queries answer from the memoized trajectory.
    EXPECT_EQ(m.position_at(sim::seconds(2)), early);
}

TEST(Motion, RandomWaypointRandomOrderQueriesMatchInOrderAnswers) {
    // 10,000 instants over ten minutes, half on a 1 ms grid (so some land
    // exactly on leg boundaries) and half at arbitrary nanoseconds.
    const RandomWaypointMobility::Config cfg{.max_x = 800,
                                             .max_y = 800,
                                             .min_speed_mps = 2.0,
                                             .max_speed_mps = 15.0,
                                             .pause = sim::seconds(5),
                                             .start = {},
                                             .seed = 11};
    std::mt19937_64 rng(42);
    std::uniform_int_distribution<sim::TimePoint> when(0, sim::seconds(600));
    std::vector<sim::TimePoint> times(10'000);
    for (std::size_t i = 0; i < times.size(); ++i) {
        times[i] = i % 2 == 0 ? when(rng) / sim::milliseconds(1) * sim::milliseconds(1)
                              : when(rng);
    }

    RandomWaypointMobility shuffled(cfg);
    std::vector<Position> answers;
    answers.reserve(times.size());
    for (const sim::TimePoint t : times) answers.push_back(shuffled.position_at(t));

    std::vector<std::size_t> order(times.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return times[a] < times[b]; });
    RandomWaypointMobility in_order(cfg);
    for (const std::size_t i : order) {
        ASSERT_EQ(in_order.position_at(times[i]), answers[i]) << "at t=" << times[i];
    }
}

// ---- coverage ---------------------------------------------------------------

TEST(Coverage, RegionContainment) {
    const Region r = Region::rect(0, 0, 10, 10);
    EXPECT_TRUE(r.contains({0, 0}));
    EXPECT_TRUE(r.contains({10, 10}));
    EXPECT_FALSE(r.contains({10.01, 5}));
    const Region d = Region::disc({5, 5}, 2);
    EXPECT_TRUE(d.contains({5, 7}));
    EXPECT_FALSE(d.contains({5, 7.01}));
}

TEST(Coverage, BestCellPrefersPriorityThenInsertionOrder) {
    CoverageMap map;
    CoverageCell a;
    a.name = "a";
    a.region = Region::rect(0, 0, 100, 100);
    CoverageCell b;
    b.name = "b";
    b.region = Region::rect(50, 0, 150, 100);
    CoverageCell c;
    c.name = "c";
    c.region = Region::rect(60, 0, 160, 100);
    c.priority = 5;
    map.add(a).add(b).add(c);

    EXPECT_EQ(map.best_at({10, 10})->name, "a");
    EXPECT_EQ(map.best_at({55, 10})->name, "a");   // tie -> earliest added
    EXPECT_EQ(map.best_at({70, 10})->name, "c");   // priority wins
    EXPECT_EQ(map.best_at({155, 10})->name, "c");
    EXPECT_EQ(map.best_at({500, 500}), nullptr);   // dead zone
    EXPECT_EQ(map.cells_at({70, 10}).size(), 3u);
    ASSERT_NE(map.find("b"), nullptr);
}

// ---- handoff controller -----------------------------------------------------

namespace {

/// Oscillates across the seam of two abutting foreign cells every 150 ms
/// and reports (completed handoffs, suppressed flaps).
std::pair<std::size_t, std::size_t> run_ping_pong(sim::Duration dwell) {
    World world;
    world.create_mobile_host();
    std::vector<TraceMobility::Waypoint> wps;
    bool right = false;
    for (int i = 0; i * 150 <= 10'000; ++i) {
        wps.push_back({sim::milliseconds(i * 150), {right ? 510.0 : 490.0, 50.0}});
        right = !right;
    }
    auto model = std::make_unique<TraceMobility>(std::move(wps));
    CoverageMap map;
    map.add(world.foreign_cell(Region::rect(0, 0, 500, 100)))
        .add(world.corr_cell(Region::rect(500.001, 0, 1000, 100)));
    HandoffConfig cfg;
    cfg.dwell_time = dwell;
    auto& hc = world.with_mobility(std::move(model), std::move(map), cfg);
    world.run_for(sim::seconds(10));
    return {hc.stats().handoff_count(), hc.stats().suppressed_flaps};
}

}  // namespace

TEST(Handoff, DwellTimeSuppressesPingPongAtCellEdge) {
    const auto [handoffs, suppressed] = run_ping_pong(sim::milliseconds(400));
    EXPECT_EQ(handoffs, 0u) << "hysteresis should pin the host to its cell";
    EXPECT_GE(suppressed, 5u);
}

TEST(Handoff, WithoutDwellTheEdgeFlaps) {
    const auto [handoffs, suppressed] = run_ping_pong(sim::Duration{0});
    EXPECT_GE(handoffs, 5u) << "no hysteresis -> every oscillation hands off";
    (void)suppressed;
}

TEST(Handoff, TcpTransferSurvivesAutomaticHandoff) {
    World world;
    CorrespondentHost& ch = world.create_correspondent({}, Placement::CorrLan);
    ch.tcp().listen(7600, [](transport::TcpConnection& c) {
        c.set_data_callback([&c](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            c.send(std::vector<std::uint8_t>(d.begin(), d.end()));
        });
    });
    MobileHostConfig mcfg = world.mobile_config();
    mcfg.privacy_mode = true;  // pin to Out-IE: survivable through any filter
    mcfg.tcp.rto = sim::milliseconds(150);
    MobileHost& mh = world.create_mobile_host(std::move(mcfg));

    // At the office for 3 s, then a 2 s ride to the foreign building.
    auto model = std::make_unique<TraceMobility>(std::vector<TraceMobility::Waypoint>{
        {0, {100, 50}},
        {sim::seconds(3), {100, 50}},
        {sim::seconds(5), {500, 50}},
        {sim::seconds(30), {500, 50}}});
    CoverageMap map;
    map.add(world.home_cell(Region::rect(0, 0, 280, 100), /*priority=*/1))
        .add(world.foreign_cell(Region::rect(250, 0, 600, 100)));
    auto& hc = world.with_mobility(std::move(model), std::move(map));
    world.run_for(sim::milliseconds(500));
    ASSERT_TRUE(mh.at_home()) << "controller should have attached home first";

    auto& conn = mh.tcp().connect(ch.address(), 7600);
    std::size_t echoed = 0;
    conn.set_data_callback([&](std::span<const std::uint8_t> d, const transport::RxMeta&) { echoed += d.size(); });
    std::size_t sent = 0;
    for (int i = 0; i < 20; ++i) {  // paced sends spanning the move
        conn.send(std::vector<std::uint8_t>(200, 7));
        sent += 200;
        world.run_for(sim::milliseconds(500));
    }
    world.run_for(sim::seconds(5));

    EXPECT_TRUE(conn.alive());
    EXPECT_EQ(conn.stats().bytes_acked, sent);
    EXPECT_EQ(echoed, sent) << "the connection must survive the movement (§1)";
    EXPECT_GE(hc.stats().handoff_count(), 1u);
    EXPECT_TRUE(mh.registered());
    const HandoffRecord& rec = hc.stats().records.back();
    EXPECT_EQ(rec.to, "foreign");
    EXPECT_GT(rec.registration_latency(), 0);
}

TEST(Handoff, DeadZoneCrossingReregistersAndCountsGapLoss) {
    World world;
    CorrespondentHost& ch = world.create_correspondent({}, Placement::HomeLan);
    MobileHostConfig mcfg = world.mobile_config();
    mcfg.privacy_mode = true;
    MobileHost& mh = world.create_mobile_host(std::move(mcfg));

    // Two cells 200 m apart; the ride crosses the gap at 50 m/s.
    auto model = std::make_unique<TraceMobility>(std::vector<TraceMobility::Waypoint>{
        {0, {100, 50}},
        {sim::seconds(2), {100, 50}},
        {sim::seconds(12), {600, 50}},
        {sim::seconds(20), {600, 50}}});
    CoverageMap map;
    map.add(world.foreign_cell(Region::rect(0, 0, 200, 100)))
        .add(world.corr_cell(Region::rect(400, 0, 800, 100)));
    auto& hc = world.with_mobility(std::move(model), std::move(map));

    // A correspondent pings the home address throughout; pings tunneled
    // while the host is between attachments are the gap loss.
    transport::Pinger pinger(ch.stack());
    std::size_t delivered = 0;
    for (int i = 0; i < 100; ++i) {
        pinger.ping(mh.home_address(), [&](auto rtt, auto&&) { delivered += rtt.has_value(); },
                    sim::seconds(2));
        world.run_for(sim::milliseconds(200));
    }
    world.run_for(sim::seconds(3));

    EXPECT_EQ(hc.stats().dead_zone_entries, 1u);
    EXPECT_TRUE(mh.registered()) << "re-registration after the dead zone failed";
    ASSERT_FALSE(hc.stats().records.empty());
    const HandoffRecord& rec = hc.stats().records.back();
    EXPECT_EQ(rec.from, "(dead zone)");
    EXPECT_EQ(rec.to, "corr");
    EXPECT_TRUE(rec.success);
    EXPECT_GT(rec.packets_lost_in_gap, 0u) << "outage loss should land on the handoff";
    EXPECT_GE(mh.stats().registrations_sent, 2u);
    EXPECT_GT(delivered, 0u);
}

TEST(Handoff, FixedSeedYieldsBitIdenticalHandoffSequence) {
    using Sequence =
        std::vector<std::tuple<std::string, std::string, sim::TimePoint, sim::TimePoint, bool>>;
    auto run = [] {
        World world;
        MobileHostConfig mcfg = world.mobile_config();
        mcfg.privacy_mode = true;
        world.create_mobile_host(std::move(mcfg));
        RandomWaypointMobility::Config rw;
        rw.min_x = 0;
        rw.max_x = 900;
        rw.min_y = 0;
        rw.max_y = 100;
        rw.min_speed_mps = 20;
        rw.max_speed_mps = 40;
        rw.start = Position{100, 50};
        rw.seed = 42;
        auto model = std::make_unique<RandomWaypointMobility>(rw);
        CoverageMap map;
        map.add(world.home_cell(Region::rect(0, 0, 300, 100), 1))
            .add(world.foreign_cell(Region::rect(280, 0, 620, 100)))
            .add(world.corr_cell(Region::rect(600, 0, 900, 100)));
        auto& hc = world.with_mobility(std::move(model), std::move(map));
        world.run_for(sim::seconds(60));
        Sequence seq;
        for (const HandoffRecord& r : hc.stats().records) {
            seq.emplace_back(r.from, r.to, r.committed_at, r.completed_at, r.success);
        }
        return seq;
    };
    const Sequence a = run();
    const Sequence b = run();
    ASSERT_FALSE(a.empty());
    EXPECT_GE(a.size(), 3u) << "the 60 s journey should cross several cells";
    EXPECT_EQ(a, b) << "same seed must reproduce the handoff sequence bit-for-bit";
}

TEST(Handoff, WithMobilityRequiresAMobileHost) {
    World world;
    EXPECT_THROW(world.with_mobility(
                     std::make_unique<LinearMobility>(Position{0, 0}, 1.0, 0.0),
                     CoverageMap{}),
                 std::logic_error);
}

// ---- trace edge cases (ISSUE 6 satellite) -----------------------------------

TEST(Motion, TraceSingleWaypointHoldsForever) {
    TraceMobility m(std::vector<TraceMobility::Waypoint>{{sim::seconds(2), {30, 40}}});
    EXPECT_EQ(m.position_at(0), (Position{30, 40}));
    EXPECT_EQ(m.position_at(sim::seconds(2)), (Position{30, 40}));
    EXPECT_EQ(m.position_at(sim::seconds(3600)), (Position{30, 40}));
}

TEST(Motion, TraceEqualTimestampsJumpLandsOnLaterWaypoint) {
    // An instantaneous jump: two waypoints at the same instant. Before
    // the instant we sit on the first; from the instant on, the later
    // one wins (no division by a zero-length segment).
    TraceMobility m({{0, {0, 0}},
                     {sim::seconds(1), {10, 0}},
                     {sim::seconds(1), {500, 500}},
                     {sim::seconds(2), {500, 600}}});
    EXPECT_EQ(m.position_at(sim::milliseconds(500)), (Position{5, 0}));
    EXPECT_EQ(m.position_at(sim::seconds(1)), (Position{500, 500}));
    EXPECT_EQ(m.position_at(sim::milliseconds(1500)), (Position{500, 550}));
}

// ---- group mobility ---------------------------------------------------------

TEST(Group, MemberNeverStraysBeyondCohesionRadius) {
    auto leader = std::make_shared<RandomWaypointMobility>(RandomWaypointMobility::Config{
        .max_x = 2000, .max_y = 2000, .min_speed_mps = 5, .max_speed_mps = 20, .start = {},
        .seed = 7});
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        GroupMemberMobility member(leader, {.max_radius_m = 50.0, .seed = seed});
        for (sim::TimePoint t = 0; t <= sim::seconds(600); t += sim::milliseconds(250)) {
            const double d = distance(member.position_at(t), leader->position_at(t));
            ASSERT_LE(d, 50.0) << "member " << seed << " broke cohesion at t=" << t;
        }
    }
}

TEST(Group, SameSeedSameTrajectoryDifferentSeedDiffers) {
    const auto make_leader = [] {
        return std::make_shared<RandomWaypointMobility>(
            RandomWaypointMobility::Config{
                .max_x = 1000, .max_y = 1000, .start = {}, .seed = 3});
    };
    GroupMemberMobility a(make_leader(), {.seed = 11});
    GroupMemberMobility b(make_leader(), {.seed = 11});
    GroupMemberMobility c(make_leader(), {.seed = 12});
    bool any_differs = false;
    for (sim::TimePoint t = 0; t <= sim::seconds(120); t += sim::seconds(1)) {
        ASSERT_EQ(a.position_at(t), b.position_at(t));
        any_differs = any_differs || !(a.position_at(t) == c.position_at(t));
    }
    EXPECT_TRUE(any_differs) << "distinct member seeds must yield distinct offsets";
}

TEST(Group, SharedLeaderUnaffectedByMemberQueryOrder) {
    // Two members share one memoized leader; querying them interleaved,
    // out of time order, must match querying them separately (the lazy
    // leader trajectory is a pure function of its seed).
    const auto leader = std::make_shared<RandomWaypointMobility>(
        RandomWaypointMobility::Config{.max_x = 500, .max_y = 500, .start = {}, .seed = 9});
    GroupMemberMobility m1(leader, {.seed = 1});
    GroupMemberMobility m2(leader, {.seed = 2});
    std::vector<Position> interleaved;
    for (int i = 10; i >= 0; --i) {  // backwards in time, alternating members
        interleaved.push_back(m1.position_at(sim::seconds(i * 7)));
        interleaved.push_back(m2.position_at(sim::seconds(i * 3)));
    }
    const auto fresh_leader = std::make_shared<RandomWaypointMobility>(
        RandomWaypointMobility::Config{.max_x = 500, .max_y = 500, .start = {}, .seed = 9});
    GroupMemberMobility f1(fresh_leader, {.seed = 1});
    GroupMemberMobility f2(fresh_leader, {.seed = 2});
    std::size_t k = 0;
    for (int i = 10; i >= 0; --i) {
        EXPECT_EQ(interleaved[k++], f1.position_at(sim::seconds(i * 7)));
        EXPECT_EQ(interleaved[k++], f2.position_at(sim::seconds(i * 3)));
    }
}

TEST(Group, RejectsBadConfig) {
    const auto leader = std::make_shared<LinearMobility>(Position{0, 0}, 1.0, 0.0);
    EXPECT_THROW(GroupMemberMobility(nullptr, {}), std::invalid_argument);
    EXPECT_THROW(GroupMemberMobility(leader, {.max_radius_m = 0}), std::invalid_argument);
    EXPECT_THROW(GroupMemberMobility(leader, {.anchor_fraction = 1.5}),
                 std::invalid_argument);
    EXPECT_THROW(GroupMemberMobility(leader, {.wander_period = 0}), std::invalid_argument);
}

// ---- motion segments --------------------------------------------------------

namespace {

/// segment_at's contract at 10,000 random instants in [lo, hi] plus
/// @p edges: t0 <= t < until, and position_at lies within radius (plus
/// rounding) of the segment's line at t and at a later instant the
/// segment still covers.
void expect_segment_contract(MobilityModel& model, sim::TimePoint lo, sim::TimePoint hi,
                             const std::vector<sim::TimePoint>& edges = {}) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(hi - lo));
    std::uniform_int_distribution<sim::TimePoint> when(lo, hi);
    std::vector<sim::TimePoint> instants = edges;
    for (int i = 0; i < 10'000; ++i) instants.push_back(when(rng));
    for (const sim::TimePoint t : instants) {
        const Segment seg = model.segment_at(t);
        ASSERT_LE(seg.t0, t);
        ASSERT_LT(t, seg.until);
        ASSERT_LE(distance(model.position_at(t), seg.at(t)), seg.radius + 1e-6)
            << "at t=" << t;
        const sim::TimePoint end = std::min(seg.until - 1, hi);
        if (end <= t) continue;
        const sim::TimePoint later = std::uniform_int_distribution<sim::TimePoint>(t, end)(rng);
        ASSERT_LE(distance(model.position_at(later), seg.at(later)), seg.radius + 1e-6)
            << "segment from t=" << t << " broken at t=" << later;
    }
}

std::vector<TraceMobility::Waypoint> jumpy_trace() {
    // Holds before 100 s, jumps at 200 s (two waypoints at one instant),
    // pauses, and holds after 500 s.
    return {{sim::seconds(100), {250, 250}},
            {sim::seconds(200), {1400, 250}},
            {sim::seconds(200), {1400, 1700}},
            {sim::seconds(260), {1400, 1700}},
            {sim::seconds(500), {100, 900}}};
}

std::vector<sim::TimePoint> around_waypoints(const std::vector<TraceMobility::Waypoint>& wps) {
    std::vector<sim::TimePoint> edges;
    for (const auto& w : wps) {
        for (const sim::TimePoint d : {-1, 0, 1}) edges.push_back(w.at + d);
    }
    return edges;
}

}  // namespace

TEST(Segment, LinearIsOneSegmentForever) {
    LinearMobility m({10, 20}, 3.5, -2.25);
    expect_segment_contract(m, 0, sim::seconds(3600));
    EXPECT_EQ(m.segment_at(sim::seconds(7)).radius, 0.0);
}

TEST(Segment, TraceCoversHoldsJumpsAndPauses) {
    TraceMobility m(jumpy_trace());
    expect_segment_contract(m, 0, sim::seconds(700), around_waypoints(jumpy_trace()));
    // Stationary before the first waypoint, up to and including it.
    const Segment before = m.segment_at(sim::seconds(30));
    EXPECT_EQ(before.vx, 0.0);
    EXPECT_EQ(before.until, sim::seconds(100) + 1);
    // The jump: from its instant on, the segment starts at the later waypoint.
    EXPECT_EQ(m.segment_at(sim::seconds(200)).origin, (Position{1400, 1700}));
}

TEST(Segment, RandomWaypointLegsAndPauses) {
    for (const sim::Duration pause : {sim::seconds(0), sim::seconds(5)}) {
        SCOPED_TRACE(testing::Message() << "pause " << pause);
        RandomWaypointMobility m({.max_x = 2000, .max_y = 2000, .min_speed_mps = 1,
                                  .max_speed_mps = 15, .pause = pause, .start = {}, .seed = 5});
        expect_segment_contract(m, -sim::seconds(5), sim::seconds(1800));
    }
}

TEST(Segment, GroupMemberWidensItsLeadersSegment) {
    auto walker = std::make_shared<RandomWaypointMobility>(RandomWaypointMobility::Config{
        .max_x = 3000, .max_y = 3000, .min_speed_mps = 1, .max_speed_mps = 15,
        .pause = sim::seconds(5), .start = {}, .seed = 21});
    auto line = std::make_shared<TraceMobility>(jumpy_trace());
    for (const std::shared_ptr<MobilityModel>& leader :
         {std::shared_ptr<MobilityModel>(walker), std::shared_ptr<MobilityModel>(line)}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            GroupMemberMobility member(leader, {.max_radius_m = 120.0,
                                                .wander_period = sim::seconds(7),
                                                .seed = seed});
            expect_segment_contract(member, 0, sim::seconds(900),
                                    around_waypoints(jumpy_trace()));
            EXPECT_LE(member.segment_at(sim::seconds(50)).radius, 120.0);
        }
    }
}
