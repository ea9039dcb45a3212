// The city-scale metro subsystem (ISSUE 6): hierarchical topology,
// seeded population, arena lifetime, and the CitySim engine's
// determinism and exported-document conformance.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "metro/arena.h"
#include "metro/city.h"
#include "metro/population.h"
#include "metro/topology.h"
#include "mobility/group.h"
#include "mobility/motion.h"
#include "obs/decision.h"
#include "obs/metrics.h"
#include "queue_bounds.h"
#include "sim/profiler.h"

using namespace mip;
using namespace mip::metro;

namespace {

/// A small-but-real city: 36 cells, hundreds of hosts, a couple of
/// simulated minutes — big enough to exercise handoffs, renewals, storm
/// windows and probes, small enough for the unit-test budget.
CityConfig small_city(std::uint64_t seed) {
    CityConfig cfg;
    cfg.metro.cells_x = 6;
    cfg.metro.cells_y = 6;
    cfg.metro.cell_size_m = 400.0;
    cfg.population.hosts = 400;
    cfg.population.seed = seed;
    cfg.population.metro_lines = 2;
    cfg.duration = sim::seconds(120);
    cfg.registration_lifetime = sim::seconds(60);
    cfg.storm_threshold = 25;
    cfg.metrics_interval = sim::seconds(20);
    cfg.probes_per_sweep = 64;
    return cfg;
}

/// FNV-1a over a document: pins exported bytes in one constant.
std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace

// ---- topology ---------------------------------------------------------------

TEST(MetroTopology, BuildsThreeTiersDeterministically) {
    MetroConfig cfg;
    cfg.cells_x = 12;
    cfg.cells_y = 12;
    cfg.cells_per_regional = 16;
    cfg.regionals_per_backbone = 4;
    const MetroTopology a(cfg);
    const MetroTopology b(cfg);

    EXPECT_EQ(a.cells().size(), 144u);
    EXPECT_EQ(a.regionals().size(), 9u);   // ceil(144/16)
    EXPECT_EQ(a.backbones().size(), 3u);   // ceil(9/4)
    ASSERT_EQ(a.cells().size(), b.cells().size());
    std::set<std::uint32_t> care_ofs;
    for (std::size_t i = 0; i < a.cells().size(); ++i) {
        EXPECT_EQ(a.cells()[i].name, b.cells()[i].name);
        EXPECT_EQ(a.cells()[i].care_of, b.cells()[i].care_of);
        EXPECT_EQ(a.cells()[i].center, b.cells()[i].center);
        care_ofs.insert(a.cells()[i].care_of.value());
    }
    EXPECT_EQ(care_ofs.size(), a.cells().size()) << "care-of addresses must be unique";
}

TEST(MetroTopology, CellLookupIsGridExactAndClamps) {
    MetroConfig cfg;
    cfg.cells_x = 4;
    cfg.cells_y = 3;
    cfg.cell_size_m = 100.0;
    const MetroTopology topo(cfg);

    EXPECT_EQ(topo.cell_at({50, 50}).index, 0u);
    EXPECT_EQ(topo.cell_at({350, 50}).index, 3u);    // last column, first row
    EXPECT_EQ(topo.cell_at({50, 250}).index, 8u);    // first column, last row
    EXPECT_EQ(topo.cell_at({150, 150}).index, 5u);
    // Outside the grid: clamp to the nearest edge cell, no dead zones.
    EXPECT_EQ(topo.cell_at({-40, -40}).index, 0u);
    EXPECT_EQ(topo.cell_at({10'000, 10'000}).index, 11u);
}

TEST(MetroTopology, HopCountReflectsTierDivergence) {
    MetroConfig cfg;
    cfg.cells_x = 8;
    cfg.cells_y = 8;
    cfg.cells_per_regional = 8;   // 8 regionals
    cfg.regionals_per_backbone = 2;  // 4 backbones
    const MetroTopology topo(cfg);

    EXPECT_EQ(topo.hop_count(0, 0), 2);    // same cell
    EXPECT_EQ(topo.hop_count(0, 7), 4);    // same regional (cells 0..7)
    EXPECT_EQ(topo.hop_count(0, 8), 6);    // regional 1, same backbone 0
    EXPECT_EQ(topo.hop_count(0, 63), 8);   // across the backbone
}

TEST(MetroTopology, RejectsBadConfig) {
    MetroConfig cfg;
    cfg.cells_x = 0;
    EXPECT_THROW(MetroTopology{cfg}, std::invalid_argument);
    cfg = MetroConfig{};
    cfg.cell_size_m = -1;
    EXPECT_THROW(MetroTopology{cfg}, std::invalid_argument);
    cfg = MetroConfig{};
    cfg.home_agents = 0;
    EXPECT_THROW(MetroTopology{cfg}, std::invalid_argument);
}

// ---- arena ------------------------------------------------------------------

TEST(Arena, RunsDestructorsInReverseOrder) {
    std::vector<int> order;
    struct Tracked {
        std::vector<int>* order;
        int id;
        ~Tracked() { order->push_back(id); }
    };
    {
        Arena arena(256);  // tiny blocks force multi-block allocation
        for (int i = 0; i < 50; ++i) arena.create<Tracked>(&order, i);
        EXPECT_GT(arena.blocks(), 1u);
        EXPECT_TRUE(order.empty()) << "nothing destroyed while the arena lives";
    }
    ASSERT_EQ(order.size(), 50u);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], 49 - i);
}

TEST(Arena, AlignsAndServesOversizedRequests) {
    Arena arena(64);
    auto* d = static_cast<double*>(arena.allocate(sizeof(double), alignof(double)));
    *d = 1.5;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
    // Larger than the block size: gets a dedicated block, still usable.
    auto* big = static_cast<char*>(arena.allocate(1024, 16));
    big[0] = 'x';
    big[1023] = 'y';
    EXPECT_EQ(*d, 1.5);
}

// ---- population -------------------------------------------------------------

TEST(Population, DeterministicFromSeedAndKindsPartition) {
    MetroConfig mc;
    mc.cells_x = 6;
    mc.cells_y = 6;
    const MetroTopology topo(mc);
    PopulationConfig pc;
    pc.hosts = 500;
    pc.seed = 11;
    const Population a(topo, pc);
    const Population b(topo, pc);

    EXPECT_EQ(a.hosts().size(), 500u);
    EXPECT_EQ(a.flock_count(), b.flock_count());
    EXPECT_EQ(a.solo_hosts() + a.transit_hosts() +
                  (500 - a.solo_hosts() - a.transit_hosts()),
              500u);
    bool any_moved = false;
    for (std::size_t i = 0; i < a.hosts().size(); i += 17) {
        const MetroHost* ha = a.hosts()[i];
        const MetroHost* hb = b.hosts()[i];
        EXPECT_EQ(ha->kind, hb->kind);
        EXPECT_EQ(ha->home_address, hb->home_address);
        EXPECT_EQ(ha->home_agent, hb->home_agent);
        for (sim::TimePoint t : {sim::seconds(0), sim::seconds(30), sim::seconds(90)}) {
            EXPECT_EQ(ha->model->position_at(t), hb->model->position_at(t))
                << "host " << i << " diverged at t=" << t;
        }
        any_moved = any_moved ||
                    !(ha->model->position_at(0) == ha->model->position_at(sim::seconds(90)));
    }
    EXPECT_TRUE(any_moved);
}

TEST(Population, FlockMembersCohereToTheirLeader) {
    MetroConfig mc;
    mc.cells_x = 6;
    mc.cells_y = 6;
    const MetroTopology topo(mc);
    PopulationConfig pc;
    pc.hosts = 200;
    pc.seed = 5;
    pc.cohesion_radius_m = 80.0;
    const Population pop(topo, pc);

    std::size_t flock_members = 0;
    for (const MetroHost* host : pop.hosts()) {
        if (host->kind != MetroHost::Kind::Flock) continue;
        ++flock_members;
        auto* member = dynamic_cast<mobility::GroupMemberMobility*>(host->model);
        ASSERT_NE(member, nullptr);
        for (sim::TimePoint t = 0; t <= sim::seconds(300); t += sim::seconds(5)) {
            const double d = mobility::distance(member->position_at(t),
                                                member->leader().position_at(t));
            ASSERT_LE(d, 80.0) << "host " << host->index << " broke cohesion at " << t;
        }
    }
    EXPECT_GT(flock_members, 0u);
}

// ---- city engine ------------------------------------------------------------

TEST(CitySim, RunIsDeterministicAndPopulatesEveryPipeline) {
    CitySim a(small_city(3));
    CitySim b(small_city(3));
    a.run();
    b.run();

    EXPECT_GT(a.handoffs_total(), 0u);
    EXPECT_GT(a.registrations_total(), 0u);
    EXPECT_GT(a.probes_total(), 0u);
    EXPECT_EQ(a.events_fired(), b.events_fired());
    EXPECT_EQ(a.snapshot_json("test", "x"), b.snapshot_json("test", "x"));
    EXPECT_EQ(a.decisions().size(), b.decisions().size());

    // Pinned outputs: a change to the engine that shifts any event (the
    // sample stagger, a registration delay, a probe draw) fails here even
    // when it is deterministic.
    EXPECT_EQ(a.events_fired(), 6'264u);
    EXPECT_EQ(a.handoffs_total(), 1'320u);
    EXPECT_EQ(a.registrations_total(), 2'046u);
    EXPECT_EQ(a.probes_total(), 512u);
    EXPECT_EQ(a.decisions().size(), 16u);
    EXPECT_EQ(fnv1a(a.snapshot_json("test", "x")), 0x97495b1554e32e8bull);

    // Binding pressure is real: the home agents hold live entries.
    std::size_t bindings = 0;
    for (const auto& table : a.binding_tables()) bindings += table.size();
    EXPECT_GT(bindings, 0u);

    // Deliverability: the overwhelming majority of probes must find a
    // fresh binding pointing at the host's actual cell.
    const std::uint64_t delivered =
        a.metrics().counter("city", "metro", "probes_delivered").value();
    EXPECT_GT(delivered * 10, a.probes_total() * 9)
        << "fewer than 90% of probes deliverable";
}

TEST(CitySim, ExportedDocumentsConformToSchemas) {
    CitySim city(small_city(4));
    city.run();

    const obs::JsonValue metrics = city.snapshot("bench_city", "seed4");
    EXPECT_TRUE(obs::validate_metrics_document(metrics).empty());

    ASSERT_NE(city.sampler(), nullptr);
    const obs::JsonValue series =
        obs::JsonValue::parse(city.sampler()->to_json_string("bench_city", "seed4"));
    EXPECT_TRUE(obs::validate_timeseries_document(series).empty());

    if (city.decisions().size() > 0) {
        const obs::JsonValue decisions =
            obs::JsonValue::parse(city.decisions().to_json_string("bench_city", "seed4"));
        EXPECT_TRUE(obs::validate_decisions_document(decisions).empty());
    }
}

TEST(CitySim, RegistrationEpochGuardSupersedesStaleCompletions) {
    // A host that hands off twice in quick succession must end bound to
    // the *latest* cell, never the intermediate one. Drive with sampling
    // fast enough for a transit rider to cross cells repeatedly.
    CityConfig cfg = small_city(6);
    cfg.duration = sim::seconds(60);
    cfg.population.transit_fraction = 0.5;  // plenty of fast movers
    CitySim city(cfg);
    city.run();

    std::size_t checked = 0;
    for (const MetroHost* host : city.population().hosts()) {
        if (host->cell < 0) continue;
        const auto binding = city.binding_tables()[host->home_agent].lookup(
            host->home_address, city.simulator().now());
        if (!binding) continue;
        ++checked;
        EXPECT_EQ(binding->care_of_address,
                  city.topology().cells()[static_cast<std::size_t>(host->cell)].care_of)
            << "host " << host->index << " bound to a cell it already left";
    }
    EXPECT_GT(checked, 100u);
}

TEST(CitySim, RunTwiceThrows) {
    CityConfig cfg = small_city(1);
    cfg.population.hosts = 20;
    cfg.duration = sim::seconds(5);
    CitySim city(cfg);
    city.run();
    EXPECT_THROW(city.run(), std::logic_error);
}

// ---- overload model -----------------------------------------------------------

namespace {

/// abl_overload's smoke-size agent flap: 400 hosts homed at two agents,
/// agent 0 wiped at one third of a 100 s run, its homed population
/// storming back inside one second against a 15 ms/request agent.
CityConfig flap_city(bool protection) {
    CityConfig cfg;
    cfg.metro.cells_x = 6;
    cfg.metro.cells_y = 6;
    cfg.metro.cell_size_m = 400.0;
    cfg.metro.home_agents = 2;
    cfg.population.hosts = 400;
    cfg.population.seed = 1;
    cfg.population.metro_lines = 2;
    cfg.duration = sim::seconds(100);
    cfg.registration_lifetime = sim::seconds(60);
    cfg.metrics_interval = sim::seconds(10);
    cfg.probes_per_sweep = 64;
    cfg.monitor_interval = sim::seconds(1);
    cfg.storm_rate_floor = 400.0;  // only the overload rules matter here
    cfg.overload.enabled = true;
    cfg.overload.protection = protection;
    cfg.overload.agent.service_time = sim::milliseconds(15);
    cfg.overload.agent.queue_capacity = 16;
    cfg.overload.agent.new_tokens_per_sec = 40.0;
    cfg.overload.flap_at = cfg.duration / 3;
    cfg.overload.flap_agent = 0;
    cfg.overload.flap_notice_window = sim::seconds(1);
    return cfg;
}

}  // namespace

TEST(CityOverload, ProtectedFlapRecoversAndItsShedSpikeClears) {
    CitySim city(flap_city(/*protection=*/true));
    city.run();
    ASSERT_TRUE(city.storm_recovery().has_value());
    EXPECT_LE(*city.storm_recovery(), sim::seconds(60));
    ASSERT_NE(city.monitor(), nullptr);
    EXPECT_GE(city.monitor()->trip_count("ha-0-shed-spike"), 1u);
    EXPECT_FALSE(city.monitor()->tripped("ha-0-shed-spike"));
    EXPECT_EQ(city.monitor()->trip_count("ha-0-queue-watermark"), 0u);
    EXPECT_LE(city.overload_queue(0)->stats().queue_peak, 16u);
}

TEST(CityOverload, UnprotectedFlapTripsTheQueueWatermark) {
    // At this scale the unbounded queue does drain eventually; the
    // collapse evidence is the backlog outrunning 4x the protected bound.
    CitySim city(flap_city(/*protection=*/false));
    city.run();
    ASSERT_NE(city.monitor(), nullptr);
    EXPECT_GE(city.monitor()->trip_count("ha-0-queue-watermark"), 1u);
    EXPECT_EQ(city.monitor()->trip_count("ha-0-shed-spike"), 0u);
    EXPECT_EQ(city.overload_queue(0)->shed_total(), 0u);
    EXPECT_GT(city.overload_queue(0)->stats().queue_peak, 64u);
}

TEST(CityOverload, FlapRunIsDeterministic) {
    CitySim a(flap_city(/*protection=*/true));
    CitySim b(flap_city(/*protection=*/true));
    a.run();
    b.run();
    EXPECT_EQ(a.snapshot_json("test", "flap"), b.snapshot_json("test", "flap"));
    EXPECT_EQ(a.decisions().size(), b.decisions().size());

    // Pinned outputs, as for the small city above.
    EXPECT_EQ(a.events_fired(), 13'374u);
    EXPECT_EQ(a.handoffs_total(), 1'080u);
    EXPECT_EQ(a.registrations_total(), 1'908u);
    EXPECT_EQ(a.probes_total(), 384u);
    EXPECT_EQ(a.decisions().size(), 1'039u);
    EXPECT_EQ(fnv1a(a.snapshot_json("test", "flap")), 0xb075671d62d18970ull);
}

TEST(CitySim, EverySampleFindsANewCellAndTheQueueStaysCheap) {
    // A host's next sample is scheduled at its next cell change, so every
    // sample event is a first attach or a handoff; and one timer per host
    // re-armed up to a whole run ahead stays within the queue's bounds.
    for (const CityConfig& cfg : {small_city(3), flap_city(/*protection=*/true)}) {
        SCOPED_TRACE(testing::Message() << "overload " << cfg.overload.enabled);
        CitySim city(cfg);
        sim::SimProfiler profiler;
        city.simulator().set_profiler(&profiler);
        city.run();
        EXPECT_EQ(profiler.by_kind().at("city-sample").dispatches,
                  cfg.population.hosts + city.handoffs_total());
        const sim::QueueStats stats = city.simulator().queue_stats();
        EXPECT_LE(stats.shifts_per_push(), sim::test::kMaxShiftsPerPush);
        EXPECT_LE(stats.scans_per_pop(), sim::test::kMaxScansPerPop);
    }
}

// ---- sample look-ahead ------------------------------------------------------

namespace {

/// The walk next_cell_change replaces: evaluate every sample instant.
CellChange walk_every_instant(const MetroTopology& topo, mobility::MobilityModel& model,
                              std::size_t cell, sim::TimePoint next, sim::Duration interval,
                              sim::TimePoint horizon) {
    for (; next <= horizon; next += interval) {
        const std::size_t found = topo.cell_at(model.position_at(next)).index;
        if (found != cell) return {next, static_cast<std::int32_t>(found)};
    }
    return {next, -1};
}

/// Compares the look-ahead with the walk from sample instant @p now, the
/// way CitySim::sample_host calls it; counts the case.
void expect_walk(const MetroTopology& topo, mobility::MobilityModel& model, sim::TimePoint now,
                 sim::Duration interval, sim::TimePoint horizon, std::size_t& cases) {
    const std::size_t cell = topo.cell_at(model.position_at(now)).index;
    const CellChange fast = next_cell_change(topo, model, cell, now + interval, interval, horizon);
    const CellChange walk =
        walk_every_instant(topo, model, cell, now + interval, interval, horizon);
    ++cases;
    ASSERT_EQ(fast.at, walk.at) << "from t=" << now << " in cell " << cell << " to " << horizon;
    ASSERT_EQ(fast.cell, walk.cell) << "from t=" << now << " in cell " << cell;
}

/// A flock member parked on a stationary leader.
mobility::GroupMemberMobility parked_member(mobility::Position at, double radius,
                                            sim::Duration period, std::uint64_t seed) {
    return mobility::GroupMemberMobility(
        std::make_shared<mobility::LinearMobility>(at, 0.0, 0.0),
        {.max_radius_m = radius, .anchor_fraction = 0.0, .wander_period = period, .seed = seed});
}

}  // namespace

TEST(CityLookAhead, MatchesTheWalkOverEveryInstant) {
    // The benchmark's full geometry (12x12 cells of 500 m) and its smoke
    // geometry (6x6 of 400 m); every host kind, from random sample
    // instants, with horizons that end anywhere inside a segment.
    std::size_t cases = 0;
    std::mt19937_64 rng(2024);
    for (const auto& [side, size] : {std::pair{12, 500.0}, std::pair{6, 400.0}}) {
        SCOPED_TRACE(testing::Message() << side << "x" << side << " cells of " << size << " m");
        MetroConfig mc;
        mc.cells_x = mc.cells_y = side;
        mc.cell_size_m = size;
        const MetroTopology topo(mc);
        const double w = topo.width_m();
        const sim::Duration interval = sim::seconds(2);
        std::uniform_int_distribution<sim::TimePoint> start(0, sim::seconds(400));
        std::uniform_int_distribution<sim::TimePoint> span(0, sim::seconds(200));

        // Solo walkers, commuter flocks and transit riders, as the city
        // builds them.
        Population pop(topo, {.hosts = 1000, .seed = 7, .metro_lines = 2});
        for (MetroHost* host : pop.hosts()) {
            for (int k = 0; k < 10; ++k) {
                const sim::TimePoint now = start(rng);
                expect_walk(topo, *host->model, now, interval, now + span(rng), cases);
            }
        }

        // Linear movers across every border cell, outward past the grid
        // (where cell_at clamps) and along the border.
        const auto outward = [n = side](int i) { return i == 0 ? -1.0 : i + 1 == n ? 1.0 : 0.0; };
        for (const MetroCell& cell : topo.cells()) {
            const double out_x = outward(static_cast<int>(cell.index) % side);
            const double out_y = outward(static_cast<int>(cell.index) / side);
            if (out_x == 0 && out_y == 0) continue;  // an interior cell
            for (const auto& [vx, vy] : {std::pair{out_x * 14.0, out_y * 14.0},
                                         std::pair{out_y * 9.0, out_x * 9.0},
                                         std::pair{-out_x * 3.0, -out_y * 3.0}}) {
                mobility::LinearMobility mover(cell.center, vx, vy);
                for (int k = 0; k < 6; ++k) {
                    const sim::TimePoint now = start(rng) / 4;
                    expect_walk(topo, mover, now, interval, now + span(rng), cases);
                }
            }
        }

        // Corner clips: straight lines that pass within a few metres of
        // an interior corner, at both diagonals.
        for (int k = 0; k < 400; ++k) {
            const double cx = size * static_cast<double>(1 + k % (side - 1));
            const double cy = size * static_cast<double>(1 + (k / 3) % (side - 1));
            const double miss = std::uniform_real_distribution<double>(-6.0, 6.0)(rng);
            const double speed = std::uniform_real_distribution<double>(1.0, 18.0)(rng);
            const double sx = (k % 2 == 0) ? 1.0 : -1.0;
            const mobility::Position from{cx - sx * 30.0 * speed, cy - 30.0 * speed + miss};
            mobility::LinearMobility mover(from, sx * speed, speed);
            expect_walk(topo, mover, sim::seconds(k % 5), interval,
                        sim::seconds(60) + span(rng) / 4, cases);
        }

        // A parked member whose wander crosses a boundary and comes back
        // within one wander period, shorter than, equal to and longer
        // than the sample interval.
        for (int k = 0; k < 300; ++k) {
            const double edge = size * static_cast<double>(1 + k % (side - 1));
            const double inset = std::uniform_real_distribution<double>(1.0, 40.0)(rng);
            const sim::Duration period = k % 3 == 0   ? sim::milliseconds(1500)
                                         : k % 3 == 1 ? sim::seconds(2)
                                                      : sim::seconds(9);
            auto member = parked_member({edge - inset, size * 0.5 + 37.0}, 45.0, period,
                                        static_cast<std::uint64_t>(k + 1));
            const sim::TimePoint now = start(rng);
            expect_walk(topo, member, now, interval, now + span(rng), cases);
        }

        // A pause exactly on a boundary: a trace that stops on a cell
        // edge, waits, and moves on.
        for (int k = 0; k < 200; ++k) {
            const double edge = size * static_cast<double>(1 + k % (side - 1));
            const sim::TimePoint arrive = sim::seconds(20 + k % 7);
            mobility::TraceMobility trace({{0, {edge - 150.0, size * 1.5}},
                                           {arrive, {edge, size * 1.5}},
                                           {arrive + sim::seconds(30), {edge, size * 1.5}},
                                           {arrive + sim::seconds(60), {edge, w - 1.0}}});
            const sim::TimePoint now = start(rng) / 8;
            expect_walk(topo, trace, now, interval, now + span(rng), cases);
        }
    }
    EXPECT_GE(cases, 20'000u);
}
