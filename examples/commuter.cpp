// Commuter: a day of physical motion with fully automatic handoff.
//
// A mobile host wanders a 950 m corridor under random-waypoint motion,
// crossing three radio cells wired to three different kinds of attachment:
//
//   home office  -> its own home segment            (attach_home)
//   campus       -> a visited LAN via foreign agent (attach_via_foreign_agent)
//   downtown     -> a third network, co-located COA (attach_foreign)
//
// Nobody calls attach_* here: the HandoffController samples the motion
// model, matches the position against the coverage map, and performs every
// attachment itself — with dwell-time hysteresis at cell edges and
// re-registration retries after dead-zone crossings. Meanwhile a TCP
// transfer to the office file server, opened while still at home, keeps
// running on the home address across every move (§2: "users should not
// have to restart their applications whenever they change location").
//
//   $ ./examples/commuter
#include <cstdio>
#include <set>

#include "core/scenario.h"
#include "mobility/handoff.h"
#include "mobility/motion.h"

using namespace mip;
using namespace mip::core;
using namespace mip::mobility;

int main() {
    World world;

    // The office file server sits on the mobile host's own home LAN.
    CorrespondentHost& server = world.create_correspondent({}, Placement::HomeLan);
    server.tcp().listen(9000, [](transport::TcpConnection& c) {
        c.set_data_callback([&c](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            c.send(std::vector<std::uint8_t>(d.begin(), d.end()));
        });
    });

    // The campus cell joins through a foreign agent. The agent reverse-
    // tunnels outgoing traffic, because the home boundary's ingress spoof
    // filter (on by default) would drop home-sourced packets arriving raw
    // from outside.
    world.create_foreign_agent({.reverse_tunnel = true, .overload = {}});

    MobileHostConfig mcfg = world.mobile_config();
    mcfg.privacy_mode = true;  // co-located cells use Out-IE: filter-proof
    mcfg.tcp.rto = sim::milliseconds(200);
    mcfg.tcp.max_retries = 30;
    MobileHost& mh = world.create_mobile_host(std::move(mcfg));

    // Three disc-shaped radio cells along the corridor. They overlap on the
    // centre line but leave uncovered pockets near the corridor's corners —
    // wandering into one is a dead zone the controller must recover from.
    CoverageMap map;
    map.add(world.home_cell(Region::disc({80, 100}, 200), /*priority=*/1))
        .add(world.foreign_agent_cell(Region::disc({475, 100}, 220)))
        .add(world.corr_cell(Region::disc({850, 100}, 220)));

    RandomWaypointMobility::Config motion;
    motion.min_x = 0;
    motion.max_x = 950;
    motion.min_y = 0;
    motion.max_y = 200;
    motion.min_speed_mps = 15;
    motion.max_speed_mps = 30;
    motion.pause = sim::seconds(1);
    motion.start = Position{80, 100};  // the day starts at the home office
    motion.seed = 2026;

    HandoffController& hc =
        world.with_mobility(std::make_unique<RandomWaypointMobility>(motion), std::move(map));
    world.run_for(sim::milliseconds(200));  // controller associates with home
    if (!mh.at_home()) {
        std::puts("FAILURE: controller did not associate with the home cell");
        return 1;
    }

    // Open the transfer while still at home, then drip 60 KB through it as
    // the journey unfolds.
    auto& conn = mh.tcp().connect(server.address(), 9000);
    std::size_t echoed = 0;
    conn.set_data_callback([&](std::span<const std::uint8_t> d, const transport::RxMeta&) { echoed += d.size(); });

    constexpr std::size_t kChunk = 1500;
    constexpr std::size_t kTotal = 60 * 1000;
    std::size_t sent = 0;
    std::set<std::string> cells_visited = {"home"};
    const sim::TimePoint deadline = world.sim.now() + sim::seconds(600);
    while (world.sim.now() < deadline && conn.alive()) {
        if (sent < kTotal) {
            conn.send(std::vector<std::uint8_t>(kChunk, 0x42));
            sent += kChunk;
        }
        world.run_for(sim::milliseconds(500));
        for (const HandoffRecord& r : hc.stats().records) {
            if (r.success && r.to != "(dead zone)") cells_visited.insert(r.to);
        }
        if (sent >= kTotal && conn.stats().bytes_acked >= kTotal && echoed >= kTotal &&
            hc.stats().handoff_count() >= 2 && cells_visited.size() >= 3) {
            break;
        }
    }

    std::printf("journey: %.0f simulated seconds, %zu cells visited (",
                sim::to_milliseconds(world.sim.now()) / 1000.0, cells_visited.size());
    bool first = true;
    for (const std::string& c : cells_visited) {
        std::printf("%s%s", first ? "" : ", ", c.c_str());
        first = false;
    }
    std::puts(")");

    const HandoffStats& stats = hc.stats();
    std::puts("\nper-handoff record (automatic — zero manual attach calls):");
    std::printf("  %-13s %-14s %9s %9s %8s %9s  %s\n", "from", "to", "det(ms)",
                "reg(ms)", "tries", "gap-loss", "ok");
    for (const HandoffRecord& r : stats.records) {
        std::printf("  %-13s %-14s %9.1f %9.1f %8u %9zu  %s\n", r.from.c_str(),
                    r.to.c_str(), sim::to_milliseconds(r.detection_latency()),
                    sim::to_milliseconds(r.registration_latency()), r.attach_attempts,
                    r.packets_lost_in_gap, r.success ? "yes" : "no");
    }
    std::printf(
        "\nhandoffs=%zu  suppressed-flaps=%zu  dead-zones=%zu  failed-attaches=%zu\n"
        "avg-registration=%.1f ms  total-gap-loss=%zu pkts\n",
        stats.handoff_count(), stats.suppressed_flaps, stats.dead_zone_entries,
        stats.failed_attaches, stats.avg_registration_ms(), stats.total_gap_loss());
    std::printf("transfer: %zu bytes sent, %zu acked, %zu echoed back, %zu retransmissions\n",
                sent, conn.stats().bytes_acked, echoed, conn.stats().retransmissions);

    const bool ok = conn.alive() && sent >= kTotal && conn.stats().bytes_acked >= kTotal &&
                    echoed >= kTotal && stats.handoff_count() >= 2 && cells_visited.size() >= 3;
    std::puts(ok ? "\nSUCCESS: the transfer survived an automatically-managed journey "
                   "across three networks."
                 : "\nFAILURE");
    return ok ? 0 : 1;
}
