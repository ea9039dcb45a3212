// bench_city — the city-scale metro scenario (ISSUE 6 tentpole cap).
//
// Four sections, one JSON "city" block in BENCH_perf.json:
//
//   seed sweep     SweepRunner drives one CitySim per seed (full: 4 seeds
//                  x 12,000 hosts across 144 cells; smoke: 2 x 600 across
//                  36). Each job exports per-cell handoff/storm counters,
//                  per-home-agent binding pressure and the aggregate
//                  deliverability probes through the standard metrics /
//                  timeseries / decision pipelines, all validated by
//                  validate_metrics via bench_smoke.
//   determinism    the whole sweep re-runs with --jobs >= 2 and every
//                  artifact (merged report + per-job snapshots) must be
//                  byte-identical to the serial run — the DESIGN §10
//                  contract at city scale.
//   find_link      before/after microbenchmark of World::find_link on a
//                  256-router backbone: the name index vs the seed's
//                  linear scan (ISSUE 6 satellite).
//   observability  the seed-1 city with the MetricsSampler on vs off —
//                  the city-scale observability overhead, gated by
//                  check_perf_trend.py. The sampler-on run's events/sec
//                  is the single-core city figure the perf trendline
//                  tracks; its queue work (shifts per push, scans per
//                  pop) is bounded by the same gate.
//
// Wall-clock numbers land in BENCH_perf.json next to bench_perf's
// (merged, not overwritten); everything else the binary emits is
// deterministic.
#include "common.h"

#include <chrono>
#include <cinttypes>
#include <vector>

#include "metro/city.h"

using namespace mip;

namespace {

struct CityParams {
    int seeds;
    std::size_t hosts;
    int grid;           ///< grid x grid radio cells
    double cell_m;
    int metro_lines;
    sim::Duration duration;
    sim::Duration registration_lifetime;
    std::uint32_t storm_threshold;
    sim::Duration metrics_interval;
    std::size_t probes_per_sweep;
};

CityParams params(const bench::HarnessOptions& opt) {
    CityParams p = opt.smoke
                       ? CityParams{2, 600, 6, 400.0, 2, sim::seconds(120),
                                    sim::seconds(60), 25, sim::seconds(15), 64}
                       : CityParams{4, 12000, 12, 500.0, 4, sim::seconds(600),
                                    sim::seconds(120), 50, sim::seconds(30), 256};
    if (opt.seeds > 0) p.seeds = opt.seeds;
    return p;
}

metro::CityConfig city_config(const CityParams& p, std::uint64_t seed) {
    metro::CityConfig cfg;
    cfg.metro.cells_x = p.grid;
    cfg.metro.cells_y = p.grid;
    cfg.metro.cell_size_m = p.cell_m;
    cfg.population.hosts = p.hosts;
    cfg.population.seed = seed;
    cfg.population.metro_lines = p.metro_lines;
    cfg.duration = p.duration;
    cfg.registration_lifetime = p.registration_lifetime;
    cfg.storm_threshold = p.storm_threshold;
    cfg.metrics_interval = p.metrics_interval;
    cfg.probes_per_sweep = p.probes_per_sweep;
    // The online storm detector (ISSUE 8): a rate-spike monitor over the
    // aggregate handoff counter, evaluated every 5 s. The floor scales
    // with the population so the smoke city's waves register too.
    cfg.monitor_interval = sim::seconds(5);
    cfg.storm_rate_floor =
        static_cast<double>(p.hosts) / 40.0;  // 300/eval full, 15/eval smoke
    cfg.storm_spike_factor = 3.0;
    cfg.label = "seed" + std::to_string(seed);
    return cfg;
}

std::uint64_t city_counter(metro::CitySim& city, const char* name) {
    return city.metrics().counter("city", "metro", name).value();
}

/// One JobSpec per seed, exporting its artifacts through @p opt.
std::vector<sweep::JobSpec> seed_jobs(const CityParams& p,
                                      const bench::HarnessOptions& opt) {
    std::vector<sweep::JobSpec> jobs;
    for (int s = 0; s < p.seeds; ++s) {
        const std::uint64_t seed = static_cast<std::uint64_t>(s) + 1;
        const std::string label = "seed" + std::to_string(seed);
        jobs.push_back({static_cast<std::uint64_t>(s), label, [p, seed, label, opt] {
            metro::CitySim city(city_config(p, seed));
            city.run();

            sweep::JobResult r;
            r.report["seed"] = seed;
            r.report["hosts"] = static_cast<std::uint64_t>(p.hosts);
            r.report["cells"] = static_cast<std::uint64_t>(city.topology().cells().size());
            r.report["events"] = city.events_fired();
            r.report["handoffs"] = city.handoffs_total();
            r.report["registrations"] = city.registrations_total();
            r.report["probes"] = city.probes_total();
            const std::uint64_t delivered = city_counter(city, "probes_delivered");
            r.report["probes_delivered"] = delivered;
            r.report["deliverability"] =
                city.probes_total() > 0
                    ? static_cast<double>(delivered) / static_cast<double>(city.probes_total())
                    : 0.0;
            r.report["storm_trips"] =
                city.monitor() != nullptr ? city.monitor()->trips() : 0;
            r.metrics = city.snapshot("bench_city", label);
            r.decision_count = city.decisions().size();

            bench::export_metrics(opt, city.metrics(), "bench_city", label,
                                  city.simulator().now());
            if (city.sampler() != nullptr) {
                bench::export_timeseries(opt, *city.sampler(), "bench_city", label);
            }
            bench::export_decisions(opt, city.decisions(), "bench_city", label);
            if (city.incidents() != nullptr) {
                bench::export_incidents(opt, *city.incidents(), "bench_city", label);
            }
            return r;
        }});
    }
    return jobs;
}

/// ISSUE 6 satellite: World::find_link's name index vs the seed's O(n)
/// scan over all_links(), on a backbone wide enough for the difference to
/// matter (the metro hierarchy is hundreds of links).
obs::JsonValue::Object measure_find_link(const bench::HarnessOptions& opt) {
    core::WorldConfig cfg;
    cfg.backbone_routers = opt.pick(256, 32);
    core::World world{cfg};
    const std::vector<sim::Link*> links = world.all_links();
    std::vector<std::string> names;
    names.reserve(links.size());
    for (const sim::Link* l : links) names.push_back(l->name());

    const std::size_t lookups = opt.pick<std::size_t>(200000, 20000);
    const auto bench_ns = [&](auto&& lookup) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < lookups; ++i) {
            benchmark::DoNotOptimize(lookup(names[i % names.size()]));
        }
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double, std::nano>(t1 - t0).count() /
               static_cast<double>(lookups);
    };

    const double indexed_ns =
        bench_ns([&](const std::string& name) { return world.find_link(name); });
    const double linear_ns = bench_ns([&](const std::string& name) -> sim::Link* {
        for (sim::Link* l : links) {
            if (l->name() == name) return l;
        }
        return nullptr;
    });
    const double speedup = indexed_ns > 0 ? linear_ns / indexed_ns : 0.0;

    std::printf("\nfind_link on %zu links (%zu lookups):\n", links.size(), lookups);
    std::printf("  indexed %8.1f ns/lookup   linear scan %8.1f ns/lookup   %.1fx\n",
                indexed_ns, linear_ns, speedup);

    obs::JsonValue::Object o;
    o["links"] = static_cast<std::uint64_t>(links.size());
    o["lookups"] = static_cast<std::uint64_t>(lookups);
    o["indexed_ns"] = indexed_ns;
    o["linear_ns"] = linear_ns;
    o["speedup"] = speedup;
    return o;
}

struct CityRun {
    std::uint64_t events = 0;
    double wall_ms = 0.0;
    sim::QueueStats queue;
};

CityRun run_city_once(const CityParams& p) {
    metro::CitySim city(city_config(p, 1));
    const auto t0 = std::chrono::steady_clock::now();
    city.run();
    const auto t1 = std::chrono::steady_clock::now();
    return {city.events_fired(), std::chrono::duration<double, std::milli>(t1 - t0).count(),
            city.simulator().queue_stats()};
}

/// ISSUE 7 / PR 8: the city-scale observability overhead — the same
/// seed-1 city with the MetricsSampler off and on (the product default:
/// it takes the registry's dirty feed). overhead_pct is the number
/// check_perf_trend.py gates. (CitySim has no per-packet trace recorder
/// — its observability cost is the sampler plus the arena-backed
/// decision log, which is exactly what this isolates.) The sampler-on
/// leg's median also yields @p events_per_sec, and its (deterministic)
/// queue work @p queue.
obs::JsonValue::Object measure_observability(const bench::HarnessOptions& opt,
                                             const CityParams& p, double& events_per_sec,
                                             sim::QueueStats& queue) {
    const int reps = opt.pick(3, 2);
    CityParams off = p;
    off.metrics_interval = 0;  // sampler never constructed

    // Interleaved reps (off, on, off, ...): measuring all reps of one
    // configuration in a block lets machine-state drift across the
    // blocks masquerade as sampler overhead; alternating spreads it.
    run_city_once(off);  // warm-up, discarded
    run_city_once(p);
    std::vector<double> off_walls, on_walls;
    std::uint64_t events = 0;
    for (int i = 0; i < reps; ++i) {
        off_walls.push_back(run_city_once(off).wall_ms);
        const CityRun on = run_city_once(p);
        events = on.events;
        queue = on.queue;
        on_walls.push_back(on.wall_ms);
    }
    const auto median = [](std::vector<double>& walls) {
        std::sort(walls.begin(), walls.end());
        return walls[walls.size() / 2];
    };
    const double off_ms = median(off_walls);
    const double on_ms = median(on_walls);
    const double pct = off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
    events_per_sec = on_ms > 0 ? static_cast<double>(events) / (on_ms / 1e3) : 0.0;

    std::printf("\nobservability overhead (seed-1 city, %" PRIu64 " events, median of %d):\n",
                events, reps);
    std::printf("  sampler off %10.1f ms   sampler on %10.1f ms (%+.1f%%)\n", off_ms, on_ms,
                pct);

    obs::JsonValue::Object o;
    o["sampler_off_wall_ms"] = off_ms;
    o["sampler_on_wall_ms"] = on_ms;
    o["overhead_pct"] = pct;
    o["metrics_interval_s"] = sim::to_seconds(p.metrics_interval);
    o["reps"] = reps;
    return o;
}

int print_figure(const bench::HarnessOptions& opt) {
    bench::print_header(
        "bench_city: city-scale metro scenario",
        "A hierarchical metro topology (backbone -> regionals -> radio\n"
        "cells) carrying a seeded population of commuter flocks, transit\n"
        "riders and solo walkers. The seed sweep must be byte-identical\n"
        "at any --jobs.");

    const CityParams p = params(opt);

    // Sections 1 and 2: the seed sweep and its cross-`--jobs` check.
    const bench::SweepRun sweep = bench::run_sweep(
        opt, "bench_city",
        [&](const bench::HarnessOptions& o) { return seed_jobs(p, o); });
    const sweep::SweepOutcome& serial = sweep.outcome;
    std::printf("%6s %10s %10s %10s %10s %8s %7s\n", "seed", "events", "handoffs",
                "regs", "probes", "deliv", "storms");
    std::uint64_t events_total = 0;
    std::uint64_t storm_trips_total = 0;
    double deliv_min = 1.0;
    for (const sweep::JobResult& r : serial.results) {
        if (!r.ok) {
            std::printf("JOB FAILED: %s\n", r.error.c_str());
            continue;
        }
        const double deliv = r.report.at("deliverability").as_number();
        deliv_min = std::min(deliv_min, deliv);
        events_total += static_cast<std::uint64_t>(r.report.at("events").as_number());
        storm_trips_total +=
            static_cast<std::uint64_t>(r.report.at("storm_trips").as_number());
        std::printf("%6.0f %10.0f %10.0f %10.0f %10.0f %7.1f%% %7.0f\n",
                    r.report.at("seed").as_number(), r.report.at("events").as_number(),
                    r.report.at("handoffs").as_number(),
                    r.report.at("registrations").as_number(),
                    r.report.at("probes").as_number(), deliv * 100.0,
                    r.report.at("storm_trips").as_number());
    }
    // Sections 3 and 4.
    obs::JsonValue::Object find_link = measure_find_link(opt);
    double events_per_sec = 0.0;
    sim::QueueStats queue;
    obs::JsonValue::Object observability = measure_observability(opt, p, events_per_sec, queue);

    obs::JsonValue::Object city;
    city["smoke"] = opt.smoke;
    city["seeds"] = p.seeds;
    city["hosts"] = static_cast<std::uint64_t>(p.hosts);
    city["cells"] = static_cast<std::uint64_t>(p.grid) * static_cast<std::uint64_t>(p.grid);
    city["sim_seconds"] = sim::to_seconds(p.duration);
    city["events"] = events_total;
    city["sweep_wall_ms"] = serial.wall_ms;
    city["events_per_sec"] = events_per_sec;
    // Seed 1's queue work: check_perf_trend.py bounds it like a scenario's.
    city["shifts_per_push"] = queue.shifts_per_push();
    city["scans_per_pop"] = queue.scans_per_pop();
    city["deliverability_min"] = deliv_min;
    city["storm_trips"] = storm_trips_total;
    city["artifacts_identical"] = sweep.identical;
    city["compare_jobs"] = sweep.compare_jobs;
    city["find_link"] = std::move(find_link);
    city["observability"] = std::move(observability);
    bench::merge_perf_block(opt, "city", std::move(city));

    std::printf("\ncity events/sec (single core, sampler on): %.0f\n", events_per_sec);

    bench::Verdict verdict;
    verdict.check(serial.failures() == 0, "%zu seed job(s) failed.", serial.failures());
    verdict.check(sweep.identical, "sweep artifacts differ between jobs=1 and jobs=%d.",
                  sweep.compare_jobs);
    return verdict.exit_status("City sweep byte-identical at any --jobs.");
}

}  // namespace

int main(int argc, char** argv) {
    const bench::HarnessOptions opt = bench::parse_harness_options(&argc, argv);
    return print_figure(opt);
}
