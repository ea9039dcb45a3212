// abl_overload — the registration-storm ablation (ISSUE 9): the same
// seeded storms with the control-plane overload protections on vs off.
//
// Four sections:
//
//   storm sweep    per seed x {on, off}: a World whose home agent runs a
//                  RegistrationQueue, one short-lifetime tenant renewing
//                  through the storm, and a forged burst of new
//                  registrations at 4x the service rate (overload_sweep.h).
//   determinism    the whole sweep re-runs at --jobs >= 2; merged report
//                  and per-job metrics snapshots must be byte-identical
//                  to the serial reference (DESIGN §10).
//   metro flap     a CitySim per leg with an agent flap mid-run — the
//                  city-scale storm. Recovery is self-measured by the
//                  engine; both legs must be byte-identical across the
//                  protection flag only in *shape*, not content (they are
//                  different experiments), so determinism here is each
//                  leg re-run against itself.
//   verdict        exit-asserted contract. Protected: every seed drains
//                  inside the bound, renewal goodput above the floor, the
//                  tenant never loses its binding, the shed-spike monitor
//                  trips then clears, the queue watermark NEVER trips,
//                  and the city recovers inside its bound. Unprotected:
//                  collapse evidence — queue peak >= 4x the protected
//                  capacity (watermark tripped) or recovery blowout.
//
// CI runs `--smoke --jobs 2` in the default job and the full sweep under
// TSan; the "overload" block lands in BENCH_perf.json for the trendline.
#include "overload_sweep.h"

using namespace mip;

namespace {

/// Renewal-goodput floor through the storm on the protected leg: the
/// tenant renews a 2 s lifetime over the ~5+ s measured window, so fewer
/// than 2 accepted renewals means the fast-path failed.
constexpr std::size_t kRenewalFloor = 2;

}  // namespace

int main(int argc, char** argv) {
    const bench::HarnessOptions opt = bench::parse_harness_options(&argc, argv);
    const int seeds = opt.seeds > 0 ? opt.seeds : opt.pick(20, 5);

    bench::print_header(
        "Overload ablation: registration storms with protection on vs off",
        "A forged burst of new registrations at 4x the home agent's\n"
        "service rate, against a tenant renewing a short-lifetime\n"
        "binding. Protected: bounded queue + renewal priority + token\n"
        "bucket + jittered client retries. Unprotected: the same storm\n"
        "into an unbounded queue. Then the same fight at city scale: an\n"
        "agent flap and its homed population storming back.");

    // Sections 1 and 2: the storm sweep and its cross-`--jobs` check.
    const bench::SweepRun sweep =
        bench::run_sweep(opt, "abl_overload", [&](const bench::HarnessOptions& o) {
            return bench::overload::seed_jobs(seeds, opt.smoke, o);
        });

    std::printf("%-4s %4s %6s %6s %6s %7s %7s %6s %7s %9s %6s %6s %5s\n", "leg",
                "seed", "peak", "shedB", "shedQ", "srvNew", "srvRen", "renew",
                "expiry", "drain(ms)", "spike", "clear", "wmark");
    int fail_on = 0;
    int fail_off = 0;
    std::size_t off_peak_max = 0;
    for (const sweep::JobResult& r : sweep.outcome.results) {
        if (!r.ok) {
            std::printf("job failed: %s\n", r.error.c_str());
            ++fail_on;
            continue;
        }
        const obs::JsonValue::Object& row = r.report;
        const bool prot = row.at("protection").as_bool();
        const auto peak = static_cast<std::size_t>(row.at("queue_peak").as_number());
        const auto renewals = static_cast<std::size_t>(row.at("renewals").as_number());
        const auto expiries =
            static_cast<std::size_t>(row.at("binding_expiries").as_number());
        const bool drained = row.at("drained").as_bool();
        const double drain_ms = row.at("drain_ms").as_number();
        const auto spike = static_cast<std::uint64_t>(row.at("spike_trips").as_number());
        const bool cleared = row.at("spike_cleared").as_bool();
        const auto wmark =
            static_cast<std::uint64_t>(row.at("watermark_trips").as_number());
        std::printf("%-4s %4.0f %6zu %6.0f %6.0f %7.0f %7.0f %6zu %7zu %9.1f %6llu %6s %5llu\n",
                    prot ? "on" : "off", row.at("seed").as_number(), peak,
                    row.at("shed_bucket").as_number(), row.at("shed_queue").as_number(),
                    row.at("served_new").as_number(),
                    row.at("served_renewal").as_number(), renewals, expiries, drain_ms,
                    static_cast<unsigned long long>(spike), bench::yn(cleared),
                    static_cast<unsigned long long>(wmark));
        if (prot) {
            // The protected contract, per seed.
            const bool ok = peak <= bench::overload::kQueueCapacity && drained &&
                            drain_ms <= sim::to_milliseconds(
                                            bench::overload::kDrainBound) &&
                            renewals >= kRenewalFloor && expiries == 0 &&
                            spike >= 1 && cleared && wmark == 0;
            if (!ok) ++fail_on;
        } else {
            off_peak_max = std::max(off_peak_max, peak);
            // Collapse evidence: the unbounded queue must blow through the
            // watermark (>= 4x the protected capacity).
            if (wmark == 0) ++fail_off;
        }
    }

    // Section 3: the metro flap, one city per leg (+ a same-leg re-run
    // determinism check on the protected city).
    const std::uint64_t city_seed = 1;
    const bench::overload::CityOutcome city_on =
        bench::overload::run_city_leg(city_seed, true, opt.smoke, opt, true);
    const bench::overload::CityOutcome city_off =
        bench::overload::run_city_leg(city_seed, false, opt.smoke, opt, true);
    const bench::overload::CityOutcome city_on2 =
        bench::overload::run_city_leg(city_seed, true, opt.smoke, opt, false);
    const bool city_identical =
        city_on.snapshot == city_on2.snapshot && city_on.events == city_on2.events;

    std::printf("\nmetro flap (seed %llu): %zu pre-flap bindings on the flapped agent\n",
                static_cast<unsigned long long>(city_seed), city_on.pre_flap);
    std::printf("%-4s %9s %11s %6s %6s %7s %6s %6s %5s\n", "leg", "recovered",
                "recovery(s)", "peak", "sheds", "srvRen", "spike", "clear", "wmark");
    for (const bench::overload::CityOutcome* c : {&city_on, &city_off}) {
        std::printf("%-4s %9s %11.1f %6zu %6zu %7zu %6llu %6s %5llu\n",
                    c->protection ? "on" : "off", bench::yn(c->recovered),
                    c->recovery_s, c->queue_peak, c->shed_total, c->served_renewal,
                    static_cast<unsigned long long>(c->spike_trips),
                    bench::yn(c->spike_cleared),
                    static_cast<unsigned long long>(c->watermark_trips));
    }
    std::printf("city determinism: protected leg re-run identical: %s\n",
                bench::yn(city_identical));

    const double bound_s = sim::to_seconds(bench::overload::kCityRecoveryBound);
    const bool city_on_ok = city_on.recovered && city_on.recovery_s <= bound_s &&
                            city_on.spike_trips >= 1 && city_on.spike_cleared &&
                            city_on.watermark_trips == 0 &&
                            city_on.queue_peak <= bench::overload::kQueueCapacity;
    // Unprotected collapse evidence at city scale: unbounded queue growth
    // or a recovery blowout relative to the protected leg's bound.
    const bool city_off_collapsed = city_off.watermark_trips >= 1 ||
                                    !city_off.recovered ||
                                    city_off.recovery_s > bound_s;

    obs::JsonValue::Object block;
    block["smoke"] = opt.smoke;
    block["seeds"] = seeds;
    block["storm_n"] =
        static_cast<std::uint64_t>(bench::overload::storm_shape(opt.smoke).n);
    block["off_queue_peak_max"] = static_cast<std::uint64_t>(off_peak_max);
    block["artifacts_identical"] = sweep.identical;
    block["city_recovery_s_on"] = city_on.recovery_s;
    block["city_recovery_s_off"] = city_off.recovery_s;
    block["city_pre_flap_bindings"] = static_cast<std::uint64_t>(city_on.pre_flap);
    block["city_identical"] = city_identical;
    block["events"] = city_on.events;
    block["events_per_sec"] =
        city_on.wall_ms > 0
            ? static_cast<double>(city_on.events) / (city_on.wall_ms / 1e3)
            : 0.0;
    bench::merge_perf_block(opt, "overload", std::move(block));

    bench::Verdict verdict;
    verdict.check(fail_on == 0,
                  "%d protected seed(s) broke the degradation contract (bounded queue, "
                  "drained <= %.0f ms, >= %zu renewals, no binding loss, spike "
                  "tripped+cleared, watermark quiet).",
                  fail_on, sim::to_milliseconds(bench::overload::kDrainBound),
                  kRenewalFloor);
    verdict.check(fail_off == 0,
                  "%d unprotected seed(s) showed no collapse evidence (queue watermark "
                  "never tripped).",
                  fail_off);
    verdict.check(sweep.identical, "sweep artifacts differ between jobs=1 and jobs=%d.",
                  sweep.compare_jobs);
    verdict.check(city_on_ok,
                  "protected city leg missed the recovery contract (recovered inside "
                  "%.0f s, spike tripped+cleared, watermark quiet, bounded queue).",
                  bound_s);
    verdict.check(city_off_collapsed, "unprotected city leg showed no collapse evidence.");
    verdict.check(city_identical, "protected city leg not deterministic across re-runs.");
    return verdict.exit_status(
        "All seeds: protected legs degraded gracefully and recovered inside the bound; "
        "unprotected legs collapsed; artifacts byte-identical at any --jobs.");
}
