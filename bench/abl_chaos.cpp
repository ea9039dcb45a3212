// Chaos convergence harness (robustness PR): N seeded fault plans against
// the standard world, asserting that end-to-end delivery is restored
// within a bounded window after the last fault clears.
//
// The per-seed scenario lives in chaos_sweep.h (shared with bench_perf's
// sweep-scaling measurement); this binary runs the seeds through
// bench::run_sweep (a serial reference run plus a --jobs N re-run that
// must reproduce it byte for byte) and prints the figure from the
// deterministic merged results.
//
// Exit status (PR 8 adds the monitor contract): 0 iff every seed
// converged AND tripped at least one health monitor matching its fault
// class before recovery, AND a fault-free control leg (same world, same
// probes, monitors armed, no injector) produced zero trips, AND the
// --jobs re-run's artifacts matched the serial run — CI runs
// `abl_chaos --smoke` in the default job, the full sweep with --jobs
// under sanitizers. Every trip captures an incident bundle; with a
// metrics dir set the bundles are exported and schema-validated by
// bench_smoke / uploaded by CI on failure.
#include "chaos_sweep.h"

#include <map>
#include <vector>

using namespace mip;

int main(int argc, char** argv) {
    const bench::HarnessOptions opt = bench::parse_harness_options(&argc, argv);
    const int seeds = opt.seeds > 0 ? opt.seeds : opt.pick(20, 5);

    bench::print_header(
        "Chaos convergence: recovery after seeded fault plans",
        "Each seed generates a deterministic FaultPlan (link flaps, burst\n"
        "loss, corruption, duplication, reorder, jitter, home-agent\n"
        "crashes, boundary filter churn). A seed converges iff an\n"
        "end-to-end echo (home address -> correspondent) succeeds within\n"
        "10 s of the last fault clearing.");

    // Fault-free control leg: identical world, probes and armed monitors,
    // but the plan is never injected. Any trip here is a false positive
    // and fails the bench — the detectors must stay quiet on a clean run.
    const auto control_trips = static_cast<unsigned long long>(
        bench::chaos::run_seed(1, opt.smoke, opt, /*inject=*/false)
            .report.at("monitor_trips")
            .as_number());
    std::printf("control (no faults): %llu monitor trip(s)%s\n\n", control_trips,
                control_trips == 0 ? "" : "  <-- FALSE TRIPS");

    const bench::SweepRun sweep =
        bench::run_sweep(opt, "abl_chaos", [&](const bench::HarnessOptions& o) {
            return bench::chaos::seed_jobs(seeds, opt.smoke, o);
        });

    std::printf("%-6s  %5s  %13s  %-12s  %9s  %12s  %6s  %5s  %8s  %13s\n", "seed",
                "plan", "last-clear(s)", "last-fault", "converged", "recovery(ms)",
                "fails", "trips", "matched", "1st-trip(ms)");
    std::map<std::string, std::vector<double>> by_class;
    std::vector<double> all;
    int failures = 0;
    int unmatched = 0;
    for (const sweep::JobResult& r : sweep.outcome.results) {
        if (!r.ok) {
            std::printf("job failed: %s\n", r.error.c_str());
            ++failures;
            continue;
        }
        const obs::JsonValue::Object& row = r.report;
        const bool converged = row.at("converged").as_bool();
        const bool matched = row.at("monitor_matched").as_bool();
        const double recovery_ms = row.at("recovery_ms").as_number();
        const std::string& cls = row.at("fault_class").as_string();
        std::printf("%-6llu  %5llu  %13.3f  %-12s  %9s  %12.1f  %6llu  %5llu  %8s  %13.1f\n",
                    static_cast<unsigned long long>(row.at("seed").as_number()),
                    static_cast<unsigned long long>(row.at("plan_size").as_number()),
                    row.at("last_clear_s").as_number(), cls.c_str(),
                    bench::yn(converged), recovery_ms,
                    static_cast<unsigned long long>(row.at("probes_failed").as_number()),
                    static_cast<unsigned long long>(row.at("monitor_trips").as_number()),
                    bench::yn(matched), row.at("first_trip_ms").as_number());
        if (!converged) ++failures;
        if (!matched) ++unmatched;
        by_class[cls].push_back(recovery_ms);
        all.push_back(recovery_ms);
    }

    std::printf("\nRecovery time by last-clearing fault class:\n");
    std::printf("%-12s  %5s  %11s  %9s\n", "class", "seeds", "median(ms)", "p95(ms)");
    for (const auto& [cls, times] : by_class) {
        std::printf("%-12s  %5zu  %11.1f  %9.1f\n", cls.c_str(), times.size(),
                    bench::percentile(times, 0.5), bench::percentile(times, 0.95));
    }
    std::printf("%-12s  %5zu  %11.1f  %9.1f\n", "(all)", all.size(),
                bench::percentile(all, 0.5), bench::percentile(all, 0.95));
    std::printf("\nsweep: %d seed(s), %.1f ms wall serial\n", seeds,
                sweep.outcome.wall_ms);

    bench::Verdict verdict;
    verdict.check(failures == 0, "%d/%d seeds did not converge inside the bound.",
                  failures, seeds);
    verdict.check(unmatched == 0,
                  "%d/%d seeds tripped no matching monitor before recovery.", unmatched,
                  seeds);
    verdict.check(control_trips == 0, "fault-free control leg tripped %llu monitor(s).",
                  control_trips);
    verdict.check(sweep.identical, "sweep artifacts differ between jobs=1 and jobs=%d.",
                  sweep.compare_jobs);
    return verdict.exit_status(
        "All seeds converged; every seed tripped a matching monitor, control leg "
        "clean, artifacts byte-identical at any --jobs.");
}
