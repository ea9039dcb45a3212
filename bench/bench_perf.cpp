// bench_perf — the simulator measuring itself (ISSUE: time-resolved
// observability, part c; ROADMAP north star: a simulator that runs as
// fast as the hardware allows).
//
// Three scenario sizes (small / medium / large: wider backbones, more
// correspondents, longer conversations) each run three ways over
// identical simulated workloads:
//
//   baseline       profiler, sampler and fault hooks all detached — the
//                  product default, where instrumentation and the fault
//                  layer each cost one pointer compare per dispatch/frame
//   fault-attached a benign FaultChain installed on every link (one
//                  LinkDownFault left up) — the price of dispatching
//                  through an installed-but-idle fault hook
//   instrumented   SimProfiler attached and a MetricsSampler ticking —
//                  per-kind dispatch timing, queue-depth gauges, series
//
// A separate overhead block (schema_version 3, ISSUE 7) isolates the cost
// of the trace recorder itself: untraced (recorder detached — every trace
// seam is one pointer compare), traced (the baseline: binary records into
// the per-simulator arena at sample rate 1.0) and sampled (journey
// sampling at rate 0.1). check_perf_trend.py gates traced_overhead_pct
// at 25% per scenario.
//
// Every configuration runs >= 2 reps (5 by default) and reports the
// MEDIAN wall time with the rep count in the JSON — a single wall-clock
// sample is noise, and validate_metrics rejects overhead percentages
// derived from one. The simulated work is deterministic, so events and
// sim_seconds are identical across reps; only the wall clock varies.
//
// A fourth section measures the sweep engine itself: the chaos seed
// sweep (chaos_sweep.h) serially and with --jobs {2,4}, recording the
// speedup and verifying the per-job results and the merged report are
// byte-identical to the serial run. Results go to stdout and to
// BENCH_perf.json (M4X4_BENCH_PERF_OUT overrides the path; under --smoke
// the file is only written when that override is set, so smoke runs do
// not clobber a real machine baseline with tiny-scenario numbers).
//
// Wall-clock numbers are machine-dependent by nature; everything else
// this repo emits is deterministic, which is why bench_perf has its own
// output file instead of polluting the metrics snapshots.
#include "chaos_sweep.h"
#include "common.h"

#include <chrono>
#include <cinttypes>
#include <fstream>
#include <thread>
#include <vector>

#include "fault/link_faults.h"
#include "obs/profile.h"
#include "sim/profiler.h"

using namespace mip;
using namespace mip::core;

namespace {

struct PerfScenario {
    const char* name;
    int backbone_routers;
    int correspondents;
    sim::Duration sim_time;
    std::size_t tcp_bytes;  ///< payload pushed to each correspondent
};

struct RunStats {
    std::uint64_t events = 0;
    double wall_ms = 0.0;  ///< median across reps
    double events_per_sec = 0.0;
    double sim_seconds = 0.0;
    int reps = 1;
    // Buffer-pool counters from the run's simulator (hot-path evidence):
    std::uint64_t pool_acquires = 0;
    std::uint64_t pool_reuses = 0;
    /// pool_acquires over every IP datagram sent or forwarded (deterministic;
    /// gated in CI): a transit hop should draw no buffer at all.
    double pool_acquires_per_datagram = 0.0;
    // Event-queue work per operation (deterministic; gated in CI):
    double shifts_per_push = 0.0;
    double scans_per_pop = 0.0;
    // Record-arena counters (trace/decision chunk recycling, ISSUE 7):
    std::uint64_t arena_acquires = 0;
    std::uint64_t arena_allocations = 0;
    std::uint64_t trace_records = 0;
    std::uint64_t trace_sampled_out = 0;
    // Instrumented runs only:
    std::size_t max_queue_depth = 0;
    std::size_t max_cancelled = 0;
    std::uint64_t samples = 0;
    std::string profile_summary;
};

/// Tracing configuration for one measured run — the three legs of the
/// overhead block (docs/OBSERVABILITY.md §6).
struct TraceMode {
    bool tracing = true;
    double sample_rate = 1.0;
};

std::vector<PerfScenario> scenarios(const bench::HarnessOptions& opt) {
    if (opt.smoke) {
        return {
            {"small", 2, 1, sim::seconds(3), 16 * 1024},
            {"medium", 4, 2, sim::seconds(3), 32 * 1024},
            {"large", 6, 2, sim::seconds(5), 64 * 1024},
        };
    }
    return {
        {"small", 2, 1, sim::seconds(15), 128 * 1024},
        {"medium", 8, 3, sim::seconds(30), 512 * 1024},
        {"large", 16, 6, sim::seconds(60), 1024 * 1024},
    };
}

RunStats run_scenario(const bench::HarnessOptions& opt, const PerfScenario& sc,
                      bool instrumented, bool fault_attached = false,
                      TraceMode trace_mode = {}) {
    WorldConfig cfg;
    cfg.backbone_routers = sc.backbone_routers;
    cfg.tracing = trace_mode.tracing;
    cfg.trace_sample_rate = trace_mode.sample_rate;
    cfg.trace_sample_seed = 1;
    World world{cfg};

    std::vector<CorrespondentHost*> correspondents;
    for (int i = 0; i < sc.correspondents; ++i) {
        CorrespondentHost& ch = world.create_correspondent(
            {}, Placement::CorrLan, static_cast<std::uint32_t>(20 + i));
        ch.tcp().listen(7200, [](transport::TcpConnection& c) {
            c.set_data_callback([&c](std::span<const std::uint8_t> d, const transport::RxMeta&) {
                c.send(std::vector<std::uint8_t>(d.begin(), d.end()));
            });
        });
        correspondents.push_back(&ch);
    }

    MobileHost& mh = world.create_mobile_host();
    if (!world.attach_mobile_foreign()) return {};

    sim::SimProfiler profiler;
    obs::MetricsSampler sampler(world.sim, world.metrics,
                                {.interval = sim::milliseconds(100)});
    if (instrumented) {
        world.sim.set_profiler(&profiler);
        sampler.start();
    }

    // Fault-attached run: a benign chain (one LinkDownFault left in the up
    // state) on every link. Nothing is ever dropped or delayed, so the
    // workload stays identical — the measured delta over baseline is pure
    // hook-dispatch cost.
    std::vector<std::unique_ptr<fault::FaultChain>> chains;
    if (fault_attached) {
        const auto idle = std::make_shared<fault::LinkDownFault>();
        for (sim::Link* link : world.all_links()) {
            auto chain = std::make_unique<fault::FaultChain>();
            chain->add(idle);
            link->set_fault(chain.get());
            chains.push_back(std::move(chain));
        }
    }

    // The measured workload: one echoed TCP conversation per
    // correspondent, all concurrent, driven to the scenario's horizon.
    // Identical simulated work either way — the only difference between
    // the two runs is the attached instrumentation.
    const auto wall_start = std::chrono::steady_clock::now();
    const std::uint64_t events_before = world.sim.events_fired();
    const sim::TimePoint sim_start = world.sim.now();

    std::vector<transport::TcpConnection*> conns;
    for (CorrespondentHost* ch : correspondents) {
        auto& conn = mh.tcp().connect(ch->address(), 7200);
        conn.send(std::vector<std::uint8_t>(sc.tcp_bytes, 0x42));
        conns.push_back(&conn);
    }
    world.run_for(sc.sim_time);
    for (transport::TcpConnection* conn : conns) conn->close();
    world.run_for(sim::milliseconds(500));

    const auto wall_end = std::chrono::steady_clock::now();
    if (fault_attached) {
        for (sim::Link* link : world.all_links()) link->set_fault(nullptr);
    }
    RunStats r;
    r.events = world.sim.events_fired() - events_before;
    r.wall_ms = std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
    r.events_per_sec = r.wall_ms > 0 ? static_cast<double>(r.events) / (r.wall_ms / 1e3) : 0;
    r.sim_seconds = static_cast<double>(world.sim.now() - sim_start) / 1e9;
    r.pool_acquires = world.sim.buffer_pool().stats().acquires;
    r.pool_reuses = world.sim.buffer_pool().stats().reuses;
    double datagrams = 0.0;
    for (const auto& [key, gauge] : world.metrics.gauges()) {
        const auto& [node, layer, name] = key;
        if (layer == "ip" && (name == "packets_sent" || name == "packets_forwarded")) {
            datagrams += gauge();
        }
    }
    r.pool_acquires_per_datagram =
        datagrams > 0 ? static_cast<double>(r.pool_acquires) / datagrams : 0.0;
    r.shifts_per_push = world.sim.queue_stats().shifts_per_push();
    r.scans_per_pop = world.sim.queue_stats().scans_per_pop();
    r.arena_acquires = world.sim.record_arena().stats().acquires;
    r.arena_allocations = world.sim.record_arena().stats().allocations;
    r.trace_records = world.trace.record_count();
    r.trace_sampled_out = world.trace.records_sampled_out();

    if (instrumented) {
        world.sim.set_profiler(nullptr);
        sampler.stop();
        r.max_queue_depth = profiler.max_queue_depth();
        r.max_cancelled = profiler.max_cancelled_size();
        r.samples = sampler.samples_taken();
        r.profile_summary = profiler.summary();
        // Bridge the profiler into the registry so the exported snapshot
        // and time series carry the ("simulator", ...) gauges too.
        obs::publish_profiler(profiler, world.sim, world.metrics);
        sampler.sample_now();
        bench::export_metrics(opt, world, "bench_perf", sc.name);
        bench::export_timeseries(opt, sampler, "bench_perf", sc.name);
        if (opt.perfetto_enabled()) {
            obs::ChromeTraceWriter writer;
            writer.add_series(sampler);
            bench::export_perfetto(opt, writer, "bench_perf", sc.name);
        }
    }
    return r;
}

obs::JsonValue::Object run_to_json(const RunStats& r) {
    obs::JsonValue::Object o;
    o["events"] = r.events;
    o["wall_ms"] = r.wall_ms;
    o["events_per_sec"] = r.events_per_sec;
    o["sim_seconds"] = r.sim_seconds;
    o["reps"] = r.reps;
    o["pool_acquires"] = r.pool_acquires;
    o["pool_reuses"] = r.pool_reuses;
    o["pool_acquires_per_datagram"] = r.pool_acquires_per_datagram;
    o["shifts_per_push"] = r.shifts_per_push;
    o["scans_per_pop"] = r.scans_per_pop;
    return o;
}

/// The tracing-overhead block (schema_version 3): the same workload with
/// tracing detached entirely, fully traced (the product default), and
/// journey-sampled at kSampleRate. The traced percentage is the one
/// check_perf_trend.py gates at 25%.
constexpr double kSampleRate = 0.1;

/// One measured configuration of a scenario.
struct LegSpec {
    bool instrumented = false;
    bool fault_attached = false;
    TraceMode trace_mode = {};
};

/// Measures every leg with round-robin interleaved reps: leg 0, leg 1,
/// ..., leg N-1, repeat. Block-ordered measurement (all reps of one leg,
/// then the next) lets slow machine-state drift — CPU frequency,
/// container throttling — land entirely on whichever leg ran first and
/// masquerade as overhead; interleaving spreads it across all legs so
/// the deltas isolate the configuration cost. One discarded warm-up rep
/// per leg pays the process-wide first-run costs (allocator arenas,
/// page faults, icache).
std::vector<RunStats> measure_legs(const bench::HarnessOptions& opt,
                                   const PerfScenario& sc,
                                   const std::vector<LegSpec>& legs, int reps) {
    for (const LegSpec& leg : legs) {
        run_scenario(opt, sc, leg.instrumented, leg.fault_attached, leg.trace_mode);
    }
    std::vector<std::vector<RunStats>> runs(legs.size());
    for (int i = 0; i < reps; ++i) {
        for (std::size_t l = 0; l < legs.size(); ++l) {
            runs[l].push_back(run_scenario(opt, sc, legs[l].instrumented,
                                           legs[l].fault_attached, legs[l].trace_mode));
        }
    }
    std::vector<RunStats> medians;
    for (std::vector<RunStats>& leg_runs : runs) {
        std::sort(leg_runs.begin(), leg_runs.end(),
                  [](const RunStats& a, const RunStats& b) { return a.wall_ms < b.wall_ms; });
        RunStats m = leg_runs[leg_runs.size() / 2];
        m.events_per_sec =
            m.wall_ms > 0 ? static_cast<double>(m.events) / (m.wall_ms / 1e3) : 0;
        m.reps = reps;
        medians.push_back(std::move(m));
    }
    return medians;
}

obs::JsonValue::Object overhead_to_json(const RunStats& untraced, const RunStats& traced,
                                        const RunStats& sampled) {
    const auto pct = [&untraced](const RunStats& r) {
        return untraced.wall_ms > 0
                   ? (r.wall_ms - untraced.wall_ms) / untraced.wall_ms * 100.0
                   : 0.0;
    };
    obs::JsonValue::Object untr = run_to_json(untraced);
    obs::JsonValue::Object tr = run_to_json(traced);
    tr["trace_records"] = traced.trace_records;
    tr["arena_acquires"] = traced.arena_acquires;
    tr["arena_allocations"] = traced.arena_allocations;
    obs::JsonValue::Object sm = run_to_json(sampled);
    sm["sample_rate"] = kSampleRate;
    sm["trace_records"] = sampled.trace_records;
    sm["trace_sampled_out"] = sampled.trace_sampled_out;

    obs::JsonValue::Object o;
    o["untraced"] = std::move(untr);
    o["traced"] = std::move(tr);
    o["sampled"] = std::move(sm);
    o["traced_overhead_pct"] = pct(traced);
    o["sampled_overhead_pct"] = pct(sampled);
    return o;
}

/// The sweep engine measuring itself: the chaos seed sweep serially and
/// with --jobs {2,4}. The speedup is hardware-dependent (it cannot exceed
/// the machine's core count); the byte-identity of the results is not —
/// each parallel run's merged report and per-job metrics snapshots must
/// match the serial run exactly.
obs::JsonValue::Object measure_sweep_scaling(const bench::HarnessOptions& opt) {
    const int seeds = opt.pick(20, 5);
    // Exports disabled: these sweeps measure compute, and must not clobber
    // the figure artifacts abl_chaos exports.
    const bench::HarnessOptions quiet{
        .smoke = opt.smoke, .metrics_dir = {}, .perfetto_dir = {}};

    const auto run_with = [&](int jobs) {
        const sweep::SweepRunner runner({.jobs = jobs});
        return runner.run(bench::chaos::seed_jobs(seeds, opt.smoke, quiet));
    };

    const sweep::SweepOutcome serial = run_with(1);

    std::printf("\nsweep scaling (%d-seed chaos sweep, hardware_concurrency=%u):\n",
                seeds, std::thread::hardware_concurrency());
    std::printf("%6s  %12s  %8s  %10s\n", "jobs", "wall(ms)", "speedup", "identical");
    std::printf("%6d  %12.1f  %8s  %10s\n", 1, serial.wall_ms, "1.00x", "-");

    bool all_identical = true;
    obs::JsonValue::Array parallel;
    for (const int jobs : {2, 4}) {
        const sweep::SweepOutcome par = run_with(jobs);
        const bool identical = par.same_artifacts(serial);
        all_identical = all_identical && identical;
        const double speedup = par.wall_ms > 0 ? serial.wall_ms / par.wall_ms : 0.0;
        std::printf("%6d  %12.1f  %7.2fx  %10s\n", jobs, par.wall_ms, speedup,
                    bench::yn(identical));
        obs::JsonValue::Object p;
        p["jobs"] = jobs;
        p["wall_ms"] = par.wall_ms;
        p["speedup"] = speedup;
        parallel.emplace_back(std::move(p));
    }

    obs::JsonValue::Object sw;
    sw["seeds"] = seeds;
    sw["serial_wall_ms"] = serial.wall_ms;
    sw["parallel"] = std::move(parallel);
    sw["artifacts_identical"] = all_identical;
    sw["hardware_concurrency"] =
        static_cast<std::uint64_t>(std::thread::hardware_concurrency());
    return sw;
}

/// Writes the whole document: bench_perf runs first and starts the file
/// the other benches merge their blocks into.
void write_report(const bench::HarnessOptions& opt, const obs::JsonValue& doc) {
    const std::string path = bench::perf_report_path(opt);
    if (path.empty()) return;
    std::ofstream f(path);
    f << doc.dump(2) << "\n";
    std::printf("wrote %s\n", path.c_str());
}

void print_figure(const bench::HarnessOptions& opt) {
    bench::print_header(
        "bench_perf: simulator self-measurement",
        "Each scenario runs the same simulated workload five ways:\n"
        "baseline (profiler, sampler and fault hooks detached — the\n"
        "default), fault-attached (a benign FaultChain on every link),\n"
        "instrumented (SimProfiler attached, MetricsSampler ticking every\n"
        "100ms), untraced (TraceRecorder detached) and sampled (journey\n"
        "sampling). Reps are interleaved round-robin across the legs so\n"
        "machine drift cancels out of the deltas; wall times are medians\n"
        "over the rep count. events/sec is the discrete-event dispatch\n"
        "rate in wall time.");

    const int reps = opt.pick(5, 2);
    obs::JsonValue::Array rows;
    std::string largest_profile;
    std::printf("%-8s %6s %10s %12s %14s %12s %9s %12s %9s\n", "size", "sim(s)",
                "events", "base wall ms", "base ev/s", "fault wall", "fault +%",
                "inst wall ms", "inst +%");
    struct OverheadRow {
        const char* name;
        RunStats untraced, traced, sampled;
    };
    std::vector<OverheadRow> overhead_rows;
    for (const PerfScenario& sc : scenarios(opt)) {
        // All five configurations of a scenario are measured in one
        // interleaved group (see measure_legs). The baseline — recorder
        // attached, nothing sampled out — doubles as the traced leg of
        // the overhead block, since it is the same configuration and the
        // interleaving keeps the comparison drift-free.
        const std::vector<RunStats> measured = measure_legs(
            opt, sc,
            {
                LegSpec{},                                            // baseline / traced
                LegSpec{.fault_attached = true},                      // fault-attached
                LegSpec{.instrumented = true},                        // instrumented
                LegSpec{.trace_mode = {.tracing = false}},            // untraced
                LegSpec{.trace_mode = {.sample_rate = kSampleRate}},  // sampled
            },
            reps);
        const RunStats& base = measured[0];
        const RunStats& fault = measured[1];
        const RunStats& inst = measured[2];
        struct {
            RunStats untraced, traced, sampled;
        } legs{measured[3], measured[0], measured[4]};
        const double overhead_pct =
            base.wall_ms > 0 ? (inst.wall_ms - base.wall_ms) / base.wall_ms * 100.0 : 0.0;
        const double fault_pct =
            base.wall_ms > 0 ? (fault.wall_ms - base.wall_ms) / base.wall_ms * 100.0
                             : 0.0;

        std::printf("%-8s %6.1f %10" PRIu64 " %12.1f %14.0f %12.1f %8.1f%% %12.1f %8.1f%%\n",
                    sc.name, base.sim_seconds, base.events, base.wall_ms,
                    base.events_per_sec, fault.wall_ms, fault_pct, inst.wall_ms,
                    overhead_pct);

        obs::JsonValue::Object row;
        row["name"] = sc.name;
        row["backbone_routers"] = sc.backbone_routers;
        row["correspondents"] = sc.correspondents;
        row["tcp_bytes"] = static_cast<std::uint64_t>(sc.tcp_bytes);
        row["baseline"] = run_to_json(base);
        row["fault_attached"] = run_to_json(fault);
        row["fault_attached_overhead_pct"] = fault_pct;
        obs::JsonValue::Object instr = run_to_json(inst);
        instr["max_queue_depth"] = static_cast<std::uint64_t>(inst.max_queue_depth);
        instr["max_cancelled"] = static_cast<std::uint64_t>(inst.max_cancelled);
        instr["sampler_samples"] = inst.samples;
        row["instrumented"] = std::move(instr);
        row["instrumentation_overhead_pct"] = overhead_pct;
        row["overhead"] = overhead_to_json(legs.untraced, legs.traced, legs.sampled);
        rows.emplace_back(std::move(row));
        overhead_rows.push_back({sc.name, legs.untraced, legs.traced, legs.sampled});
        largest_profile = inst.profile_summary;
    }

    std::printf("\ntracing overhead (untraced = recorder detached; traced = the\n"
                "product default; sampled = journey sampling at rate %.2f;\n"
                "interleaved reps):\n",
                kSampleRate);
    std::printf("%-8s %14s %13s %9s %13s %9s %12s\n", "size", "untraced ms",
                "traced ms", "traced+%", "sampled ms", "sampl+%", "records");
    for (const OverheadRow& row : overhead_rows) {
        const auto pct = [&row](const RunStats& r) {
            return row.untraced.wall_ms > 0
                       ? (r.wall_ms - row.untraced.wall_ms) / row.untraced.wall_ms * 100.0
                       : 0.0;
        };
        std::printf("%-8s %14.1f %13.1f %8.1f%% %13.1f %8.1f%% %12" PRIu64 "\n",
                    row.name, row.untraced.wall_ms, row.traced.wall_ms, pct(row.traced),
                    row.sampled.wall_ms, pct(row.sampled), row.traced.trace_records);
    }

    std::printf("\nper-kind profile of the largest scenario (instrumented run):\n%s\n",
                largest_profile.c_str());

    obs::JsonValue::Object doc;
    doc["schema_version"] = 3;
    doc["kind"] = "bench_perf";
    doc["smoke"] = opt.smoke;
    doc["reps"] = reps;
    doc["hardware_concurrency"] =
        static_cast<std::uint64_t>(std::thread::hardware_concurrency());
    doc["scenarios"] = std::move(rows);
    doc["sweep_scaling"] = measure_sweep_scaling(opt);
    write_report(opt, obs::JsonValue(std::move(doc)));
}

}  // namespace

int main(int argc, char** argv) {
    const bench::HarnessOptions opt = bench::parse_harness_options(&argc, argv);
    print_figure(opt);
    return 0;
}
