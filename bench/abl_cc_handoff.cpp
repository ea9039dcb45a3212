// abl_cc_handoff — the handoff x congestion-control ablation (ISSUE 10):
// the same continuous mobile TCP flow with two mid-flow handoffs, swept
// over {congestion controller} x {delivery mode} x {fault plan}.
//
// Four sections:
//
//   leg sweep      per (controller, Out-mode, plan): one cc_leg.h World —
//                  a paced flow from the mobile host to a DecapCapable
//                  correspondent, handoffs at 1.5 s and 3 s, optionally a
//                  1.2 Mbps backbone squeeze and/or seeded Gilbert-
//                  Elliott burst loss on the access uplinks.
//   golden anchor  every StaticController leg is compared byte-for-byte
//                  against bench/golden/cc_static.txt, captured from the
//                  pre-refactor transport: the default config must not
//                  have moved by a single trace event.
//   determinism    the whole sweep re-runs at --jobs >= 2; the merged
//                  report and per-job metrics snapshots must be byte-
//                  identical to the serial reference (DESIGN §10).
//   verdict        exit-asserted contract. Static legs match the golden;
//                  on every congested (squeeze) row the delay-gradient
//                  controller's p95 queueing delay is measurably below
//                  the loss/delivery-rate controller's (the paper-adjacent
//                  point: a delay signal sees the standing queue a loss
//                  signal tolerates); adaptive clean legs still complete;
//                  artifacts identical at any --jobs.
//
// CI runs `--smoke --jobs 2` in the default job and under TSan; the "cc"
// block (events/s + BufferPool reuse) lands in BENCH_perf.json for the
// trendline.
#include "cc_leg.h"

#include <map>

#include "common.h"

using namespace mip;
using namespace mip::bench_cc;

namespace {

/// The delay controller must beat the loss controller's p95 queueing
/// delay by at least this factor on every squeeze row — "measurably
/// lower", not a rounding artifact. (Observed ~1.8-2x; the gate is
/// deliberately looser so plan noise can't flake it.)
constexpr double kQueueDelayMargin = 1.15;

/// The delay-vs-loss comparison is only meaningful where the loss
/// controller actually *tolerated* a standing queue. On heavily lossy
/// squeeze rows (squeeze+wireless on the short Out-DE/DH paths) the
/// burst loss keeps both adaptive controllers backed off, neither
/// builds a queue, and their p95s are noise around the base RTT — the
/// row is congestion-controlled either way and the gate is moot. 50 ms
/// is ~10x the clean-path queueing p95 and ~1/3 of the smallest
/// standing queue the loss controller shows on a genuinely congested
/// row, so the split is unambiguous in both directions.
constexpr double kStandingQueueMs = 50.0;

struct GridPoint {
    std::string controller;
    core::OutMode mode;
    Plan plan;
};

std::vector<GridPoint> grid(bool smoke) {
    const std::vector<std::string> controllers = {"static", "delay", "loss"};
    const std::vector<core::OutMode> modes =
        smoke ? std::vector<core::OutMode>{core::OutMode::IE, core::OutMode::DE}
              : std::vector<core::OutMode>{core::OutMode::IE, core::OutMode::DE,
                                           core::OutMode::DH};
    const std::vector<Plan> plans =
        smoke ? std::vector<Plan>{Plan::Squeeze, Plan::Wireless}
              : std::vector<Plan>{Plan::Clean, Plan::Squeeze, Plan::Wireless,
                                  Plan::SqueezeWireless};
    std::vector<GridPoint> g;
    for (const auto& c : controllers) {
        for (const auto m : modes) {
            for (const auto p : plans) g.push_back({c, m, p});
        }
    }
    return g;
}

sweep::JobSpec leg_job(std::uint64_t id, const GridPoint& g, bool smoke) {
    sweep::JobSpec spec;
    spec.id = id;
    LegParams params;
    params.controller = g.controller;
    params.mode = g.mode;
    params.plan = g.plan;
    params.smoke = smoke;
    spec.label = leg_label(params);
    spec.run = [params, g]() {
        LegParams p = params;
        if (g.controller != "static") {
            const std::string name = g.controller;
            p.tune = [name](core::MobileHostConfig& m) {
                m.tcp.controller = transport::cc::factory_by_name(name);
                m.tcp.paced = true;
            };
        }

        sweep::JobResult jr;
        LegObservers obs;
        obs.on_transport = [](core::World& w, transport::TcpService& svc, LegResult& r) {
            svc.set_observability("mobile-host", &w.metrics, &w.decisions);
            svc.set_rtt_observer([&r](const transport::TcpEndpoints&, sim::Duration,
                                      sim::Duration queue_delay) {
                r.queue_delay_ms.push_back(sim::to_milliseconds(queue_delay));
            });
        };
        obs.on_complete = [&jr](core::World& w, LegResult& r) {
            jr.metrics = w.metrics.snapshot("abl_cc_handoff", r.label, w.sim.now());
            jr.decision_count = w.decisions.size();
            const net::BufferPool::Stats& pool = w.sim.buffer_pool().stats();
            jr.report["pool_acquires"] = pool.acquires;
            jr.report["pool_reuses"] = pool.reuses;
        };

        const LegResult r = run_leg(p, obs);
        jr.report["controller"] = p.controller;
        jr.report["mode"] = std::string(core::to_string(p.mode));
        jr.report["plan"] = std::string(to_string(p.plan));
        jr.report["completed"] = r.completed;
        jr.report["duration_ms"] = static_cast<double>(r.duration_ns) / 1e6;
        jr.report["bytes_acked"] = static_cast<std::uint64_t>(r.bytes_acked);
        jr.report["segments"] = static_cast<std::uint64_t>(r.segments);
        jr.report["retransmissions"] = static_cast<std::uint64_t>(r.retransmissions);
        jr.report["frames_lost"] = static_cast<std::uint64_t>(r.frames_lost);
        jr.report["p95_queue_delay_ms"] = bench::percentile(r.queue_delay_ms, 0.95);
        jr.report["rtt_samples"] = static_cast<std::uint64_t>(r.queue_delay_ms.size());
        jr.report["sim_events"] = r.sim_events;
        jr.report["rendered"] = render_leg(r);
        return jr;
    };
    return spec;
}

std::vector<sweep::JobSpec> sweep_jobs(bool smoke) {
    std::vector<sweep::JobSpec> jobs;
    std::uint64_t id = 0;
    for (const GridPoint& g : grid(smoke)) {
        jobs.push_back(leg_job(id++, g, smoke));
    }
    return jobs;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::HarnessOptions opt = bench::parse_harness_options(&argc, argv);

    bench::print_header(
        "CC ablation: congestion controller x delivery mode x fault plan",
        "A continuous mobile TCP flow with two mid-flow handoffs, swept\n"
        "over {static, delay-gradient, loss/delivery-rate} controllers,\n"
        "{Out-IE, Out-DE, Out-DH} delivery and {clean, squeeze, wireless,\n"
        "squeeze+wireless} fault plans. Static legs are pinned to the\n"
        "pre-refactor transport byte-for-byte; the delay controller must\n"
        "hold a measurably smaller standing queue than the loss controller\n"
        "wherever the path is genuinely congested.");

    // Sections 1 and 3: the leg sweep and its cross-`--jobs` check.
    const bench::SweepRun sweep = bench::run_sweep(
        opt, "abl_cc_handoff",
        [&](const bench::HarnessOptions&) { return sweep_jobs(opt.smoke); });
    const sweep::SweepOutcome& serial = sweep.outcome;

    std::printf("%-26s %5s %9s %7s %5s %5s %10s %8s\n", "leg", "done", "dur(ms)",
                "acked", "retx", "lost", "p95 qd(ms)", "samples");
    int failures = 0;
    // (mode, plan) -> controller -> p95 queue delay, for the squeeze gate.
    std::map<std::string, std::map<std::string, double>> qd;
    std::map<std::string, std::map<std::string, bool>> done;
    std::uint64_t total_events = 0;
    std::uint64_t pool_acquires = 0;
    std::uint64_t pool_reuses = 0;
    std::uint64_t decision_events = 0;
    std::map<std::string, std::string> rendered;  // label -> golden-comparable line
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        const sweep::JobResult& r = serial.results[i];
        if (!r.ok) {
            std::printf("job %s failed: %s\n", serial.specs[i].label.c_str(),
                        r.error.c_str());
            ++failures;
            continue;
        }
        const obs::JsonValue::Object& row = r.report;
        const std::string ctrl = row.at("controller").as_string();
        const std::string key =
            row.at("mode").as_string() + "/" + row.at("plan").as_string();
        const double q = row.at("p95_queue_delay_ms").as_number();
        qd[key][ctrl] = q;
        done[key][ctrl] = row.at("completed").as_bool();
        total_events += static_cast<std::uint64_t>(row.at("sim_events").as_number());
        pool_acquires += static_cast<std::uint64_t>(row.at("pool_acquires").as_number());
        pool_reuses += static_cast<std::uint64_t>(row.at("pool_reuses").as_number());
        decision_events += r.decision_count;
        rendered[serial.specs[i].label] = row.at("rendered").as_string();
        std::printf("%-26s %5s %9.0f %7.0f %5.0f %5.0f %10.2f %8.0f\n",
                    serial.specs[i].label.c_str(), bench::yn(row.at("completed").as_bool()),
                    row.at("duration_ms").as_number(),
                    row.at("bytes_acked").as_number(),
                    row.at("retransmissions").as_number(),
                    row.at("frames_lost").as_number(), q,
                    row.at("rtt_samples").as_number());
    }

    // Section 2: the golden anchor — static legs vs the pre-refactor run.
    const std::map<std::string, std::string> golden = load_golden(CC_GOLDEN_DIR, opt.smoke);
    int golden_mismatch = 0;
    for (const auto& [label, line] : rendered) {
        if (label.rfind("static/", 0) != 0) continue;
        auto it = golden.find(label);
        if (it == golden.end()) {
            std::printf("golden: no pre-refactor line for %s\n", label.c_str());
            ++golden_mismatch;
        } else if (it->second != line) {
            std::printf("golden MISMATCH %s\n  want %s\n  got  %s\n", label.c_str(),
                        it->second.c_str(), line.c_str());
            ++golden_mismatch;
        }
    }
    std::printf("\ngolden anchor: %zu static leg(s), %d mismatch(es)\n",
                golden.size(), golden_mismatch);

    // Section 4: the verdict.
    int queue_fail = 0;
    int clean_fail = 0;
    for (const auto& [key, by_ctrl] : qd) {
        const bool squeeze_row = key.find("squeeze") != std::string::npos;
        if (squeeze_row) {
            const double d = by_ctrl.at("delay");
            const double l = by_ctrl.at("loss");
            if (l < kStandingQueueMs) {
                std::printf("squeeze row %-22s delay p95=%8.2f ms  loss p95=%8.2f ms  "
                            "moot (no standing queue under either controller)\n",
                            key.c_str(), d, l);
            } else {
                const bool ok = d * kQueueDelayMargin < l;
                std::printf("squeeze row %-22s delay p95=%8.2f ms  loss p95=%8.2f ms  %s\n",
                            key.c_str(), d, l, ok ? "ok" : "FAIL");
                if (!ok) ++queue_fail;
            }
        }
        if (key.find("/clean") != std::string::npos) {
            // Clean paths must not regress under adaptive control.
            for (const char* c : {"delay", "loss"}) {
                if (!done.at(key).at(c)) {
                    std::printf("clean row %s: %s controller failed to complete\n",
                                key.c_str(), c);
                    ++clean_fail;
                }
            }
        }
    }

    obs::JsonValue::Object block;
    block["smoke"] = opt.smoke;
    block["legs"] = serial.specs.size();
    block["events"] = total_events;
    block["events_per_sec"] =
        serial.wall_ms > 0 ? static_cast<double>(total_events) / (serial.wall_ms / 1e3)
                           : 0.0;
    block["pool_acquires"] = pool_acquires;
    block["pool_reuses"] = pool_reuses;
    block["pool_reuse_rate"] =
        pool_acquires > 0
            ? static_cast<double>(pool_reuses) / static_cast<double>(pool_acquires)
            : 0.0;
    block["decision_events"] = decision_events;
    block["artifacts_identical"] = sweep.identical;
    block["golden_mismatches"] = static_cast<std::uint64_t>(golden_mismatch);
    bench::merge_perf_block(opt, "cc", std::move(block));

    bench::Verdict verdict;
    verdict.check(failures == 0, "%d leg job(s) errored.", failures);
    verdict.check(golden_mismatch == 0,
                  "%d static leg(s) diverged from the pre-refactor golden "
                  "(bench/golden/cc_static.txt) — the default transport::Config must "
                  "stay bit-identical.",
                  golden_mismatch);
    verdict.check(queue_fail == 0,
                  "%d squeeze row(s) where the delay-gradient controller did not hold a "
                  "measurably smaller standing queue than the loss-rate controller.",
                  queue_fail);
    verdict.check(clean_fail == 0,
                  "%d clean leg(s) failed to complete under an adaptive controller.",
                  clean_fail);
    verdict.check(sweep.identical, "sweep artifacts differ between jobs=1 and jobs=%d.",
                  sweep.compare_jobs);
    return verdict.exit_status(
        "All legs in contract: static pinned to the seed transport, delay < loss "
        "standing queue on every congested row, artifacts byte-identical at any --jobs.");
}
