#include "harness.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/scenario.h"

namespace bench {

namespace {

const char* env_or_empty(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr ? v : "";
}

[[noreturn]] void usage_error(const char* flag, const char* why) {
    std::fprintf(stderr,
                 "error: %s %s\n"
                 "usage: [--smoke] [--seeds N] [--jobs N] [--metrics-dir DIR] "
                 "[--perfetto DIR] [google-benchmark flags...]\n",
                 flag, why);
    std::exit(2);
}

/// Parses the decimal value following @p flag; dies with usage on junk.
int int_value(const char* flag, const char* value) {
    if (value == nullptr) usage_error(flag, "needs a value");
    char* end = nullptr;
    const long v = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || v < 0) usage_error(flag, "needs a non-negative integer");
    return static_cast<int>(v);
}

}  // namespace

HarnessOptions parse_harness_options(int* argc, char** argv) {
    HarnessOptions opt;
    // Environment first (the bench_smoke.sh / CI contract) ...
    opt.smoke = env_or_empty("M4X4_SMOKE")[0] != '\0';
    opt.metrics_dir = env_or_empty("M4X4_METRICS_DIR");
    opt.perfetto_dir = env_or_empty("M4X4_PERFETTO_DIR");

    // ... then flags override, compacting argv so google-benchmark never
    // sees the harness's arguments.
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const char* a = argv[i];
        const auto value = [&]() -> const char* {
            return i + 1 < *argc ? argv[++i] : nullptr;
        };
        if (std::strcmp(a, "--smoke") == 0) {
            opt.smoke = true;
        } else if (std::strcmp(a, "--seeds") == 0) {
            opt.seeds = int_value("--seeds", value());
        } else if (std::strcmp(a, "--jobs") == 0) {
            opt.jobs = int_value("--jobs", value());
            if (opt.jobs < 1) opt.jobs = 1;
        } else if (std::strcmp(a, "--metrics-dir") == 0) {
            const char* v = value();
            if (v == nullptr) usage_error("--metrics-dir", "needs a directory");
            opt.metrics_dir = v;
        } else if (std::strcmp(a, "--perfetto") == 0) {
            const char* v = value();
            if (v == nullptr) usage_error("--perfetto", "needs a directory");
            opt.perfetto_dir = v;
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
    argv[out] = nullptr;
    return opt;
}

std::string export_path(const std::string& dir, const std::string& bench,
                        const std::string& label, const char* suffix) {
    if (dir.empty()) return {};
    std::string file = bench;
    if (!label.empty()) file += "_" + label;
    for (char& c : file) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
        if (!ok) c = '_';
    }
    std::filesystem::create_directories(dir);
    return (std::filesystem::path(dir) / (file + suffix)).string();
}

void export_metrics(const HarnessOptions& opt, const mip::obs::MetricsRegistry& metrics,
                    const std::string& bench, const std::string& label,
                    mip::sim::TimePoint now) {
    const std::string path = export_path(opt.metrics_dir, bench, label, ".json");
    if (path.empty()) return;
    std::ofstream out(path);
    out << metrics.snapshot_json(bench, label, now);
}

void export_metrics(const HarnessOptions& opt, mip::core::World& world,
                    const std::string& bench, const std::string& label) {
    export_metrics(opt, world.metrics, bench, label, world.sim.now());
}

void export_timeseries(const HarnessOptions& opt, const mip::obs::MetricsSampler& sampler,
                       const std::string& bench, const std::string& label) {
    const std::string path =
        export_path(opt.metrics_dir, bench, label, ".timeseries.json");
    if (path.empty()) return;
    std::ofstream out(path);
    out << sampler.to_json_string(bench, label);
}

void export_decisions(const HarnessOptions& opt, const mip::obs::DecisionLog& log,
                      const std::string& bench, const std::string& label) {
    if (log.size() == 0) return;
    const std::string path =
        export_path(opt.metrics_dir, bench, label, ".decisions.json");
    if (path.empty()) return;
    std::ofstream out(path);
    out << log.to_json_string(bench, label);
}

void export_perfetto(const HarnessOptions& opt, const mip::obs::ChromeTraceWriter& writer,
                     const std::string& bench, const std::string& label) {
    const std::string path =
        export_path(opt.perfetto_dir, bench, label, ".perfetto.json");
    if (path.empty()) return;
    writer.write(path);
}

void export_incidents(const HarnessOptions& opt,
                      const mip::obs::IncidentRecorder& recorder,
                      const std::string& bench, const std::string& label) {
    if (!opt.metrics_enabled()) return;
    std::size_t n = 0;
    for (const mip::obs::JsonValue& bundle : recorder.bundles()) {
        const std::string suffix = ".incident" + std::to_string(++n) + ".json";
        const std::string path = export_path(opt.metrics_dir, bench, label, suffix.c_str());
        if (path.empty()) return;
        std::ofstream out(path);
        out << bundle.dump(2) << "\n";
    }
}

void export_text(const std::string& dir, const std::string& bench,
                 const std::string& label, const char* suffix, const std::string& text) {
    const std::string path = export_path(dir, bench, label, suffix);
    if (path.empty()) return;
    std::ofstream out(path);
    out << text;
}

SweepRun run_sweep(const HarnessOptions& opt, const std::string& bench,
                   const MakeJobs& make_jobs) {
    SweepRun run;
    run.outcome = mip::sweep::SweepRunner({.jobs = 1}).run(make_jobs(opt));
    export_text(opt.metrics_dir, bench, "sweep", ".json",
                run.outcome.report(bench, "sweep").dump(2) + "\n");

    HarnessOptions quiet = opt;
    quiet.metrics_dir.clear();
    quiet.perfetto_dir.clear();
    run.compare_jobs = std::max(opt.jobs, 2);
    const mip::sweep::SweepOutcome par =
        mip::sweep::SweepRunner({.jobs = run.compare_jobs}).run(make_jobs(quiet));
    run.identical = par.same_artifacts(run.outcome);
    std::printf("\nsweep determinism: jobs=1 vs jobs=%d artifacts identical: %s\n",
                run.compare_jobs, run.identical ? "yes" : "no");
    return run;
}

std::string perf_report_path(const HarnessOptions& opt) {
    const char* out = std::getenv("M4X4_BENCH_PERF_OUT");
    const bool overridden = out != nullptr && out[0] != '\0';
    if (overridden) return out;
    return opt.smoke ? "" : "BENCH_perf.json";
}

void merge_perf_block(const HarnessOptions& opt, const std::string& key,
                      mip::obs::JsonValue::Object block) {
    const std::string path = perf_report_path(opt);
    if (path.empty()) return;

    mip::obs::JsonValue doc;
    if (std::ifstream in{path, std::ios::binary}) {
        std::ostringstream buf;
        buf << in.rdbuf();
        try {
            doc = mip::obs::JsonValue::parse(buf.str());
        } catch (const mip::obs::JsonError& e) {
            std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
            std::exit(1);
        }
        if (!doc.is_object()) {
            std::fprintf(stderr, "error: %s: not a JSON object\n", path.c_str());
            std::exit(1);
        }
    } else {
        mip::obs::JsonValue::Object fresh;
        fresh["schema_version"] = 3;
        fresh["kind"] = "bench_perf";
        fresh["smoke"] = opt.smoke;
        fresh["scenarios"] = mip::obs::JsonValue::Array{};
        doc = mip::obs::JsonValue(std::move(fresh));
    }
    doc["hardware_concurrency"] =
        static_cast<std::uint64_t>(std::thread::hardware_concurrency());
    doc[key] = mip::obs::JsonValue(std::move(block));

    std::ofstream f(path);
    f << doc.dump(2) << "\n";
    std::printf("merged %s block into %s\n", key.c_str(), path.c_str());
}

void Verdict::check(bool ok, const char* failure_fmt, ...) {
    if (ok) return;
    ++failed_;
    std::va_list args;
    va_start(args, failure_fmt);
    std::printf("\nFAIL: ");
    std::vprintf(failure_fmt, args);
    std::printf("\n");
    va_end(args);
}

int Verdict::exit_status(const char* success) const {
    if (failed_ > 0) return 1;
    std::printf("\n%s\n", success);
    return 0;
}

namespace {
int run_microbenchmarks(int argc, char** argv) {
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
}  // namespace

// Under --smoke the microbenchmarks are skipped — bench_smoke only needs
// the figure tables and the snapshots they export.
int bench_main(int argc, char** argv, void (*run)(const HarnessOptions&)) {
    const HarnessOptions opt = parse_harness_options(&argc, argv);
    run(opt);
    return opt.smoke ? 0 : run_microbenchmarks(argc, argv);
}

int bench_main(int argc, char** argv, int (*run)(const HarnessOptions&)) {
    const HarnessOptions opt = parse_harness_options(&argc, argv);
    const int status = run(opt);
    return opt.smoke || status != 0 ? status : run_microbenchmarks(argc, argv);
}

}  // namespace bench
