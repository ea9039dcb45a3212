// m4x4_benchmark — the repository's benchmark driver (README.md).
//
//   m4x4_benchmark [--workload NAME]... [--seed N] [--reps N | --seconds S]
//                  [--smoke] [--trace DIR] [--out FILE] [--revision REV]
//
// Runs one discarded warm-up rep per workload, then measured reps
// interleaved round-robin across the workloads, each in its own fork()ed
// child, one at a time. With --trace, one extra profiled rep per workload
// (and one with the World's trace recorder off) writes
// DIR/<workload>.layers.json and DIR/<workload>.perfetto.json; those reps
// never enter the end-to-end numbers. Prints every metric by name with
// its unit, then a one-line JSON result as the last line of stdout, and
// exits non-zero when any correctness check fails.
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/overload.h"
#include "layers.h"
#include "obs/json.h"
#include "workloads.h"

#ifndef M4X4_BUILD_TYPE
#define M4X4_BUILD_TYPE "unknown"
#endif

namespace m4x4_benchmark {
namespace {

using mip::obs::JsonValue;

struct Options {
    std::vector<std::string> workloads;
    std::uint64_t seed = 1;
    int reps = 9;
    double seconds = 0;  ///< > 0: measure rounds until this much time has passed
    bool smoke = false;
    std::string trace_dir;
    std::string out;
    std::string revision = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
    std::fprintf(stderr,
                 "m4x4_benchmark: %s\n"
                 "usage: m4x4_benchmark [--workload NAME]... [--seed N] [--reps N | --seconds S]\n"
                 "                      [--smoke] [--trace DIR] [--out FILE] [--revision REV]\n"
                 "workloads: bulk_tcp grid_udp city reg_storm (default: all four)\n",
                 problem.c_str());
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    bool reps_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                const std::string w = value();
                if (std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames), w) ==
                    std::end(kWorkloadNames)) {
                    usage("unknown workload '" + w + "'");
                }
                o.workloads.push_back(w);
            } else if (arg == "--seed") {
                o.seed = std::stoull(value());
            } else if (arg == "--reps") {
                o.reps = std::stoi(value());
                reps_given = true;
            } else if (arg == "--seconds") {
                o.seconds = std::stod(value());
            } else if (arg == "--smoke") {
                o.smoke = true;
            } else if (arg == "--trace") {
                o.trace_dir = value();
            } else if (arg == "--out") {
                o.out = value();
            } else if (arg == "--revision") {
                o.revision = value();
            } else {
                usage("unknown argument '" + arg + "'");
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }
    if (o.workloads.empty()) o.workloads.assign(std::begin(kWorkloadNames), std::end(kWorkloadNames));
    if (o.smoke && !reps_given) o.reps = 2;
    if (o.reps < 1 || o.seconds < 0) usage("--reps must be >= 1 and --seconds >= 0");
    return o;
}

// ---- one rep in its own child process --------------------------------------------

struct Clock {
    double wall;
    double cpu;
    static Clock now() {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return {std::chrono::duration<double>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count(),
                static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9};
    }
};

enum class RepKind { Measured, Traced, UntracedWorld };

/// Fixed work, independent of src/: a hash table larger than the caches,
/// std::function dispatch and small allocations, the mix of costs the
/// simulator's event loop pays. Timed in its own process right before
/// and right after every measured rep, it gives the machine's speed at
/// that moment, which on a shared host drifts by tens of percent.
JsonValue reference_body() {
    const Clock t0 = Clock::now();
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::uint64_t x = 1;
    std::uint64_t acc = 0;
    for (int i = 0; i < 200000; ++i) {
        x = mip::core::mix64(x);
        table[x % 400000] += static_cast<std::uint64_t>(i);
    }
    std::vector<std::function<void()>> calls;
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 200000; ++i) {
            x = mip::core::mix64(x);
            acc += table.count(x % 400000);
        }
        calls.clear();
        for (int i = 0; i < 50000; ++i) {
            calls.emplace_back([&acc, i, v = std::vector<int>(8, i)] { acc += static_cast<std::uint64_t>(v[3] + i); });
        }
        for (const auto& call : calls) call();
    }
    keep(acc);
    const Clock t1 = Clock::now();
    JsonValue::Object r;
    r["wall_s"] = t1.wall - t0.wall;
    r["cpu_s"] = t1.cpu - t0.cpu;
    return JsonValue(std::move(r));
}

/// Runs in the child: set up, run, check; returns the rep's numbers.
JsonValue rep_body(const std::string& name, const Options& opt, RepKind kind) {
    Params params{opt.seed, opt.smoke, kind == RepKind::UntracedWorld};
    const std::unique_ptr<Workload> w = make_workload(name, params);
    std::unique_ptr<SpanLog> spans;
    if (kind == RepKind::Traced) spans = std::make_unique<SpanLog>();

    const Clock c0 = Clock::now();
    w->setup(spans.get());
    const Clock c1 = Clock::now();
    std::unique_ptr<LayerRecorder> recorder;
    if (kind == RepKind::Traced) recorder = std::make_unique<LayerRecorder>(*w);
    const Clock c2 = Clock::now();
    w->run(spans.get());
    const Clock c3 = Clock::now();

    JsonValue::Object r;
    if (recorder) r["layers"] = recorder->finish(c3.wall - c2.wall);
    const Outcome o = w->outcome();
    r["setup_s"] = c1.wall - c0.wall;
    r["wall_s"] = c3.wall - c2.wall;
    r["cpu_s"] = c3.cpu - c2.cpu;
    r["attempted"] = static_cast<double>(o.attempted);
    r["failed"] = static_cast<double>(o.failed);
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(o.digest));
    r["digest"] = std::string(digest);
    JsonValue::Array errors(o.errors.begin(), o.errors.end());
    r["errors"] = std::move(errors);
    r["world_traces"] = w->world() != nullptr && w->world()->config().tracing;
    if (spans) spans->writer().write(opt.trace_dir + "/" + name + ".perfetto.json");
    return JsonValue(std::move(r));
}

struct ChildResult {
    JsonValue doc;
    double peak_rss_mb = 0;
};

ChildResult in_child(const std::function<JsonValue()>& body) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    if (pid == 0) {
        close(fds[0]);
        std::string text;
        try {
            text = body().dump();
        } catch (const std::exception& e) {
            JsonValue::Object err;
            err["error"] = std::string(e.what());
            text = JsonValue(std::move(err)).dump();
        }
        for (std::size_t done = 0; done < text.size();) {
            const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) _exit(3);
            done += static_cast<std::size_t>(n);
        }
        _exit(0);  // no atexit handlers, no second flush of the parent's buffers
    }
    close(fds[1]);
    std::string text;
    char buf[65536];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty()) {
        throw std::runtime_error("rep process died (status " + std::to_string(status) + ")");
    }
    ChildResult r{JsonValue::parse(text), static_cast<double>(usage.ru_maxrss) / 1024.0};
    if (r.doc.contains("error")) throw std::runtime_error(r.doc.at("error").as_string());
    return r;
}

// ---- statistics --------------------------------------------------------------

struct Summary {
    double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
    std::size_t n = 0;
};

/// Quartiles by the same rule as Python's statistics.quantiles(n=4)
/// (the "exclusive" method), so compare.py and the driver agree.
Summary summarize(std::vector<double> v) {
    Summary s;
    s.n = v.size();
    if (v.empty()) return s;
    std::sort(v.begin(), v.end());
    s.min = v.front();
    s.max = v.back();
    const std::size_t n = v.size();
    s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    if (n < 2) {
        s.q1 = s.q3 = v[0];
        return s;
    }
    const auto quartile = [&](std::size_t i) {
        const std::size_t m = n + 1;
        const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

/// Host times are reported in seconds at reference speed: scaled so that
/// the reference job, timed on either side of each rep, counts as this
/// long. On a machine where it takes 0.1 s they are raw seconds.
constexpr double kReferenceSeconds = 0.1;

struct EndToEndMetric {
    const char* name;
    const char* unit;
    /// On the result line (BENCHMARK.json end_to_end). The raw readings
    /// drift by tens of percent with the shared host's load, so they are
    /// printed but not gated.
    bool reported;
};
constexpr EndToEndMetric kEndToEnd[] = {
    {"wall_s", "s", true},       {"cpu_s", "s", true},          {"setup_s", "s", true},
    {"peak_rss_mb", "MiB", true}, {"raw_wall_s", "s", false},   {"raw_cpu_s", "s", false},
    {"raw_setup_s", "s", false}, {"reference_s", "s", false},
};

struct Rep {
    std::map<std::string, double> values;  ///< one per kEndToEnd metric
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

struct WorkloadRun {
    std::string name;
    std::vector<Rep> reps;
    std::set<std::string> digests;
    std::vector<std::string> errors;
    JsonValue::Object layers;  ///< layers.json, when traced

    std::uint64_t attempted() const {
        std::uint64_t n = 0;
        for (const Rep& r : reps) n += r.attempted;
        return n;
    }
    std::uint64_t failed() const {
        std::uint64_t n = 0;
        for (const Rep& r : reps) n += r.failed;
        return n;
    }
    double failed_ratio() const {
        return attempted() == 0 ? 0.0
                                : static_cast<double>(failed()) / static_cast<double>(attempted());
    }
    Summary summary(const std::string& metric) const {
        std::vector<double> v;
        for (const Rep& r : reps) v.push_back(r.values.at(metric));
        return summarize(std::move(v));
    }
    bool correct() const { return errors.empty() && digests.size() == 1 && !reps.empty(); }
};

/// Runs one rep; records its digest and errors on @p run. Returns the
/// child's document, or null when the rep failed outright.
JsonValue run_rep(WorkloadRun& run, const Options& opt, RepKind kind, double* rss_mb = nullptr) {
    try {
        ChildResult r = in_child([&] { return rep_body(run.name, opt, kind); });
        run.digests.insert(r.doc.at("digest").as_string());
        for (const JsonValue& e : r.doc.at("errors").as_array()) run.errors.push_back(e.as_string());
        if (rss_mb != nullptr) *rss_mb = r.peak_rss_mb;
        return r.doc;
    } catch (const std::exception& e) {
        run.errors.push_back(e.what());
        return {};
    }
}

/// Runs one rep, then a reference job, and scales the rep's times by the
/// mean of the reference jobs on either side of it. @p reference holds
/// the one before and becomes the one after, so neighbouring reps share
/// it. Returns the rep's document, null when the rep failed.
JsonValue timed_rep(WorkloadRun& run, const Options& opt, RepKind kind, JsonValue& reference,
                    Rep& rep) {
    double rss = 0;
    JsonValue doc = run_rep(run, opt, kind, &rss);
    const JsonValue before = std::exchange(reference, in_child(reference_body).doc);
    if (doc.is_null()) return doc;
    const auto scale = [&](const char* clock) {
        return 2 * kReferenceSeconds /
               (before.at(clock).as_number() + reference.at(clock).as_number());
    };
    const double wall_scale = scale("wall_s");
    for (const char* k : {"wall_s", "cpu_s", "setup_s"}) {
        rep.values[std::string("raw_") + k] = doc.at(k).as_number();
    }
    rep.values["wall_s"] = doc.at("wall_s").as_number() * wall_scale;
    rep.values["cpu_s"] = doc.at("cpu_s").as_number() * scale("cpu_s");
    rep.values["setup_s"] = doc.at("setup_s").as_number() * wall_scale;
    rep.values["reference_s"] = kReferenceSeconds / wall_scale;
    rep.values["peak_rss_mb"] = rss;
    rep.attempted = static_cast<std::uint64_t>(doc.at("attempted").as_number());
    rep.failed = static_cast<std::uint64_t>(doc.at("failed").as_number());
    return doc;
}

void measure(std::vector<WorkloadRun>& runs, const Options& opt) {
    for (WorkloadRun& run : runs) run_rep(run, opt, RepKind::Measured);  // warm-up, discarded
    JsonValue reference = in_child(reference_body).doc;
    const auto start = std::chrono::steady_clock::now();
    const int min_rounds = opt.smoke ? 2 : 3;
    for (int round = 0;; ++round) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        const bool done = opt.seconds > 0 ? round >= min_rounds && elapsed >= opt.seconds
                                          : round >= opt.reps;
        if (done) break;
        for (WorkloadRun& run : runs) {
            Rep rep;
            if (timed_rep(run, opt, RepKind::Measured, reference, rep).is_null()) continue;
            std::fprintf(stderr, "  %-9s rep %zu  wall %.3f s  cpu %.3f s  reference %.3f s\n",
                         run.name.c_str(), run.reps.size() + 1, rep.values.at("raw_wall_s"),
                         rep.values.at("raw_cpu_s"), rep.values.at("reference_s"));
            run.reps.push_back(std::move(rep));
        }
    }
}

/// The traced pass: one profiled rep per workload, plus one rep with the
/// World's recorder off where the workload traces. Compared with the
/// measured reps' median at reference speed.
void trace(std::vector<WorkloadRun>& runs, const Options& opt) {
    JsonValue reference = in_child(reference_body).doc;
    for (WorkloadRun& run : runs) {
        Rep traced;
        const JsonValue doc = timed_rep(run, opt, RepKind::Traced, reference, traced);
        if (doc.is_null() || run.reps.empty()) continue;
        const double cpu = run.summary("cpu_s").median;
        JsonValue::Object layers = doc.at("layers").as_object();
        for (const JsonValue& e : layers.at("errors").as_array()) run.errors.push_back(e.as_string());
        JsonValue::Object& m = layers.at("metrics").as_object();
        m["sim.events_per_cpu_s"] = m.at("sim.events").as_number() / cpu;
        if (doc.at("world_traces").as_bool()) {
            Rep untraced;
            if (!timed_rep(run, opt, RepKind::UntracedWorld, reference, untraced).is_null()) {
                m["obs.recorder_share"] = 1.0 - untraced.values.at("cpu_s") / cpu;
            }
        }
        layers["workload"] = run.name;
        layers["seed"] = static_cast<double>(opt.seed);
        layers["digest"] = doc.at("digest");
        layers["traced_cpu_s"] = traced.values.at("cpu_s");
        layers["untraced_cpu_s_median"] = cpu;
        layers["trace_overhead_pct"] = (traced.values.at("cpu_s") - cpu) / cpu * 100.0;
        std::ofstream(opt.trace_dir + "/" + run.name + ".layers.json")
            << JsonValue(layers).dump(2) << "\n";
        run.layers = std::move(layers);
    }
}

// ---- machine record ------------------------------------------------------------

std::uint64_t burn(std::uint64_t iterations) {
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < iterations; ++i) x = mip::core::mix64(x);
    return x;
}

/// This box may report more cores than it delivers: time a fixed 1 s CPU
/// burn in one process, then the same burn in nproc processes at once.
JsonValue machine_record(const Options& opt) {
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    using clock = std::chrono::steady_clock;
    std::uint64_t iterations = 0;
    volatile std::uint64_t sink = 0;
    const auto t0 = clock::now();
    while (clock::now() - t0 < std::chrono::seconds(1)) {
        sink = burn(100000);
        iterations += 100000;
    }
    const double serial_s = std::chrono::duration<double>(clock::now() - t0).count();
    std::fflush(nullptr);
    std::vector<pid_t> pids;
    const auto t1 = clock::now();
    for (long i = 0; i < nproc; ++i) {
        const pid_t pid = fork();
        if (pid == 0) {
            sink = burn(iterations);
            _exit(0);
        }
        if (pid > 0) pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    const double parallel_s = std::chrono::duration<double>(clock::now() - t1).count();
    static_cast<void>(sink);

    std::string cpu_model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu_model = line.substr(line.find(':') + 2);
            break;
        }
    }
    JsonValue::Object m;
    m["nproc"] = static_cast<double>(nproc);
    m["effective_parallelism"] =
        parallel_s > 0 ? static_cast<double>(pids.size()) * serial_s / parallel_s : 0.0;
    m["burn_serial_s"] = serial_s;
    m["burn_parallel_s"] = parallel_s;
    m["cpu_model"] = cpu_model;
    m["build_type"] = M4X4_BUILD_TYPE;
    m["compiler"] = __VERSION__;
    m["git_revision"] = opt.revision;
    return JsonValue(std::move(m));
}

// ---- output ------------------------------------------------------------------

void print_row(const char* name, const char* unit, const Summary& s) {
    std::printf("  %-30s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %4zu\n", name, unit, s.median,
                s.q1, s.q3, s.min, s.max, s.n);
}

void print_report(const std::vector<WorkloadRun>& runs, const Options& opt) {
    const std::string length = opt.seconds > 0
                                   ? "rounds for " + std::to_string(opt.seconds) + " s"
                                   : std::to_string(opt.reps) + " reps";
    std::printf("m4x4 benchmark: seed %llu, %s, build %s, revision %s\n",
                static_cast<unsigned long long>(opt.seed), length.c_str(), M4X4_BUILD_TYPE,
                opt.revision.c_str());
    for (const WorkloadRun& run : runs) {
        std::printf("\n%s: %s, digest %s, %llu of %llu operations failed\n", run.name.c_str(),
                    run.correct() ? "correct" : "FAILED",
                    run.digests.size() == 1 ? run.digests.begin()->c_str() : "(differs)",
                    static_cast<unsigned long long>(run.failed()),
                    static_cast<unsigned long long>(run.attempted()));
        for (const std::string& e : run.errors) std::printf("  error: %s\n", e.c_str());
        if (run.digests.size() > 1) std::printf("  error: digest differs between reps\n");
        std::printf("  %-30s %-6s %12s %12s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1",
                    "q3", "min", "max", "n");
        if (run.reps.empty()) continue;
        for (const EndToEndMetric& m : kEndToEnd) print_row(m.name, m.unit, run.summary(m.name));
        const double fr = run.failed_ratio();
        print_row("failed_ratio", "ratio", Summary{fr, fr, fr, fr, fr, run.reps.size()});
        if (run.layers.empty()) continue;
        std::printf("  layers (traced rep, trace overhead %+.1f%%):\n",
                    run.layers.at("trace_overhead_pct").as_number());
        const JsonValue::Object& lm = run.layers.at("metrics").as_object();
        for (const LayerMetric& m : kLayerMetrics) {
            std::printf("  %-30s %-6s %12.6g\n", m.name, m.unit, lm.at(m.name).as_number());
        }
    }
}

JsonValue results_document(const std::vector<WorkloadRun>& runs, const Options& opt) {
    JsonValue::Object doc;
    doc["schema"] = "m4x4-benchmark/1";
    doc["machine"] = machine_record(opt);
    doc["seed"] = static_cast<double>(opt.seed);
    doc["smoke"] = opt.smoke;
    JsonValue::Object workloads;
    for (const WorkloadRun& run : runs) {
        JsonValue::Object w;
        w["correct"] = run.correct();
        w["digest"] = run.digests.size() == 1 ? *run.digests.begin() : std::string("differs");
        w["attempted"] = static_cast<double>(run.attempted());
        w["failed"] = static_cast<double>(run.failed());
        w["failed_ratio"] = run.failed_ratio();
        JsonValue::Object metrics;
        if (!run.reps.empty()) {
            for (const EndToEndMetric& m : kEndToEnd) {
                const Summary s = run.summary(m.name);
                JsonValue::Array samples;
                for (const Rep& r : run.reps) samples.emplace_back(r.values.at(m.name));
                JsonValue::Object e;
                e["unit"] = m.unit;
                e["median"] = s.median;
                e["q1"] = s.q1;
                e["q3"] = s.q3;
                e["min"] = s.min;
                e["max"] = s.max;
                e["n"] = static_cast<double>(s.n);
                e["samples"] = std::move(samples);
                metrics[m.name] = std::move(e);
            }
        }
        w["metrics"] = std::move(metrics);
        if (!run.layers.empty()) w["layers"] = run.layers;
        workloads[run.name] = std::move(w);
    }
    doc["workloads"] = std::move(workloads);
    return JsonValue(std::move(doc));
}

/// The last line of stdout: {"correct", "attempted", "failed", "metrics"}.
/// End-to-end medians, or the traced rep's reported layer metrics with
/// --trace; names carry a "<workload>." prefix when several ran.
std::string result_line(const std::vector<WorkloadRun>& runs, bool traced) {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    JsonValue::Object metrics;
    for (const WorkloadRun& run : runs) {
        correct = correct && run.correct();
        attempted += run.attempted();
        failed += run.failed();
        const std::string prefix = runs.size() > 1 ? run.name + "." : "";
        const auto put = [&](const std::string& name, const char* unit, double value) {
            JsonValue::Object v;
            v["value"] = value;
            v["unit"] = unit;
            metrics[prefix + name] = std::move(v);
        };
        if (traced) {
            for (const LayerMetric& m : kLayerMetrics) {
                if (!m.reported) continue;
                const bool have = !run.layers.empty();
                put(m.name, m.unit,
                    have ? run.layers.at("metrics").at(m.name).as_number() : 0.0);
            }
        } else {
            for (const EndToEndMetric& m : kEndToEnd) {
                if (!m.reported) continue;
                put(m.name, m.unit, run.reps.empty() ? 0.0 : run.summary(m.name).median);
            }
        }
    }
    JsonValue::Object line;
    line["correct"] = correct;
    line["attempted"] = static_cast<double>(attempted);
    line["failed"] = static_cast<double>(failed);
    line["metrics"] = std::move(metrics);
    return JsonValue(std::move(line)).dump();
}

}  // namespace
}  // namespace m4x4_benchmark

int main(int argc, char** argv) {
    using namespace m4x4_benchmark;
    const Options opt = parse(argc, argv);
    std::vector<WorkloadRun> runs;
    for (const std::string& name : opt.workloads) runs.push_back({name, {}, {}, {}, {}});

    measure(runs, opt);
    if (!opt.trace_dir.empty()) {
        std::filesystem::create_directories(opt.trace_dir);
        trace(runs, opt);
    }

    print_report(runs, opt);
    if (!opt.out.empty()) {
        std::ofstream(opt.out) << results_document(runs, opt).dump(2) << "\n";
        std::printf("\nwrote %s\n", opt.out.c_str());
    }
    const std::string line = result_line(runs, !opt.trace_dir.empty());
    std::printf("%s\n", line.c_str());
    const bool correct = std::all_of(runs.begin(), runs.end(),
                                     [](const WorkloadRun& r) { return r.correct(); });
    return correct ? 0 : 1;
}
