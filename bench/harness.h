// bench::Harness — the one place the bench binaries' CLI/environment
// contract lives (ISSUE 5 satellite: extract the argv/env boilerplate).
//
// Every figure binary used to read M4X4_SMOKE / M4X4_METRICS_DIR /
// M4X4_PERFETTO_DIR on its own and hand-roll `--smoke` parsing. Now a
// single parse builds a HarnessOptions and each figure registers a
//
//     void print_figure(const bench::HarnessOptions& opt);
//
// callback via M4X4_BENCH_MAIN(print_figure) — or one returning `int`,
// the figure's exit status, when it checks its own result. The flags:
//
//   --smoke            shrink scenarios, skip the google-benchmark
//                      microbenchmarks (same as M4X4_SMOKE=1)
//   --seeds N          seed count for sweep-style benches (abl_chaos);
//                      0 keeps the bench's own default
//   --jobs N           worker threads for SweepRunner-backed benches;
//                      1 (the default) runs serially on the caller thread
//   --metrics-dir DIR  export metrics/timeseries/decision JSON here
//                      (same as M4X4_METRICS_DIR=DIR)
//   --perfetto DIR     export Chrome-trace JSON here
//                      (same as M4X4_PERFETTO_DIR=DIR)
//
// Environment variables are read first, flags override them — so
// bench_smoke.sh keeps driving everything through the environment while
// a human at a shell can type flags. The export_* helpers take the
// options explicitly; nothing outside parse_harness_options() touches
// getenv for these knobs.
//
// Sweep benches share three more parts: run_sweep (the serial reference
// run, the cross-`--jobs` byte-identity re-run and the merged-report
// export), merge_perf_block (the one writer of BENCH_perf.json blocks)
// and Verdict (the FAIL lines and the exit status).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/decision.h"
#include "obs/incident.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/perfetto.h"
#include "obs/timeseries.h"
#include "sim/time.h"
#include "sweep/sweep.h"

namespace mip::core {
class World;
}

namespace bench {

struct HarnessOptions {
    bool smoke = false;         ///< --smoke / M4X4_SMOKE: tiny scenarios
    int seeds = 0;              ///< --seeds N: sweep seed count (0 = bench default)
    int jobs = 1;               ///< --jobs N: SweepRunner worker threads
    std::string metrics_dir;    ///< --metrics-dir / M4X4_METRICS_DIR ("" = off)
    std::string perfetto_dir;   ///< --perfetto / M4X4_PERFETTO_DIR ("" = off)

    /// Pick @p full normally, @p small under --smoke.
    template <typename T>
    T pick(T full, T small) const {
        return smoke ? small : full;
    }

    bool metrics_enabled() const { return !metrics_dir.empty(); }
    bool perfetto_enabled() const { return !perfetto_dir.empty(); }
};

/// Builds the options from the environment, then applies recognized flags
/// from argv — removing them so the remaining arguments can be handed to
/// google-benchmark untouched. Unknown flags are left in place. Exits
/// with a usage message on a malformed value (e.g. `--jobs banana`).
HarnessOptions parse_harness_options(int* argc, char** argv);

/// Shared filename scheme for the per-(bench, label) exports:
/// <dir>/<bench>_<label><suffix>, with the stem sanitized to
/// [A-Za-z0-9._-]. Creates @p dir; returns "" when @p dir is empty.
std::string export_path(const std::string& dir, const std::string& bench,
                        const std::string& label, const char* suffix);

/// Writes the registry's snapshot (docs/TRACE_FORMAT.md §4) to
/// <metrics_dir>/<bench>_<label>.json; a no-op when metrics are disabled.
void export_metrics(const HarnessOptions& opt, const mip::obs::MetricsRegistry& metrics,
                    const std::string& bench, const std::string& label,
                    mip::sim::TimePoint now);

/// Convenience overload pulling the registry and clock out of a World.
void export_metrics(const HarnessOptions& opt, mip::core::World& world,
                    const std::string& bench, const std::string& label);

/// Writes a sampler's time-series document (§5) to
/// <metrics_dir>/<bench>_<label>.timeseries.json; no-op when disabled.
void export_timeseries(const HarnessOptions& opt, const mip::obs::MetricsSampler& sampler,
                       const std::string& bench, const std::string& label);

/// Writes a decision log (§6) to <metrics_dir>/<bench>_<label>.decisions.json;
/// no-op when disabled or when the log is empty.
void export_decisions(const HarnessOptions& opt, const mip::obs::DecisionLog& log,
                      const std::string& bench, const std::string& label);

/// Writes each captured incident bundle (§10) to
/// <metrics_dir>/<bench>_<label>.incidentN.json (N = 1-based capture
/// order); no-op when metrics are disabled or nothing was captured.
void export_incidents(const HarnessOptions& opt,
                      const mip::obs::IncidentRecorder& recorder,
                      const std::string& bench, const std::string& label);

/// Writes a Chrome-trace document to
/// <perfetto_dir>/<bench>_<label>.perfetto.json; no-op when disabled.
void export_perfetto(const HarnessOptions& opt, const mip::obs::ChromeTraceWriter& writer,
                     const std::string& bench, const std::string& label);

/// Writes @p text to <dir>/<bench>_<label><suffix>; no-op when @p dir is
/// empty. The raw-string cousin of the typed export_* helpers, used for
/// sweep reports and other already-serialized documents.
void export_text(const std::string& dir, const std::string& bench,
                 const std::string& label, const char* suffix, const std::string& text);

/// A sweep run twice (DESIGN.md §10): the serial reference and a
/// parallel re-run whose artifacts must match it byte for byte.
struct SweepRun {
    mip::sweep::SweepOutcome outcome;  ///< the serial (jobs=1) reference run
    int compare_jobs = 2;              ///< thread count of the re-run
    bool identical = false;            ///< re-run's artifacts matched the reference
};

/// Builds a sweep's job list; the jobs export through the options given.
using MakeJobs =
    std::function<std::vector<mip::sweep::JobSpec>(const HarnessOptions&)>;

/// Runs @p make_jobs at --jobs 1 with @p opt (exports on), then at
/// max(--jobs, 2) with exports off so the re-run never races the
/// reference's artifact files, and compares the two with
/// SweepOutcome::same_artifacts. Exports the reference's merged report as
/// <metrics_dir>/<bench>_sweep.json and prints the determinism line.
SweepRun run_sweep(const HarnessOptions& opt, const std::string& bench,
                   const MakeJobs& make_jobs);

/// Where BENCH_perf.json goes: M4X4_BENCH_PERF_OUT when set, else
/// ./BENCH_perf.json — except under --smoke without the override, which
/// returns "" (tiny-scenario wall clocks must not overwrite a baseline).
std::string perf_report_path(const HarnessOptions& opt);

/// Sets @p key of BENCH_perf.json (perf_report_path) to @p block, keeping
/// every other block. A missing file starts a fresh document; an existing
/// file that is not a JSON object is reported and the process exits 1
/// rather than dropping the blocks other benches wrote.
void merge_perf_block(const HarnessOptions& opt, const std::string& key,
                      mip::obs::JsonValue::Object block);

/// A bench's exit-asserted contract: each check that fails prints one
/// "FAIL: ..." line; exit_status() prints the success line when none did.
class Verdict {
public:
    /// Records one check; when !ok prints "FAIL: " + the printf-formatted text.
    void check(bool ok, const char* failure_fmt, ...)
        __attribute__((format(printf, 3, 4)));

    /// 0 (after printing @p success) when every check held, else 1.
    int exit_status(const char* success) const;

private:
    int failed_ = 0;
};

/// The standard figure main: parse the harness options, print the
/// figure's table via @p run, then (outside --smoke) hand the remaining
/// argv to google-benchmark. M4X4_BENCH_MAIN expands to exactly this.
int bench_main(int argc, char** argv, void (*run)(const HarnessOptions&));
/// The same for a figure that checks itself: @p run returns the exit
/// status (a Verdict's), and a failed figure skips the microbenchmarks.
int bench_main(int argc, char** argv, int (*run)(const HarnessOptions&));

}  // namespace bench

#define M4X4_BENCH_MAIN(print_figure_fn)        \
    int main(int argc, char** argv) {           \
        return bench::bench_main(argc, argv, print_figure_fn); \
    }
