// Deterministic parallel sweep engine (ISSUE 5 tentpole).
//
// A *sweep* is N independent, fully specified scenario jobs — seed ×
// parameter grid points, e.g. the 20 seeded fault plans of abl_chaos or
// bench_perf's scenario ladder — executed across a fixed-size
// std::thread pool. Each job owns a private World / Simulator /
// MetricsRegistry built inside its run callback, so a job's outputs are
// byte-identical whether the sweep runs on 1 thread or 8: nothing a job
// touches is shared, and nothing in the engine feeds scheduling order
// back into job behaviour.
//
// Determinism contract (DESIGN.md §10):
//   1. Job bodies build every simulator-reachable object themselves and
//      communicate only through their returned JobResult (plus artifact
//      files under distinct names). They must not touch process-global
//      mutable state — the library guarantees it has none (MAC ids, ping
//      idents and packet ids are all per-Simulator).
//   2. Results are reported in JobSpec order and merged sorted by job id,
//      never by completion order.
//   3. The merged report contains only deterministic fields; wall-clock
//      timing lives in SweepOutcome::wall_ms, outside the report.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/json.h"

namespace mip::sweep {

/// What one job hands back to the engine. Everything here must be a pure
/// function of the job's spec (no wall-clock, no thread ids) or the
/// jobs=1 vs jobs=N byte-identity guarantee breaks.
struct JobResult {
    bool ok = true;
    std::string error;  ///< exception text when !ok

    /// Deterministic scalars for this job's row in the merged report
    /// (e.g. {"seed":7, "converged":true, "recovery_ms":326.0}).
    obs::JsonValue::Object report;

    /// The job world's metrics snapshot (docs/TRACE_FORMAT.md §4), or
    /// null. The merge stage aggregates histograms across jobs from here.
    obs::JsonValue metrics;

    /// Number of decision-log events the job recorded (merged into the
    /// report's aggregate).
    std::uint64_t decision_count = 0;
};

/// One fully specified unit of work. The id is the report sort key and
/// must be unique within a sweep; the label names artifacts.
struct JobSpec {
    std::uint64_t id = 0;
    std::string label;
    std::function<JobResult()> run;
};

struct SweepConfig {
    /// Worker thread count. 1 (the default) runs every job inline on the
    /// calling thread — the reference execution parallel runs must match.
    int jobs = 1;
};

/// A finished sweep: per-job results in JobSpec order plus the one
/// non-deterministic fact about the run (how long it took).
struct SweepOutcome {
    std::vector<JobSpec> specs;      ///< the jobs as submitted (run fns consumed)
    std::vector<JobResult> results;  ///< parallel to specs
    double wall_ms = 0.0;            ///< whole-sweep wall-clock
    int jobs_used = 1;               ///< thread count actually used

    std::size_t failures() const noexcept;

    /// True iff @p other carries byte-identical artifacts: the same result
    /// count, every job's metrics snapshot and the merged report. This is
    /// the jobs=1 vs jobs=N check of the determinism contract.
    bool same_artifacts(const SweepOutcome& other) const;

    /// Deterministic merged report (docs/TRACE_FORMAT.md §8): jobs sorted
    /// by id, aggregated histograms summed across every job's metrics
    /// snapshot, total decision count. Identical bytes for any thread
    /// count as long as the jobs themselves are deterministic.
    obs::JsonValue report(const std::string& bench, const std::string& label) const;
};

class SweepRunner {
public:
    explicit SweepRunner(SweepConfig config = {});

    /// Executes every job and blocks until all are done. Jobs are claimed
    /// in submission order by a pool of config.jobs threads; a job that
    /// throws is recorded as ok=false with the exception text and does not
    /// disturb the others. With config.jobs <= 1 no thread is spawned.
    SweepOutcome run(std::vector<JobSpec> jobs) const;

    const SweepConfig& config() const noexcept { return config_; }

private:
    SweepConfig config_;
};

/// Checks a parsed document against the sweep-report schema
/// (docs/TRACE_FORMAT.md §8). Empty vector = valid. Shared by the unit
/// tests and the validate_metrics binary.
std::vector<std::string> validate_sweep_document(const obs::JsonValue& doc);

}  // namespace mip::sweep
