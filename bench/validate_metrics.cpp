// Schema validator for exported observability documents: metrics
// snapshots (docs/TRACE_FORMAT.md §4), time-series exports (§5),
// delivery-decision logs (§6), merged sweep reports (§8) and
// BENCH_perf.json performance reports, dispatched by each document's
// top-level "kind" field (absent = §4 snapshot, the original format).
//
// Usage: validate_metrics <dir-or-file>...
//        validate_metrics --dump-schema
//
// Parses every *.json under each argument and runs it through the
// matching obs::validate_*_document — the same checkers the unit tests
// use, so the schemas the benches emit and the schemas bench_smoke
// enforces cannot drift apart. Exits non-zero if any file is unparsable
// or non-conforming, or if no file was found at all (an empty run means
// the benches silently stopped exporting, which is itself a failure).
//
// --dump-schema prints every exported field name (one "section field"
// pair per line) for all document kinds plus the binary trace/decision
// record layouts. bench/check_docs_schema.py diffs the docs/ markdown
// field tables against this output so prose cannot reference a field
// the exporters no longer emit.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/decision.h"
#include "obs/incident.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sweep/bench_report.h"
#include "sweep/sweep.h"

namespace fs = std::filesystem;

namespace {

int check_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    mip::obs::JsonValue doc;
    try {
        doc = mip::obs::JsonValue::parse(buf.str());
    } catch (const mip::obs::JsonError& e) {
        std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(), e.what());
        return 1;
    }
    // Dispatch on the top-level "kind": timeseries (§5) and decisions
    // (§6) tag themselves; §4 metrics snapshots predate the field.
    std::string kind;
    if (doc.is_object() && doc.contains("kind") && doc.at("kind").is_string()) {
        kind = doc.at("kind").as_string();
    }
    std::vector<std::string> problems;
    if (kind == "timeseries") {
        problems = mip::obs::validate_timeseries_document(doc);
    } else if (kind == "decisions") {
        problems = mip::obs::validate_decisions_document(doc);
    } else if (kind == "incident") {
        problems = mip::obs::validate_incident_document(doc);
    } else if (kind == "sweep") {
        problems = mip::sweep::validate_sweep_document(doc);
    } else if (kind == "bench_perf") {
        problems = mip::sweep::validate_bench_perf_document(doc);
    } else {
        problems = mip::obs::validate_metrics_document(doc);
    }
    for (const auto& p : problems) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), p.c_str());
    }
    return problems.empty() ? 0 : 1;
}

/// One exported-schema section: a document kind (or binary record
/// layout) and the field names it emits. Kept next to the validator
/// dispatch above so a new exporter field lands in the same review as
/// its validation — and so docs tables checked by check_docs_schema.py
/// can only name fields that actually exist.
struct SchemaSection {
    const char* section;
    std::vector<const char*> fields;
};

const std::vector<SchemaSection>& exported_schema() {
    static const std::vector<SchemaSection> sections = {
        {"metrics_snapshot",  // TRACE_FORMAT.md §4
         {"schema_version", "bench", "label", "time_ns", "metrics", "node", "layer",
          "name", "kind", "value", "count", "sum", "min", "max", "mean", "buckets",
          "le"}},
        {"timeseries",  // §5
         {"schema_version", "kind", "bench", "label", "interval_ns", "samples",
          "ring_capacity", "series", "points", "t_ns", "v", "node", "layer",
          "name", "field", "dropped_points"}},
        {"incident",  // §10 incident flight-recorder bundle
         {"schema_version", "kind", "bench", "label", "sequence", "monitor",
          "name", "rule", "value", "threshold", "detail", "tripped_at_ns",
          "captured_at_ns", "window_ns", "trace", "decisions", "series", "total",
          "included", "truncated", "events", "points", "t_ns", "v", "node",
          "layer", "field", "bytes", "packet_id", "correspondent", "trigger",
          "test", "input", "passed"}},
        {"decisions",  // §6
         {"schema_version", "kind", "bench", "label", "events", "t_ns", "node",
          "correspondent", "trigger", "test", "input", "passed", "from_mode",
          "to_mode", "in_mode", "detail"}},
        {"trace_events",  // §2/§3 event stream + Perfetto/journey exports
         {"when", "kind", "node", "link", "bytes", "ethertype", "packet_id",
          "detail", "ts", "ph", "pid", "tid", "cat", "args", "dur", "id", "hops",
          "wire_bytes", "packets_lost_in_gap"}},
        {"trace_record",  // §9 binary record (hot-path layout)
         {"when", "packet_id", "link", "node", "bytes", "a", "b", "c", "text",
          "ethertype", "kind", "detail_kind"}},
        {"decision_record",  // §9 binary record (decision layout)
         {"when", "node", "correspondent", "trigger", "test", "input", "from_mode",
          "to_mode", "in_mode", "detail", "passed"}},
        {"sweep",  // §8 merged sweep report
         {"schema_version", "kind", "jobs_total", "jobs_failed", "jobs", "id",
          "label", "ok", "error", "aggregates", "histograms", "decision_count",
          "bench", "node", "layer", "name", "count", "sum", "min", "max", "mean",
          "buckets", "le"}},
        {"bench_perf",
         {"schema_version", "kind", "smoke", "hardware_concurrency", "scenarios",
          "name", "baseline", "fault_attached", "instrumented", "events",
          "wall_ms", "events_per_sec", "sim_seconds", "reps", "pool_acquires",
          "pool_reuses", "pool_acquires_per_datagram", "shifts_per_push",
          "scans_per_pop", "fault_attached_overhead_pct",
          "instrumentation_overhead_pct", "overhead", "untraced", "traced",
          "sampled", "sample_rate", "trace_records", "trace_sampled_out",
          "arena_acquires", "arena_allocations", "traced_overhead_pct",
          "sampled_overhead_pct", "sweep_scaling", "serial_wall_ms",
          "artifacts_identical", "parallel", "speedup", "city", "hosts", "cells",
          "find_link", "links", "indexed_ns", "linear_ns", "lookups",
          "observability", "sampler_off_wall_ms", "sampler_on_wall_ms", "overhead_pct",
          "metrics_interval_s", "sweep_wall_ms", "handoffs", "registrations",
          "probes", "probes_delivered", "deliverability", "storm_trips",
          "compare_jobs"}},
    };
    return sections;
}

int dump_schema() {
    for (const SchemaSection& s : exported_schema()) {
        for (const char* f : s.fields) std::printf("%s %s\n", s.section, f);
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc == 2 && std::string(argv[1]) == "--dump-schema") {
        return dump_schema();
    }
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <dir-or-file>... | --dump-schema\n", argv[0]);
        return 2;
    }
    std::vector<fs::path> files;
    for (int i = 1; i < argc; ++i) {
        const fs::path arg(argv[i]);
        std::error_code ec;
        if (fs::is_directory(arg, ec)) {
            for (const auto& entry : fs::directory_iterator(arg)) {
                if (entry.path().extension() == ".json") files.push_back(entry.path());
            }
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty()) {
        std::fprintf(stderr, "validate_metrics: no .json files found\n");
        return 1;
    }
    std::sort(files.begin(), files.end());
    int bad = 0;
    for (const auto& f : files) bad += check_file(f);
    std::printf("validate_metrics: %zu file(s), %d problem file(s)\n", files.size(), bad);
    return bad == 0 ? 0 : 1;
}
