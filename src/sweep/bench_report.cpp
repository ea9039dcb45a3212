#include "sweep/bench_report.h"

namespace mip::sweep {

namespace {

void require(std::vector<std::string>& problems, bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
}

/// Reps recorded for one run object; 1 when absent (the pre-v2 format
/// measured once and did not say so).
double reps_of(const obs::JsonValue& run) {
    if (run.is_object() && run.contains("reps") && run.at("reps").is_number()) {
        return run.at("reps").as_number();
    }
    return 1.0;
}

void check_run(std::vector<std::string>& problems, const obs::JsonValue& sc,
               const char* key, const std::string& where) {
    if (!sc.contains(key) || !sc.at(key).is_object()) {
        problems.push_back(where + "." + key + " must be an object");
        return;
    }
    const obs::JsonValue& run = sc.at(key);
    for (const char* field : {"events", "wall_ms", "events_per_sec", "sim_seconds"}) {
        require(problems, run.contains(field) && run.at(field).is_number(),
                where + "." + key + "." + field + " must be a number");
    }
}

}  // namespace

std::vector<std::string> validate_bench_perf_document(const obs::JsonValue& doc) {
    std::vector<std::string> problems;
    if (!doc.is_object()) {
        problems.push_back("document is not a JSON object");
        return problems;
    }
    require(problems,
            doc.contains("kind") && doc.at("kind").is_string() &&
                doc.at("kind").as_string() == "bench_perf",
            "kind must be \"bench_perf\"");
    require(problems,
            doc.contains("schema_version") && doc.at("schema_version").is_number(),
            "schema_version must be a number");
    // Schema v3 (ISSUE 7) adds the tracing-overhead block: every scenario
    // carries {untraced, traced, sampled} runs plus the two percentages,
    // and the city block carries an observability section. Older
    // documents (v2) stay valid — the extra requirements only kick in
    // when the document claims the newer version.
    const double schema_version =
        doc.contains("schema_version") && doc.at("schema_version").is_number()
            ? doc.at("schema_version").as_number()
            : 0.0;
    // Wall-clock figures are meaningless without knowing how many cores
    // the box had (the EXPERIMENTS sweep-scaling caveat): every report
    // must say what it ran on.
    require(problems,
            doc.contains("hardware_concurrency") &&
                doc.at("hardware_concurrency").is_number() &&
                doc.at("hardware_concurrency").as_number() >= 1,
            "hardware_concurrency must be a number >= 1");
    if (!doc.contains("scenarios") || !doc.at("scenarios").is_array()) {
        problems.push_back("scenarios must be an array");
        return problems;
    }
    std::size_t i = 0;
    for (const obs::JsonValue& sc : doc.at("scenarios").as_array()) {
        const std::string where = "scenarios[" + std::to_string(i++) + "]";
        if (!sc.is_object()) {
            problems.push_back(where + " is not an object");
            continue;
        }
        require(problems, sc.contains("name") && sc.at("name").is_string(),
                where + ".name must be a string");
        check_run(problems, sc, "baseline", where);
        check_run(problems, sc, "fault_attached", where);
        check_run(problems, sc, "instrumented", where);

        // The point of schema v2: an overhead percentage is a *difference
        // of medians* and is meaningless from one sample of each side.
        const auto overhead_needs = [&](const char* pct_field, const char* run_a,
                                        const char* run_b) {
            if (!sc.contains(pct_field)) return;
            require(problems, sc.at(pct_field).is_number(),
                    where + "." + pct_field + " must be a number");
            const bool enough = sc.contains(run_a) && sc.contains(run_b) &&
                                reps_of(sc.at(run_a)) >= 2 && reps_of(sc.at(run_b)) >= 2;
            require(problems, enough,
                    where + "." + pct_field +
                        ": overhead fields require >= 2 reps on both runs "
                        "(single-sample wall-clock deltas are noise)");
        };
        overhead_needs("fault_attached_overhead_pct", "baseline", "fault_attached");
        overhead_needs("instrumentation_overhead_pct", "baseline", "instrumented");

        if (schema_version >= 3.0) {
            if (sc.contains("overhead") && sc.at("overhead").is_object()) {
                const obs::JsonValue& oh = sc.at("overhead");
                const std::string owhere = where + ".overhead";
                check_run(problems, oh, "untraced", owhere);
                check_run(problems, oh, "traced", owhere);
                check_run(problems, oh, "sampled", owhere);
                for (const char* pct : {"traced_overhead_pct", "sampled_overhead_pct"}) {
                    require(problems, oh.contains(pct) && oh.at(pct).is_number(),
                            owhere + "." + pct + " must be a number");
                }
                // Same medians rule as v2: a percentage from one sample of
                // each side is noise, not a measurement.
                const bool enough =
                    oh.contains("untraced") && oh.contains("traced") &&
                    oh.contains("sampled") && reps_of(oh.at("untraced")) >= 2 &&
                    reps_of(oh.at("traced")) >= 2 && reps_of(oh.at("sampled")) >= 2;
                require(problems, enough,
                        owhere + ": overhead percentages require >= 2 reps on "
                                 "untraced, traced and sampled runs");
                if (oh.contains("sampled") && oh.at("sampled").is_object()) {
                    require(problems,
                            oh.at("sampled").contains("sample_rate") &&
                                oh.at("sampled").at("sample_rate").is_number(),
                            owhere + ".sampled.sample_rate must be a number");
                }
            } else {
                problems.push_back(where +
                                   ".overhead must be an object (schema_version >= 3)");
            }
        }
    }

    if (doc.contains("sweep_scaling")) {
        const obs::JsonValue& sw = doc.at("sweep_scaling");
        if (!sw.is_object()) {
            problems.push_back("sweep_scaling must be an object");
            return problems;
        }
        require(problems, sw.contains("seeds") && sw.at("seeds").is_number(),
                "sweep_scaling.seeds must be a number");
        require(problems,
                sw.contains("serial_wall_ms") && sw.at("serial_wall_ms").is_number(),
                "sweep_scaling.serial_wall_ms must be a number");
        require(problems,
                sw.contains("artifacts_identical") &&
                    sw.at("artifacts_identical").is_bool(),
                "sweep_scaling.artifacts_identical must be a boolean");
        if (sw.contains("parallel") && sw.at("parallel").is_array()) {
            std::size_t j = 0;
            for (const obs::JsonValue& p : sw.at("parallel").as_array()) {
                const std::string pwhere = "sweep_scaling.parallel[" + std::to_string(j++) + "]";
                require(problems,
                        p.is_object() && p.contains("jobs") && p.at("jobs").is_number() &&
                            p.contains("wall_ms") && p.at("wall_ms").is_number() &&
                            p.contains("speedup") && p.at("speedup").is_number(),
                        pwhere + " must be {jobs, wall_ms, speedup}");
            }
        } else {
            problems.push_back("sweep_scaling.parallel must be an array");
        }
    }

    // bench_city's block (merged into the same document): the city sweep
    // summary, the find_link before/after and the observability overhead.
    if (doc.contains("city")) {
        const obs::JsonValue& city = doc.at("city");
        if (!city.is_object()) {
            problems.push_back("city must be an object");
            return problems;
        }
        for (const char* field :
             {"seeds", "hosts", "cells", "sim_seconds", "events", "events_per_sec"}) {
            require(problems, city.contains(field) && city.at(field).is_number(),
                    std::string("city.") + field + " must be a number");
        }
        require(problems,
                city.contains("artifacts_identical") &&
                    city.at("artifacts_identical").is_bool(),
                "city.artifacts_identical must be a boolean");
        if (city.contains("find_link") && city.at("find_link").is_object()) {
            const obs::JsonValue& fl = city.at("find_link");
            for (const char* field : {"links", "indexed_ns", "linear_ns", "speedup"}) {
                require(problems, fl.contains(field) && fl.at(field).is_number(),
                        std::string("city.find_link.") + field + " must be a number");
            }
        } else {
            problems.push_back("city.find_link must be an object");
        }
        if (schema_version >= 3.0) {
            if (city.contains("observability") && city.at("observability").is_object()) {
                const obs::JsonValue& ob = city.at("observability");
                for (const char* field : {"sampler_off_wall_ms", "sampler_on_wall_ms",
                                          "overhead_pct", "metrics_interval_s"}) {
                    require(problems, ob.contains(field) && ob.at(field).is_number(),
                            std::string("city.observability.") + field +
                                " must be a number");
                }
                require(problems,
                        ob.contains("reps") && ob.at("reps").is_number() &&
                            ob.at("reps").as_number() >= 2,
                        "city.observability.overhead_pct requires reps >= 2");
            } else {
                problems.push_back(
                    "city.observability must be an object (schema_version >= 3)");
            }
        }
    }
    return problems;
}

}  // namespace mip::sweep
