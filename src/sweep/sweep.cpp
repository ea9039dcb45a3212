#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <map>
#include <thread>
#include <tuple>

namespace mip::sweep {

namespace {

JobResult run_one(const JobSpec& spec) {
    try {
        return spec.run();
    } catch (const std::exception& e) {
        JobResult r;
        r.ok = false;
        r.error = e.what();
        return r;
    } catch (...) {
        JobResult r;
        r.ok = false;
        r.error = "unknown exception";
        return r;
    }
}

}  // namespace

std::size_t SweepOutcome::failures() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const JobResult& r) { return !r.ok; }));
}

bool SweepOutcome::same_artifacts(const SweepOutcome& other) const {
    if (results.size() != other.results.size()) return false;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].metrics.dump() != other.results[i].metrics.dump()) return false;
    }
    return report("", "").dump() == other.report("", "").dump();
}

SweepRunner::SweepRunner(SweepConfig config) : config_(config) {}

SweepOutcome SweepRunner::run(std::vector<JobSpec> jobs) const {
    SweepOutcome out;
    out.results.resize(jobs.size());
    const int want = std::max(1, config_.jobs);
    out.jobs_used = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(want), std::max<std::size_t>(jobs.size(), 1)));

    const auto wall_start = std::chrono::steady_clock::now();
    if (out.jobs_used <= 1) {
        // Reference execution: everything inline, in submission order.
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            out.results[i] = run_one(jobs[i]);
        }
    } else {
        // Work-stealing by shared index: each worker claims the next
        // unstarted job. Claim order affects only wall-clock — every job
        // is self-contained, and results land in their spec's slot.
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(out.jobs_used));
        for (int w = 0; w < out.jobs_used; ++w) {
            workers.emplace_back([&jobs, &out, &next] {
                for (;;) {
                    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= jobs.size()) return;
                    out.results[i] = run_one(jobs[i]);
                }
            });
        }
        for (std::thread& t : workers) t.join();
    }
    const auto wall_end = std::chrono::steady_clock::now();
    out.wall_ms =
        std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
    out.specs = std::move(jobs);
    return out;
}

namespace {

/// Histogram aggregation state keyed by (node, layer, name).
struct HistAgg {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::map<double, std::uint64_t> buckets;  ///< le -> summed cumulative count
};

void aggregate_metrics(const obs::JsonValue& doc,
                       std::map<std::tuple<std::string, std::string, std::string>, HistAgg>& hists) {
    if (!doc.is_object() || !doc.contains("metrics") || !doc.at("metrics").is_array()) {
        return;
    }
    for (const obs::JsonValue& m : doc.at("metrics").as_array()) {
        if (!m.is_object() || !m.contains("kind") || !m.at("kind").is_string() ||
            m.at("kind").as_string() != "histogram") {
            continue;
        }
        if (!m.contains("node") || !m.contains("layer") || !m.contains("name") ||
            !m.contains("count") || !m.at("count").is_number()) {
            continue;
        }
        HistAgg& agg = hists[{m.at("node").as_string(), m.at("layer").as_string(),
                              m.at("name").as_string()}];
        const double count = m.at("count").as_number();
        agg.count += static_cast<std::uint64_t>(count);
        if (m.contains("sum") && m.at("sum").is_number()) {
            agg.sum += m.at("sum").as_number();
        }
        if (count > 0) {
            if (m.contains("min") && m.at("min").is_number()) {
                agg.min = std::min(agg.min, m.at("min").as_number());
            }
            if (m.contains("max") && m.at("max").is_number()) {
                agg.max = std::max(agg.max, m.at("max").as_number());
            }
        }
        if (m.contains("buckets") && m.at("buckets").is_array()) {
            for (const obs::JsonValue& b : m.at("buckets").as_array()) {
                if (!b.is_object() || !b.contains("le") || !b.at("le").is_number() ||
                    !b.contains("count") || !b.at("count").is_number()) {
                    continue;
                }
                agg.buckets[b.at("le").as_number()] +=
                    static_cast<std::uint64_t>(b.at("count").as_number());
            }
        }
    }
}

}  // namespace

obs::JsonValue SweepOutcome::report(const std::string& bench,
                                    const std::string& label) const {
    // Sort job rows by id — never by completion (or even submission)
    // order — so the report is stable across thread counts and sweep
    // authors are free to submit jobs in any order.
    std::vector<std::size_t> order(specs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
        return specs[a].id != specs[b].id ? specs[a].id < specs[b].id
                                          : specs[a].label < specs[b].label;
    });

    obs::JsonValue::Array rows;
    std::map<std::tuple<std::string, std::string, std::string>, HistAgg> hists;
    std::uint64_t decision_count = 0;
    std::uint64_t failed = 0;
    for (const std::size_t i : order) {
        const JobSpec& spec = specs[i];
        const JobResult& r = results[i];
        obs::JsonValue::Object row = r.report;  // job scalars first...
        row["id"] = spec.id;                    // ...engine fields authoritative
        row["label"] = spec.label;
        row["ok"] = r.ok;
        if (!r.ok) {
            row["error"] = r.error;
            ++failed;
        }
        rows.emplace_back(std::move(row));
        aggregate_metrics(r.metrics, hists);
        decision_count += r.decision_count;
    }

    obs::JsonValue::Array hist_rows;
    for (const auto& [key, agg] : hists) {
        obs::JsonValue::Object h;
        h["node"] = std::get<0>(key);
        h["layer"] = std::get<1>(key);
        h["name"] = std::get<2>(key);
        h["count"] = agg.count;
        h["sum"] = agg.sum;
        if (agg.count > 0) {
            h["min"] = agg.min;
            h["max"] = agg.max;
            h["mean"] = agg.sum / static_cast<double>(agg.count);
        }
        obs::JsonValue::Array buckets;
        for (const auto& [le, count] : agg.buckets) {
            obs::JsonValue::Object b;
            b["le"] = le;
            b["count"] = count;
            buckets.emplace_back(std::move(b));
        }
        h["buckets"] = std::move(buckets);
        hist_rows.emplace_back(std::move(h));
    }

    obs::JsonValue::Object aggregates;
    aggregates["decision_count"] = decision_count;
    aggregates["histograms"] = std::move(hist_rows);

    obs::JsonValue::Object doc;
    doc["schema_version"] = 1;
    doc["kind"] = "sweep";
    doc["bench"] = bench;
    doc["label"] = label;
    doc["jobs_total"] = static_cast<std::uint64_t>(specs.size());
    doc["jobs_failed"] = failed;
    doc["jobs"] = std::move(rows);
    doc["aggregates"] = std::move(aggregates);
    return obs::JsonValue(std::move(doc));
}

namespace {

void require(std::vector<std::string>& problems, bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
}

}  // namespace

std::vector<std::string> validate_sweep_document(const obs::JsonValue& doc) {
    std::vector<std::string> problems;
    if (!doc.is_object()) {
        problems.push_back("document is not a JSON object");
        return problems;
    }
    require(problems,
            doc.contains("schema_version") && doc.at("schema_version").is_number() &&
                doc.at("schema_version").as_number() == 1,
            "schema_version must be the number 1");
    require(problems,
            doc.contains("kind") && doc.at("kind").is_string() &&
                doc.at("kind").as_string() == "sweep",
            "kind must be \"sweep\"");
    for (const char* key : {"bench", "label"}) {
        require(problems, doc.contains(key) && doc.at(key).is_string(),
                std::string(key) + " must be a string");
    }
    if (!doc.contains("jobs") || !doc.at("jobs").is_array()) {
        problems.push_back("jobs must be an array");
        return problems;
    }
    const auto& jobs = doc.at("jobs").as_array();
    require(problems,
            doc.contains("jobs_total") && doc.at("jobs_total").is_number() &&
                doc.at("jobs_total").as_number() ==
                    static_cast<double>(jobs.size()),
            "jobs_total must equal the length of jobs");

    double prev_id = -1.0;
    std::uint64_t failed = 0;
    std::size_t i = 0;
    for (const obs::JsonValue& row : jobs) {
        const std::string where = "jobs[" + std::to_string(i++) + "]";
        if (!row.is_object()) {
            problems.push_back(where + " is not an object");
            continue;
        }
        if (!row.contains("id") || !row.at("id").is_number()) {
            problems.push_back(where + ".id must be a number");
            continue;
        }
        const double id = row.at("id").as_number();
        require(problems, id > prev_id,
                where + ": job ids must be strictly increasing (sorted by id)");
        prev_id = id;
        require(problems, row.contains("label") && row.at("label").is_string(),
                where + ".label must be a string");
        if (!row.contains("ok") || !row.at("ok").is_bool()) {
            problems.push_back(where + ".ok must be a boolean");
            continue;
        }
        if (!row.at("ok").as_bool()) ++failed;
    }
    require(problems,
            doc.contains("jobs_failed") && doc.at("jobs_failed").is_number() &&
                doc.at("jobs_failed").as_number() == static_cast<double>(failed),
            "jobs_failed must equal the number of rows with ok=false");

    if (!doc.contains("aggregates") || !doc.at("aggregates").is_object()) {
        problems.push_back("aggregates must be an object");
        return problems;
    }
    const obs::JsonValue& agg = doc.at("aggregates");
    require(problems,
            agg.contains("decision_count") && agg.at("decision_count").is_number() &&
                agg.at("decision_count").as_number() >= 0,
            "aggregates.decision_count must be a non-negative number");
    if (!agg.contains("histograms") || !agg.at("histograms").is_array()) {
        problems.push_back("aggregates.histograms must be an array");
        return problems;
    }
    std::size_t j = 0;
    for (const obs::JsonValue& h : agg.at("histograms").as_array()) {
        const std::string where = "aggregates.histograms[" + std::to_string(j++) + "]";
        if (!h.is_object()) {
            problems.push_back(where + " is not an object");
            continue;
        }
        for (const char* key : {"node", "layer", "name"}) {
            require(problems, h.contains(key) && h.at(key).is_string(),
                    where + "." + key + " must be a string");
        }
        for (const char* key : {"count", "sum"}) {
            require(problems, h.contains(key) && h.at(key).is_number(),
                    where + "." + key + " must be a number");
        }
        if (!h.contains("buckets") || !h.at("buckets").is_array()) {
            problems.push_back(where + ".buckets must be an array");
            continue;
        }
        double prev_le = -std::numeric_limits<double>::infinity();
        std::size_t k = 0;
        for (const obs::JsonValue& b : h.at("buckets").as_array()) {
            const std::string bwhere = where + ".buckets[" + std::to_string(k++) + "]";
            if (!b.is_object() || !b.contains("le") || !b.at("le").is_number() ||
                !b.contains("count") || !b.at("count").is_number()) {
                problems.push_back(bwhere + " must be {le: number, count: number}");
                continue;
            }
            require(problems, b.at("le").as_number() > prev_le,
                    bwhere + ": bucket bounds must be strictly increasing");
            prev_le = b.at("le").as_number();
        }
    }
    return problems;
}

}  // namespace mip::sweep
