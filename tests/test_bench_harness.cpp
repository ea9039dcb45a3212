// The sweep parts of bench/harness.h every sweep bench shares: the
// BENCH_perf.json block writer (merge, fresh document, refusal to
// overwrite a file it cannot parse) and the cross-`--jobs` check feeding
// the verdict's exit status.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness.h"

using namespace mip;

namespace {

bench::HarnessOptions options(bool smoke, int jobs = 1) {
    bench::HarnessOptions opt;
    opt.smoke = smoke;
    opt.jobs = jobs;
    return opt;
}

class PerfBlockTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("m4x4_harness_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "perf.json").string();
        ::setenv("M4X4_BENCH_PERF_OUT", path_.c_str(), 1);
    }
    void TearDown() override {
        ::unsetenv("M4X4_BENCH_PERF_OUT");
        std::filesystem::remove_all(dir_);
    }

    void write(const std::string& text) const { std::ofstream(path_) << text; }
    std::string read() const {
        std::ostringstream buf;
        buf << std::ifstream(path_).rdbuf();
        return buf.str();
    }

    static obs::JsonValue::Object block(double rate) {
        return obs::JsonValue::Object{{"events_per_sec", rate}};
    }

    std::filesystem::path dir_;
    std::string path_;
    const bench::HarnessOptions smoke_ = options(/*smoke=*/true);
};

TEST_F(PerfBlockTest, MissingFileStartsAFreshDocument) {
    bench::merge_perf_block(smoke_, "city", block(5.0));
    const obs::JsonValue doc = obs::JsonValue::parse(read());
    EXPECT_EQ(doc.at("kind").as_string(), "bench_perf");
    EXPECT_EQ(doc.at("schema_version").as_number(), 3);
    EXPECT_TRUE(doc.at("smoke").as_bool());
    EXPECT_TRUE(doc.at("scenarios").as_array().empty());
    EXPECT_EQ(doc.at("city").at("events_per_sec").as_number(), 5.0);
}

TEST_F(PerfBlockTest, MergeKeepsEveryOtherBlock) {
    write(R"({"kind":"bench_perf","smoke":false,"scenarios":[{"name":"small"}],)"
          R"("city":{"events_per_sec":1}})");
    bench::merge_perf_block(smoke_, "cc", block(7.0));
    const obs::JsonValue doc = obs::JsonValue::parse(read());
    EXPECT_FALSE(doc.at("smoke").as_bool());
    EXPECT_EQ(doc.at("scenarios").as_array().size(), 1u);
    EXPECT_EQ(doc.at("city").at("events_per_sec").as_number(), 1.0);
    EXPECT_EQ(doc.at("cc").at("events_per_sec").as_number(), 7.0);
}

TEST_F(PerfBlockTest, SmokeWithoutOverrideWritesNothing) {
    ::unsetenv("M4X4_BENCH_PERF_OUT");
    EXPECT_EQ(bench::perf_report_path(smoke_), "");
    EXPECT_EQ(bench::perf_report_path(options(false)), "BENCH_perf.json");
}

// A file that does not parse holds blocks other benches wrote (bench_perf's
// scenarios): the writer must refuse and fail, never start over.
TEST_F(PerfBlockTest, MalformedFileExitsNonZeroAndIsLeftAlone) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string malformed = R"({"scenarios": [{"name": "small"},)";
    write(malformed);
    EXPECT_EXIT(bench::merge_perf_block(smoke_, "city", block(5.0)),
                ::testing::ExitedWithCode(1), "perf.json");
    EXPECT_EQ(read(), malformed);
}

/// A sweep whose jobs report how many jobs ran before them in the process:
/// the re-run can never reproduce the reference run.
std::vector<sweep::JobSpec> drifting_jobs(const bench::HarnessOptions&) {
    static std::atomic<int> calls{0};
    std::vector<sweep::JobSpec> jobs;
    for (std::uint64_t id = 0; id < 3; ++id) {
        jobs.push_back({id, "job" + std::to_string(id), [] {
                            sweep::JobResult r;
                            r.report["call"] = calls.fetch_add(1);
                            return r;
                        }});
    }
    return jobs;
}

std::vector<sweep::JobSpec> steady_jobs(const bench::HarnessOptions&) {
    std::vector<sweep::JobSpec> jobs;
    for (std::uint64_t id = 0; id < 3; ++id) {
        jobs.push_back({id, "job" + std::to_string(id), [id] {
                            sweep::JobResult r;
                            r.report["square"] = id * id;
                            return r;
                        }});
    }
    return jobs;
}

TEST(RunSweepTest, IdenticalReRunPassesTheVerdict) {
    const bench::SweepRun run = bench::run_sweep(options(false, 3), "steady", steady_jobs);
    EXPECT_TRUE(run.identical);
    EXPECT_EQ(run.compare_jobs, 3);
    EXPECT_EQ(run.outcome.jobs_used, 1);
    bench::Verdict verdict;
    verdict.check(run.identical, "differ");
    EXPECT_EQ(verdict.exit_status("ok"), 0);
}

TEST(RunSweepTest, DivergentReRunFailsTheVerdict) {
    const bench::SweepRun run = bench::run_sweep(options(false), "drifting", drifting_jobs);
    EXPECT_FALSE(run.identical);
    EXPECT_EQ(run.compare_jobs, 2);

    bench::Verdict verdict;
    ::testing::internal::CaptureStdout();
    verdict.check(true, "not printed");
    verdict.check(run.identical, "sweep artifacts differ between jobs=1 and jobs=%d.",
                  run.compare_jobs);
    const int status = verdict.exit_status("all good");
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(status, 1);
    EXPECT_NE(out.find("FAIL: sweep artifacts differ between jobs=1 and jobs=2."),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("not printed"), std::string::npos);
    EXPECT_EQ(out.find("all good"), std::string::npos);
}

}  // namespace
