// Baseline / regression comparison tests (bench/compare.hpp): JSON-lines
// loading, metric flattening + classification, update→check round trip, and
// the exact-vs-time failure semantics the CI release-smoke job relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench/compare.hpp"
#include "bench/harness.hpp"
#include "tests/json_checker.hpp"

namespace eccheck {
namespace {

namespace fs = std::filesystem;
using namespace bench;

class BenchCompareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("eccheck_bc_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string write_jsonl(const std::string& name, const std::string& text) {
    const std::string path = (dir_ / name).string();
    std::ofstream f(path);
    f << text;
    return path;
  }

  fs::path dir_;
};

TEST(MetricClassification, ExactVsTime) {
  EXPECT_TRUE(metric_is_exact("network_bytes"));
  EXPECT_TRUE(metric_is_exact("stats.net.p2p_data.bytes"));
  EXPECT_TRUE(metric_is_exact("stats.cpu.code.count"));
  EXPECT_TRUE(metric_is_exact("success"));
  EXPECT_FALSE(metric_is_exact("total_time_s"));
  EXPECT_FALSE(metric_is_exact("breakdown.step3_encode_pipeline"));
  EXPECT_FALSE(metric_is_exact("bytes_per_second"));  // a rate, not a count
  EXPECT_FALSE(metric_is_exact("real_time_s"));
}

TEST_F(BenchCompareTest, LoadJsonlFlattensNestedReports) {
  const std::string path = write_jsonl(
      "run.jsonl",
      R"({"bench":"b","label":"l","report":{"total_time_s":1.5,"success":true,)"
      R"("breakdown":{"step1":0.25},"stats":{"net.x.bytes":128}}})"
      "\n"
      "not json at all\n"  // must be skipped, not fatal
      R"({"bench":"b","label":"l2","report":{"total_time_s":2.0}})"
      "\n");
  BenchMap data;
  ASSERT_TRUE(load_jsonl(path, data));
  ASSERT_EQ(data.size(), 1u);
  ASSERT_EQ(data["b"].size(), 2u);
  const MetricMap& m = data["b"]["l"];
  EXPECT_DOUBLE_EQ(m.at("total_time_s"), 1.5);
  EXPECT_DOUBLE_EQ(m.at("success"), 1.0);
  EXPECT_DOUBLE_EQ(m.at("breakdown.step1"), 0.25);
  EXPECT_DOUBLE_EQ(m.at("stats.net.x.bytes"), 128.0);
}

TEST_F(BenchCompareTest, UpdateThenCheckPasses) {
  BenchMap data;
  data["fig"]["model-a"] = {{"total_time_s", 1.25},
                            {"network_bytes", 1048576.0}};
  ASSERT_TRUE(write_baselines(dir_.string(), data));

  // The baseline file itself is valid JSON.
  std::ifstream f(baseline_path(dir_.string(), "fig"));
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_TRUE(testutil::JsonChecker(ss.str()).valid()) << ss.str();

  std::vector<std::string> missing;
  BenchMap loaded = load_baselines(dir_.string(), {"fig"}, &missing);
  EXPECT_TRUE(missing.empty());
  CompareReport rep = compare(loaded, data);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.passed, 2u);
}

TEST_F(BenchCompareTest, PerturbedExactByteCounterFails) {
  BenchMap base;
  base["fig"]["model-a"] = {{"total_time_s", 1.25},
                            {"network_bytes", 1048576.0}};
  BenchMap cur = base;
  cur["fig"]["model-a"]["network_bytes"] = 1048577.0;  // off by one byte
  CompareReport rep = compare(base, cur);
  EXPECT_FALSE(rep.ok());
  ASSERT_EQ(rep.failed, 1u);
  bool found = false;
  for (const auto& row : rep.rows)
    if (row.status == CompareRow::Status::kFail) {
      EXPECT_EQ(row.metric, "network_bytes");
      found = true;
    }
  EXPECT_TRUE(found);
  // warn-only-time must NOT rescue an exact metric.
  CompareOptions warn_only;
  warn_only.warn_only_time = true;
  EXPECT_FALSE(compare(base, cur, warn_only).ok());
}

TEST_F(BenchCompareTest, TimeDriftRespectsThresholdAndWarnOnly) {
  BenchMap base;
  base["fig"]["model-a"] = {{"total_time_s", 1.0}};
  BenchMap cur;
  cur["fig"]["model-a"] = {{"total_time_s", 1.2}};

  CompareOptions opt;
  opt.time_threshold = 0.25;
  EXPECT_TRUE(compare(base, cur, opt).ok());  // 20% < 25%

  opt.time_threshold = 0.10;
  CompareReport strict = compare(base, cur, opt);
  EXPECT_FALSE(strict.ok());  // 20% > 10% → fail

  opt.warn_only_time = true;
  CompareReport lax = compare(base, cur, opt);
  EXPECT_TRUE(lax.ok());  // demoted to warning
  EXPECT_EQ(lax.warned, 1u);
}

TEST_F(BenchCompareTest, MissingMetricOrLabelFails) {
  BenchMap base;
  base["fig"]["model-a"] = {{"total_time_s", 1.0}, {"network_bytes", 10.0}};
  base["fig"]["model-b"] = {{"total_time_s", 2.0}};

  BenchMap cur;
  cur["fig"]["model-a"] = {{"total_time_s", 1.0}};  // network_bytes gone
  CompareReport rep = compare(base, cur);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.failed, 2u);  // missing metric + missing label model-b
}

TEST_F(BenchCompareTest, NewLabelsWarnButDoNotFail) {
  BenchMap base;
  base["fig"]["model-a"] = {{"total_time_s", 1.0}};
  BenchMap cur = base;
  cur["fig"]["model-new"] = {{"total_time_s", 9.9}};
  CompareReport rep = compare(base, cur);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.warned, 1u);
}

TEST_F(BenchCompareTest, BaselineRoundTripIsBitExact) {
  // json_number's max_digits10 formatting means write→load→compare is exact
  // even for awkward doubles.
  BenchMap data;
  data["b"]["l"] = {{"t", 4.9809042337804672e-07},
                    {"u", 1.0 / 3.0},
                    {"v_bytes", 502232980140.0}};
  ASSERT_TRUE(write_baselines(dir_.string(), data));
  std::vector<std::string> missing;
  BenchMap loaded = load_baselines(dir_.string(), {"b"}, &missing);
  ASSERT_TRUE(missing.empty());
  EXPECT_EQ(loaded["b"]["l"].at("t"), data["b"]["l"].at("t"));
  EXPECT_EQ(loaded["b"]["l"].at("u"), data["b"]["l"].at("u"));
  CompareReport rep = compare(loaded, data);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.failed + rep.warned, 0u);
}

}  // namespace
}  // namespace eccheck
