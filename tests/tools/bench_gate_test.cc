// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The CI performance-regression gate (ISSUE: profiling and attribution):
// a synthetic 20% throughput drop must fail a 10%-tolerance gate, a
// uniform machine-wide slowdown must pass in normalized mode, vanished
// benchmarks always fail, and profile documents gate on absolute
// share-point growth.
#include "obs/bench_gate.h"

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace lpsgd {
namespace tools {
namespace {

obs::JsonValue ParseOrDie(const std::string& json) {
  auto doc = obs::JsonValue::Parse(json);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return doc.ok() ? *std::move(doc) : obs::JsonValue();
}

// google-benchmark shaped document; scores are name -> items_per_second.
obs::JsonValue BenchDoc(double ref, double encode, double decode) {
  std::ostringstream json;
  json << R"({"benchmarks": [)"
       << R"({"name": "BM_Ref/1024", "run_type": "iteration",)"
       << R"( "items_per_second": )" << ref << "},"
       << R"({"name": "BM_Encode/1024", "run_type": "iteration",)"
       << R"( "items_per_second": )" << encode << "},"
       << R"({"name": "BM_Encode/1024_mean", "run_type": "aggregate",)"
       << R"( "items_per_second": 1.0},)"
       << R"({"name": "BM_Decode/1024", "run_type": "iteration",)"
       << R"( "items_per_second": )" << decode << "}]}";
  return ParseOrDie(json.str());
}

obs::JsonValue ProfileDoc(double forward, double encode, double wire) {
  std::ostringstream json;
  json << R"({"kind": "profile", "totals": {"phases": {)"
       << R"("forward": {"wall_share": )" << forward << "},"
       << R"("encode": {"wall_share": )" << encode << "},"
       << R"("wire": {"wall_share": )" << wire << "}}}}";
  return ParseOrDie(json.str());
}

TEST(BenchGateTest, ScoresSkipAggregateRows) {
  auto scores = BenchmarkScores(BenchDoc(100.0, 50.0, 25.0));
  ASSERT_TRUE(scores.ok()) << scores.status();
  EXPECT_EQ(scores->size(), 3u);
  EXPECT_DOUBLE_EQ(scores->at("BM_Encode/1024"), 50.0);
  EXPECT_EQ(scores->count("BM_Encode/1024_mean"), 0u);
}

TEST(BenchGateTest, RepeatedRowsScoreTheirMedian) {
  // --benchmark_repetitions emits one iteration row per repetition under
  // the same name. The last row (here a preempted 10.0) must not decide.
  const obs::JsonValue doc = ParseOrDie(
      R"({"benchmarks": [
        {"name": "BM_Odd/64", "run_type": "iteration", "items_per_second": 52.0},
        {"name": "BM_Odd/64", "run_type": "iteration", "items_per_second": 49.0},
        {"name": "BM_Odd/64", "run_type": "iteration", "items_per_second": 50.0},
        {"name": "BM_Odd/64", "run_type": "iteration", "items_per_second": 51.0},
        {"name": "BM_Odd/64", "run_type": "iteration", "items_per_second": 10.0},
        {"name": "BM_Odd/64_median", "run_type": "aggregate",
         "items_per_second": 50.0},
        {"name": "BM_Even/64", "run_type": "iteration", "items_per_second": 30.0},
        {"name": "BM_Even/64", "run_type": "iteration", "items_per_second": 10.0},
        {"name": "BM_Even/64", "run_type": "iteration", "items_per_second": 20.0},
        {"name": "BM_Even/64", "run_type": "iteration", "items_per_second": 40.0}
      ]})");
  auto scores = BenchmarkScores(doc);
  ASSERT_TRUE(scores.ok()) << scores.status();
  EXPECT_EQ(scores->size(), 2u);
  EXPECT_DOUBLE_EQ(scores->at("BM_Odd/64"), 50.0);
  EXPECT_DOUBLE_EQ(scores->at("BM_Even/64"), 25.0);

  // Against a baseline of 50, the median passes a 10% gate where the last
  // row alone (10.0, -80%) would fail it.
  const obs::JsonValue baseline = ParseOrDie(
      R"({"benchmarks": [
        {"name": "BM_Odd/64", "run_type": "iteration", "items_per_second": 50.0}
      ]})");
  BenchGateOptions options;
  options.tolerance = 0.10;
  auto odd_only = ParseOrDie(
      R"({"benchmarks": [
        {"name": "BM_Odd/64", "run_type": "iteration", "items_per_second": 52.0},
        {"name": "BM_Odd/64", "run_type": "iteration", "items_per_second": 49.0},
        {"name": "BM_Odd/64", "run_type": "iteration", "items_per_second": 10.0}
      ]})");
  auto result = CompareBenchmarks(baseline, odd_only, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ok());
}

TEST(BenchGateTest, WithinTolerancePasses) {
  BenchGateOptions options;
  options.tolerance = 0.25;
  auto result = CompareBenchmarks(BenchDoc(100.0, 50.0, 25.0),
                                  BenchDoc(95.0, 47.0, 24.0), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->kind, "benchmark");
  EXPECT_EQ(result->regressions(), 0);
  EXPECT_EQ(result->findings.size(), 3u);
}

// The acceptance scenario: a synthetic 20% drop against a 10% gate.
TEST(BenchGateTest, TwentyPercentRegressionFailsTenPercentGate) {
  BenchGateOptions options;
  options.tolerance = 0.10;
  auto result = CompareBenchmarks(BenchDoc(100.0, 50.0, 25.0),
                                  BenchDoc(100.0, 40.0, 25.0), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(result->regressions(), 1);
  for (const BenchGateFinding& finding : result->findings) {
    if (finding.name != "BM_Encode/1024") continue;
    EXPECT_TRUE(finding.regressed);
    EXPECT_NEAR(finding.change, -0.2, 1e-12);
  }
}

// A uniformly half-speed machine changes every absolute score but no
// relative one: normalized mode passes where absolute mode fails.
TEST(BenchGateTest, NormalizedModeSurvivesUniformMachineSlowdown) {
  const obs::JsonValue baseline = BenchDoc(100.0, 50.0, 25.0);
  const obs::JsonValue candidate = BenchDoc(50.0, 25.0, 12.5);

  BenchGateOptions absolute;
  absolute.tolerance = 0.10;
  auto raw = CompareBenchmarks(baseline, candidate, absolute);
  ASSERT_TRUE(raw.ok());
  EXPECT_FALSE(raw->ok()) << "absolute mode should see the 2x slowdown";

  BenchGateOptions normalized = absolute;
  normalized.reference = "BM_Ref/1024";
  auto relative = CompareBenchmarks(baseline, candidate, normalized);
  ASSERT_TRUE(relative.ok()) << relative.status();
  EXPECT_TRUE(relative->normalized);
  EXPECT_TRUE(relative->ok())
      << "normalized mode must ignore machine-wide speed changes";
}

TEST(BenchGateTest, NormalizedModeStillCatchesRelativeRegression) {
  BenchGateOptions options;
  options.tolerance = 0.10;
  options.reference = "BM_Ref/1024";
  // Machine is 2x slower AND encode lost another 2x relative to it.
  auto result = CompareBenchmarks(BenchDoc(100.0, 50.0, 25.0),
                                  BenchDoc(50.0, 12.5, 12.5), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->regressions(), 1);
  EXPECT_FALSE(result->ok());
}

TEST(BenchGateTest, MissingReferenceIsAnError) {
  BenchGateOptions options;
  options.reference = "BM_DoesNotExist/1";
  auto result = CompareBenchmarks(BenchDoc(100.0, 50.0, 25.0),
                                  BenchDoc(100.0, 50.0, 25.0), options);
  EXPECT_FALSE(result.ok());
}

TEST(BenchGateTest, VanishedBenchmarkFailsTheGate) {
  const obs::JsonValue baseline = BenchDoc(100.0, 50.0, 25.0);
  const obs::JsonValue candidate = ParseOrDie(
      R"({"benchmarks": [{"name": "BM_Ref/1024", "run_type": "iteration",
          "items_per_second": 100.0}]})");
  auto result = CompareBenchmarks(baseline, candidate, BenchGateOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(result->regressions(), 0);
  ASSERT_EQ(result->missing.size(), 2u);
}

TEST(BenchGateTest, ProfileSharesGateOnAbsoluteGrowth) {
  BenchGateOptions options;
  options.share_tolerance = 0.10;
  // encode grows from 30% to 45% of the step: 15 share points > 10.
  auto result = CompareBenchmarks(ProfileDoc(0.6, 0.3, 0.1),
                                  ProfileDoc(0.45, 0.45, 0.1), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->kind, "profile");
  EXPECT_EQ(result->regressions(), 1);
  for (const BenchGateFinding& finding : result->findings) {
    EXPECT_EQ(finding.regressed, finding.name == "encode");
  }

  // Within tolerance: 5 share points pass.
  auto small = CompareBenchmarks(ProfileDoc(0.6, 0.3, 0.1),
                                 ProfileDoc(0.55, 0.35, 0.1), options);
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small->ok());
}

TEST(BenchGateTest, PhaseAbsentFromCandidateIsNotAFailure) {
  // No retry time this run: the phase vanishes from the candidate, which
  // is an improvement, not a coverage hole.
  const obs::JsonValue baseline = ParseOrDie(
      R"({"kind": "profile", "totals": {"phases": {
          "forward": {"wall_share": 0.9}, "retry": {"wall_share": 0.1}}}})");
  auto result = CompareBenchmarks(baseline, ProfileDoc(0.9, 0.05, 0.05),
                                  BenchGateOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ok());
  EXPECT_TRUE(result->missing.empty());
}

TEST(BenchGateTest, MismatchedDocumentKindsAreRejected) {
  auto result = CompareBenchmarks(BenchDoc(100.0, 50.0, 25.0),
                                  ProfileDoc(0.6, 0.3, 0.1),
                                  BenchGateOptions{});
  EXPECT_FALSE(result.ok());
}

TEST(BenchGateTest, JsonReportRoundTrips) {
  BenchGateOptions options;
  options.tolerance = 0.10;
  auto result = CompareBenchmarks(BenchDoc(100.0, 50.0, 25.0),
                                  BenchDoc(100.0, 40.0, 25.0), options);
  ASSERT_TRUE(result.ok());
  auto parsed = obs::JsonValue::Parse(result->ToJson().Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->At("kind").AsString(), "bench_gate");
  EXPECT_EQ(parsed->At("compared_kind").AsString(), "benchmark");
  EXPECT_EQ(parsed->At("regressions").AsInt(), 1);
  EXPECT_FALSE(parsed->At("ok").AsBool());
  EXPECT_EQ(parsed->At("findings").AsArray().size(), 3u);

  std::ostringstream table;
  result->PrintTable(table);
  EXPECT_NE(table.str().find("REGRESSED"), std::string::npos);
}

TEST(BenchGateTest, FileFrontEndComparesOnDisk) {
  const std::string dir = ::testing::TempDir();
  const std::string baseline_path = dir + "/bench_gate_baseline.json";
  const std::string candidate_path = dir + "/bench_gate_candidate.json";
  {
    std::ofstream baseline(baseline_path);
    baseline << BenchDoc(100.0, 50.0, 25.0).Dump(2);
    std::ofstream candidate(candidate_path);
    candidate << BenchDoc(98.0, 49.0, 24.5).Dump(2);
  }
  auto result =
      CompareBenchmarkFiles(baseline_path, candidate_path, BenchGateOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ok());

  EXPECT_FALSE(
      CompareBenchmarkFiles(dir + "/nope.json", candidate_path,
                            BenchGateOptions{})
          .ok());
}

}  // namespace
}  // namespace tools
}  // namespace lpsgd
