// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/profile.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"

namespace lpsgd {
namespace obs {
namespace {

// Enables the global profiler for one test and restores it after (the
// EndStep flight-recorder hook consults the global instances).
class ProfileGuard {
 public:
  ProfileGuard() : was_(Profiler::Global().enabled()) {
    Profiler::Global().set_enabled(true);
    Profiler::Global().Reset();
  }
  ~ProfileGuard() {
    Profiler::Global().Reset();
    Profiler::Global().set_enabled(was_);
  }

 private:
  bool was_;
};

class FlightGuard {
 public:
  FlightGuard() : was_(FlightRecorder::Global().enabled()) {
    FlightRecorder::Global().set_enabled(true);
    FlightRecorder::Global().Reset();
  }
  ~FlightGuard() {
    FlightRecorder::Global().Reset();
    FlightRecorder::Global().set_output_prefix("");
    FlightRecorder::Global().set_enabled(was_);
  }

 private:
  bool was_;
};

TEST(PhaseTimesTest, AddMergeAndTotals) {
  PhaseTimes times;
  times.Add(kPhaseEncode, 0.25);
  times.Add(kPhaseEncode, 0.25);
  times.AddVirtual(kPhaseWire, 1.5);
  EXPECT_DOUBLE_EQ(times.wall[kPhaseEncode], 0.5);
  EXPECT_EQ(times.calls[kPhaseEncode], 2);
  EXPECT_DOUBLE_EQ(times.WallTotal(), 0.5);
  EXPECT_DOUBLE_EQ(times.VirtualTotal(), 1.5);

  PhaseTimes other;
  other.Add(kPhaseDecode, 0.5);
  times.Merge(other);
  EXPECT_DOUBLE_EQ(times.WallTotal(), 1.0);
  EXPECT_EQ(times.calls[kPhaseDecode], 1);

  times.Clear();
  EXPECT_DOUBLE_EQ(times.WallTotal(), 0.0);
  EXPECT_DOUBLE_EQ(times.VirtualTotal(), 0.0);
  EXPECT_EQ(times.calls[kPhaseEncode], 0);
}

TEST(PhaseTimesTest, PhaseNamesAreStable) {
  EXPECT_STREQ(ProfilePhaseName(kPhaseForward), "forward");
  EXPECT_STREQ(ProfilePhaseName(kPhaseBackward), "backward");
  EXPECT_STREQ(ProfilePhaseName(kPhaseOptimizer), "optimizer");
  EXPECT_STREQ(ProfilePhaseName(kPhaseEncode), "encode");
  EXPECT_STREQ(ProfilePhaseName(kPhaseWire), "wire");
  EXPECT_STREQ(ProfilePhaseName(kPhaseDecode), "decode");
  EXPECT_STREQ(ProfilePhaseName(kPhaseSum), "sum");
  EXPECT_STREQ(ProfilePhaseName(kPhaseRetry), "retry");
}

TEST(TimeBreakdownTest, CoverageIsAttributedOverMeasured) {
  TimeBreakdown breakdown;
  breakdown.wall_total = 2.0;
  breakdown.phases.Add(kPhaseForward, 1.0);
  breakdown.phases.Add(kPhaseBackward, 0.98);
  EXPECT_DOUBLE_EQ(breakdown.AttributedWall(), 1.98);
  EXPECT_DOUBLE_EQ(breakdown.Coverage(), 0.99);
  // Nothing measured yet: coverage is vacuously complete, not NaN.
  EXPECT_DOUBLE_EQ(TimeBreakdown{}.Coverage(), 1.0);
}

TEST(ProfilerTest, StepsFoldIntoHistoryAndTotals) {
  Profiler profiler(/*enabled=*/true);
  for (int64_t step = 0; step < 3; ++step) {
    profiler.BeginStep(step);
    profiler.AddPhase(kPhaseForward, 0.5);
    profiler.AddVirtual(kPhaseWire, 2.0);
    profiler.EndStep(/*virtual_seconds=*/2.5);
  }

  EXPECT_EQ(profiler.steps_recorded(), 3);
  const TimeBreakdown last = profiler.LastStep();
  EXPECT_EQ(last.step, 2);
  EXPECT_DOUBLE_EQ(last.phases.wall[kPhaseForward], 0.5);
  EXPECT_GE(last.wall_total, 0.0);

  const TimeBreakdown totals = profiler.Totals();
  EXPECT_EQ(totals.steps, 3);
  EXPECT_DOUBLE_EQ(totals.phases.wall[kPhaseForward], 1.5);
  EXPECT_DOUBLE_EQ(totals.virtual_total, 7.5);

  const std::vector<TimeBreakdown> steps = profiler.Steps();
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps.front().step, 0);
  EXPECT_EQ(steps.back().step, 2);
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing) {
  Profiler profiler(/*enabled=*/false);
  profiler.BeginStep(0);
  profiler.AddPhase(kPhaseForward, 1.0);
  profiler.EndStep(1.0);
  EXPECT_EQ(profiler.steps_recorded(), 0);
  EXPECT_DOUBLE_EQ(profiler.Totals().phases.WallTotal(), 0.0);
}

TEST(ProfilerTest, AbandonedStepIsDiscardedByNextBegin) {
  Profiler profiler(/*enabled=*/true);
  profiler.BeginStep(0);
  profiler.AddPhase(kPhaseForward, 1.0);  // step 0 never ends (failed)
  profiler.BeginStep(1);
  profiler.AddPhase(kPhaseBackward, 0.25);
  profiler.EndStep(0.0);

  EXPECT_EQ(profiler.steps_recorded(), 1);
  const TimeBreakdown totals = profiler.Totals();
  EXPECT_DOUBLE_EQ(totals.phases.wall[kPhaseForward], 0.0);
  EXPECT_DOUBLE_EQ(totals.phases.wall[kPhaseBackward], 0.25);
}

TEST(ProfilerTest, JsonExportMatchesSchema) {
  Profiler profiler(/*enabled=*/true);
  profiler.BeginStep(7);
  profiler.AddPhase(kPhaseEncode, 0.125);
  profiler.AddVirtual(kPhaseWire, 3.0);
  profiler.EndStep(3.0);

  // Round-trip through the serializer: the export must stay parseable.
  auto parsed = JsonValue::Parse(profiler.ToJson().Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& root = *parsed;
  EXPECT_EQ(root.At("schema_version").AsInt(), 1);
  EXPECT_EQ(root.At("kind").AsString(), "profile");
  EXPECT_EQ(root.At("steps_recorded").AsInt(), 1);

  const JsonValue& totals = root.At("totals");
  EXPECT_TRUE(totals.Has("coverage"));
  EXPECT_TRUE(totals.Has("attributed_wall"));
  const JsonValue& phases = totals.At("phases");
  for (int p = 0; p < kNumProfilePhases; ++p) {
    ASSERT_TRUE(phases.Has(ProfilePhaseName(p))) << ProfilePhaseName(p);
    const JsonValue& entry = phases.At(ProfilePhaseName(p));
    EXPECT_TRUE(entry.Has("wall"));
    EXPECT_TRUE(entry.Has("virtual"));
    EXPECT_TRUE(entry.Has("calls"));
    EXPECT_TRUE(entry.Has("wall_share"));
  }
  EXPECT_DOUBLE_EQ(
      phases.At("encode").At("wall_share").AsDouble(), 1.0);

  const JsonValue& steps = root.At("steps");
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps.AsArray()[0].At("step").AsInt(), 7);
}

TEST(ProfilerTest, ChromeTraceLaysPhasesOnStepSpan) {
  Profiler profiler(/*enabled=*/true);
  profiler.BeginStep(3);
  profiler.AddPhase(kPhaseForward, 0.25);
  profiler.AddPhase(kPhaseSum, 0.5);
  profiler.EndStep(1.0);

  const JsonValue trace = profiler.ToChromeTraceJson();
  ASSERT_TRUE(trace.Has("traceEvents"));
  const auto& events = trace.At("traceEvents").AsArray();
  // Two active phases plus the step lane.
  ASSERT_EQ(events.size(), 3u);
  for (const JsonValue& event : events) {
    EXPECT_EQ(event.At("ph").AsString(), "X");
    EXPECT_TRUE(event.Has("ts"));
    EXPECT_TRUE(event.Has("dur"));
    EXPECT_TRUE(event.Has("tid"));
  }
  EXPECT_EQ(events.back().At("name").AsString(), "step");
  EXPECT_TRUE(events.back().At("args").Has("coverage"));
}

TEST(ProfilerTest, TableListsEveryPhaseAndCoverage) {
  Profiler profiler(/*enabled=*/true);
  profiler.BeginStep(0);
  profiler.AddPhase(kPhaseDecode, 0.5);
  profiler.EndStep(0.5);

  std::ostringstream os;
  profiler.PrintTable(os);
  const std::string table = os.str();
  for (int p = 0; p < kNumProfilePhases; ++p) {
    EXPECT_NE(table.find(ProfilePhaseName(p)), std::string::npos);
  }
  EXPECT_NE(table.find("total (measured)"), std::string::npos);
  EXPECT_NE(table.find("% covered"), std::string::npos);
}

TEST(ProfilerTest, WriteFilesProduceParseableJson) {
  Profiler profiler(/*enabled=*/true);
  profiler.BeginStep(0);
  profiler.AddPhase(kPhaseForward, 0.1);
  profiler.EndStep(0.1);

  const std::string base = ::testing::TempDir() + "/profile_test_out";
  const std::string profile_path = base + ".json";
  const std::string trace_path = base + ".trace.json";
  ASSERT_TRUE(profiler.WriteFile(profile_path).ok());
  ASSERT_TRUE(profiler.WriteChromeTraceFile(trace_path).ok());
  for (const std::string& path : {profile_path, trace_path}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream contents;
    contents << in.rdbuf();
    EXPECT_TRUE(JsonValue::Parse(contents.str()).ok()) << path;
    std::remove(path.c_str());
  }
}

TEST(FlightRecorderTest, DisabledRecorderDropsRecords) {
  FlightRecorder recorder(/*enabled=*/false);
  recorder.Record(0, kPhaseEncode, 0, 0, 0.1, 0.0, "encode");
  recorder.OnExchangeFailure(DataLossError("x"), 0);
  EXPECT_EQ(recorder.record_count(), 0);
  EXPECT_EQ(recorder.dump_count(), 0);
  EXPECT_TRUE(recorder.LastDump().is_null());
}

TEST(FlightRecorderTest, DumpCarriesTriggerRecordsAndDeltas) {
  FlightRecorder recorder(/*enabled=*/true);
  recorder.Record(4, kPhaseEncode, 2, 1, 0.25, 0.0, "encode");
  recorder.Record(4, -1, -1, -1, 0.5, 1.5, "step");
  recorder.OnExchangeFailure(DataLossError("checksum mismatch"), 5);

  EXPECT_EQ(recorder.dump_count(), 1);
  // The trigger itself lands in the ring after the dump.
  EXPECT_EQ(recorder.record_count(), 3);

  auto parsed = JsonValue::Parse(recorder.LastDump().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& dump = *parsed;
  EXPECT_EQ(dump.At("schema_version").AsInt(), 1);
  EXPECT_EQ(dump.At("kind").AsString(), "flight_record");
  const JsonValue& trigger = dump.At("trigger");
  EXPECT_EQ(trigger.At("code_name").AsString(), "DATA_LOSS");
  EXPECT_EQ(trigger.At("iteration").AsInt(), 5);
  EXPECT_NE(trigger.At("message").AsString().find("checksum"),
            std::string::npos);
  EXPECT_TRUE(dump.Has("metric_deltas"));
  EXPECT_TRUE(dump.At("metric_deltas").Has("comm/retries"));

  const auto& records = dump.At("records").AsArray();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].At("label").AsString(), "encode");
  EXPECT_EQ(records[0].At("phase_name").AsString(), "encode");
  EXPECT_EQ(records[0].At("matrix").AsInt(), 2);
  EXPECT_EQ(records[1].At("label").AsString(), "step");
}

TEST(FlightRecorderTest, RingKeepsOnlyTheMostRecentRecords) {
  FlightRecorder recorder(/*enabled=*/true);
  const int64_t total = static_cast<int64_t>(FlightRecorder::kCapacity) + 16;
  for (int64_t i = 0; i < total; ++i) {
    recorder.Record(i, kPhaseSum, -1, -1, 0.0, 0.0, "sum");
  }
  recorder.OnExchangeFailure(UnavailableError("boom"), total);

  const JsonValue dump = recorder.LastDump();
  const auto& records = dump.At("records").AsArray();
  ASSERT_EQ(records.size(), FlightRecorder::kCapacity);
  // Oldest retained record is exactly `capacity` back from the end.
  EXPECT_EQ(records.front().At("sequence").AsInt(),
            total - static_cast<int64_t>(FlightRecorder::kCapacity));
  EXPECT_EQ(records.back().At("sequence").AsInt(), total - 1);
}

TEST(FlightRecorderTest, PrefixWritesOneFilePerDump) {
  FlightRecorder recorder(/*enabled=*/true);
  const std::string prefix = ::testing::TempDir() + "/flight_test";
  recorder.set_output_prefix(prefix);
  recorder.Record(0, kPhaseWire, -1, -1, 0.0, 0.0, "wire");
  recorder.OnExchangeFailure(DeadlineExceededError("late"), 1);
  recorder.OnExchangeFailure(AbortedError("rank 2 crashed"), 2);
  EXPECT_EQ(recorder.dump_count(), 2);

  for (int dump = 0; dump < 2; ++dump) {
    const std::string path =
        prefix + "." + std::to_string(dump) + ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream contents;
    contents << in.rdbuf();
    auto parsed = JsonValue::Parse(contents.str());
    ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.status();
    EXPECT_EQ(parsed->At("kind").AsString(), "flight_record");
    std::remove(path.c_str());
  }
  // The second dump's history contains the first failure's marker record.
  const JsonValue last = recorder.LastDump();
  const auto& records = last.At("records").AsArray();
  bool found_fail_marker = false;
  for (const JsonValue& record : records) {
    if (record.At("label").AsString().rfind("fail:", 0) == 0) {
      found_fail_marker = true;
    }
  }
  EXPECT_TRUE(found_fail_marker);
}

TEST(FlightRecorderTest, ProfilerEndStepFeedsRecorder) {
  ProfileGuard profile_guard;
  FlightGuard flight_guard;
  Profiler& profiler = Profiler::Global();
  profiler.BeginStep(11);
  profiler.AddPhase(kPhaseForward, 0.5);
  profiler.AddVirtual(kPhaseWire, 2.0);
  profiler.EndStep(2.0);

  // One record per active phase (forward, wire) plus the step span.
  EXPECT_EQ(FlightRecorder::Global().record_count(), 3);
  FlightRecorder::Global().OnExchangeFailure(InternalError("x"), 11);
  const JsonValue dump = FlightRecorder::Global().LastDump();
  const auto& records = dump.At("records").AsArray();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].At("phase_name").AsString(), "forward");
  EXPECT_EQ(records[1].At("phase_name").AsString(), "wire");
  EXPECT_EQ(records[2].At("label").AsString(), "step");
  EXPECT_EQ(records[2].At("step").AsInt(), 11);
}

}  // namespace
}  // namespace obs
}  // namespace lpsgd
