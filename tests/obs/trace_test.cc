// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/trace.h"

#include <sstream>

#include <gtest/gtest.h>

#include "obs/json.h"

namespace lpsgd {
namespace obs {
namespace {

TEST(TracerTest, RecordsSpansWithAnnotations) {
  Tracer tracer;
  tracer.RecordSpan("iteration", "trainer", 10.0, 0.5, -1.0, -1.0, -1);
  tracer.RecordSpan("allreduce", "comm", 10.5, 0.25, 1.0, 1.5, -1);
  tracer.RecordSpan("encode", "quant", 10.75, 0.125, -1.0, -1.0, 4096);

  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "iteration");
  EXPECT_EQ(events[0].category, "trainer");
  EXPECT_DOUBLE_EQ(events[0].wall_start, 10.0);
  EXPECT_DOUBLE_EQ(events[0].wall_duration, 0.5);
  EXPECT_LT(events[0].virtual_start, 0.0);
  EXPECT_EQ(events[0].arg_bytes, -1);
  EXPECT_DOUBLE_EQ(events[1].virtual_start, 1.0);
  EXPECT_DOUBLE_EQ(events[1].virtual_end, 1.5);
  EXPECT_EQ(events[2].arg_bytes, 4096);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(/*enabled=*/false);
  tracer.RecordSpan("x", "y", 0.0, 1.0, -1.0, -1.0, -1);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, ChromeTraceJsonIsWellFormed) {
  Tracer tracer;
  tracer.RecordSpan("iteration", "trainer", 1.0, 0.5, 0.0, 0.25, -1);
  tracer.RecordSpan("matrix \"W0\"\n", "comm", 1.5, 0.5, -1.0, -1.0,
                    512);  // escapes

  std::ostringstream os;
  ASSERT_TRUE(tracer.WriteChromeTrace(os).ok());

  // The acceptance check: the emitted document must parse back as JSON
  // and follow the trace_event shape chrome://tracing expects.
  auto parsed = JsonValue::Parse(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->At("displayTimeUnit").AsString(), "ms");
  const auto& events = parsed->At("traceEvents").AsArray();
  ASSERT_EQ(events.size(), 2u);
  for (const JsonValue& e : events) {
    EXPECT_EQ(e.At("ph").AsString(), "X");
    EXPECT_TRUE(e.Has("name"));
    EXPECT_TRUE(e.Has("cat"));
    EXPECT_TRUE(e.Has("pid"));
    EXPECT_TRUE(e.Has("tid"));
    EXPECT_GE(e.At("ts").AsDouble(), 0.0);
    EXPECT_GE(e.At("dur").AsDouble(), 0.0);
  }
  EXPECT_EQ(events[0].At("name").AsString(), "iteration");
  EXPECT_DOUBLE_EQ(
      events[0].At("args").At("virtual_duration_s").AsDouble(), 0.25);
  EXPECT_EQ(events[1].At("args").At("bytes").AsInt(), 512);
}

}  // namespace
}  // namespace obs
}  // namespace lpsgd
