// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/span.h"

#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "quant/codec.h"
#include "quant/workspace.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace obs {
namespace {

// Sets the three global sinks for one test and restores them after (a
// span consults the global flags, never a local instance).
class SinksGuard {
 public:
  SinksGuard(bool metrics, bool trace, bool profile)
      : was_metrics_(MetricsRegistry::Global().enabled()),
        was_trace_(Tracer::Global().enabled()),
        was_profile_(Profiler::Global().enabled()) {
    Set(metrics, trace, profile);
    MetricsRegistry::Global().Reset();
    Tracer::Global().Reset();
  }
  ~SinksGuard() {
    MetricsRegistry::Global().Reset();
    Tracer::Global().Reset();
    Set(was_metrics_, was_trace_, was_profile_);
  }

 private:
  static void Set(bool metrics, bool trace, bool profile) {
    MetricsRegistry::Global().set_enabled(metrics);
    Tracer::Global().set_enabled(trace);
    Profiler::Global().set_enabled(profile);
  }

  bool was_metrics_;
  bool was_trace_;
  bool was_profile_;
};

TEST(SpanTest, FeedsEveryNamedSink) {
  SinksGuard guard(true, true, true);
  PhaseTimes times;
  {
    Span span({.histogram = "test/span_seconds",
               .counter = "test/span_calls",
               .bytes_counter = "test/span_bytes",
               .trace = "span",
               .category = "test",
               .phases = &times,
               .phase = kPhaseEncode});
    span.set_bytes(96);
  }
  const MetricsRegistry& metrics = MetricsRegistry::Global();
  EXPECT_EQ(metrics.HistogramFor("test/span_seconds").count, 1);
  EXPECT_GE(metrics.HistogramFor("test/span_seconds").sum, 0.0);
  EXPECT_EQ(metrics.CounterValue("test/span_calls"), 1);
  EXPECT_EQ(metrics.CounterValue("test/span_bytes"), 96);

  const std::vector<TraceEvent> events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "span");
  EXPECT_EQ(events[0].category, "test");
  EXPECT_EQ(events[0].arg_bytes, 96);
  EXPECT_LT(events[0].virtual_start, 0.0);

  EXPECT_EQ(times.calls[kPhaseEncode], 1);
  EXPECT_GE(times.wall[kPhaseEncode], 0.0);
}

TEST(SpanTest, FeedsOnlyTheSinksItNames) {
  SinksGuard guard(true, true, true);
  PhaseTimes times;
  {
    Span span(&times, kPhaseWire);
  }
  EXPECT_EQ(times.calls[kPhaseWire], 1);
  EXPECT_TRUE(MetricsRegistry::Global().Names().empty());
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
}

TEST(SpanTest, SkipsDisabledSinks) {
  SinksGuard guard(/*metrics=*/false, /*trace=*/true, /*profile=*/false);
  PhaseTimes times;
  {
    Span span({.histogram = "test/span_seconds",
               .trace = "span",
               .category = "test",
               .phases = &times,
               .phase = kPhaseSum});
  }
  EXPECT_EQ(Tracer::Global().event_count(), 1u);
  EXPECT_EQ(MetricsRegistry::Global().HistogramFor("test/span_seconds").count,
            0);
  EXPECT_EQ(times.calls[kPhaseSum], 0);
}

TEST(SpanTest, TraceEventCarriesBothAnnotations) {
  SinksGuard guard(false, true, false);
  const double before = MonotonicSeconds();
  {
    Span span({.trace = "scoped", .category = "test"});
    span.set_bytes(64);
    span.set_virtual_range(0.0, 3.0);
  }
  const std::vector<TraceEvent> events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(events[0].wall_start, before);
  EXPECT_GE(events[0].wall_duration, 0.0);
  EXPECT_DOUBLE_EQ(events[0].virtual_start, 0.0);
  EXPECT_DOUBLE_EQ(events[0].virtual_end, 3.0);
  EXPECT_EQ(events[0].arg_bytes, 64);
}

TEST(SpanTest, DisabledSpanNeverTouchesSinks) {
  SinksGuard guard(false, false, false);
  PhaseTimes times;
  {
    Span span({.histogram = "test/span_seconds",
               .trace = "span",
               .category = "test",
               .phases = &times,
               .phase = kPhaseEncode});
    span.set_bytes(8);
  }
  EXPECT_EQ(times.calls[kPhaseEncode], 0);
  EXPECT_DOUBLE_EQ(times.wall[kPhaseEncode], 0.0);
  EXPECT_TRUE(MetricsRegistry::Global().Names().empty());
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
}

// The disabled path's promise, checked as a property rather than a
// timing: with every sink off, a span carrying all three sinks — the shape
// of a codec entry point's span — reads no clock and touches no sink over
// the encode hot path (the codec's own spans included). The timing side
// lives in bench_micro_codecs' BM_EncodeQsgd4DisabledSpan row, gated in CI.
TEST(SpanTest, DisabledSpanReadsNoClockOnEncodeHotPath) {
  SinksGuard guard(false, false, false);
  const int64_t n = 3 << 10;
  Tensor grad(Shape({n}));
  Rng rng(42);
  grad.FillGaussian(&rng, 1.0f);
  auto codec = QsgdSpec(4).Create();
  ASSERT_TRUE(codec.ok());
  CodecWorkspace workspace;
  std::vector<uint8_t> blob;
  PhaseTimes times;

  const uint64_t reads_before =
      span_internal::clock_reads.load(std::memory_order_relaxed);
  for (uint64_t tag = 0; tag < 16; ++tag) {
    Span span({.histogram = "test/encode_seconds",
               .trace = "encode",
               .category = "test",
               .phases = &times,
               .phase = kPhaseEncode});
    (*codec)->Encode(grad.data(), grad.shape(), tag, nullptr, &workspace,
                     &blob);
    span.set_bytes(static_cast<int64_t>(blob.size()));
  }
  EXPECT_EQ(span_internal::clock_reads.load(std::memory_order_relaxed),
            reads_before);
  for (int p = 0; p < kNumProfilePhases; ++p) {
    EXPECT_EQ(times.calls[p], 0) << "phase " << p;
  }
  EXPECT_EQ(
      MetricsRegistry::Global().HistogramFor("test/encode_seconds").count, 0);
  EXPECT_TRUE(MetricsRegistry::Global().Names().empty());
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
}

// The counter the check above relies on: an enabled span reads the clock
// exactly twice, once at open and once at close.
TEST(SpanTest, EnabledSpanReadsTheClockTwice) {
  SinksGuard guard(false, true, false);
  const uint64_t reads_before =
      span_internal::clock_reads.load(std::memory_order_relaxed);
  {
    Span span({.trace = "timed", .category = "test"});
  }
  EXPECT_EQ(span_internal::clock_reads.load(std::memory_order_relaxed),
            reads_before + 2);
}

// Run by the obs_span_env_test ctest entry with LPSGD_OBS, LPSGD_TRACE and
// LPSGD_PROFILE set: the very first span of the process must find all
// three sinks enabled by the environment alone, with no set_enabled call
// anywhere before it. Skipped when the variables are absent.
TEST(SpanEnvTest, EnvironmentEnablesEverySink) {
  if (std::getenv("LPSGD_OBS") == nullptr ||
      std::getenv("LPSGD_TRACE") == nullptr ||
      std::getenv("LPSGD_PROFILE") == nullptr) {
    GTEST_SKIP() << "needs LPSGD_OBS, LPSGD_TRACE and LPSGD_PROFILE set";
  }
  PhaseTimes times;
  {
    Span span({.histogram = "test/env_seconds",
               .trace = "env",
               .category = "test",
               .phases = &times,
               .phase = kPhaseForward});
  }
  EXPECT_EQ(MetricsRegistry::Global().HistogramFor("test/env_seconds").count,
            1);
  ASSERT_EQ(Tracer::Global().event_count(), 1u);
  EXPECT_EQ(Tracer::Global().Events()[0].name, "env");
  EXPECT_EQ(times.calls[kPhaseForward], 1);
}

}  // namespace
}  // namespace obs
}  // namespace lpsgd
