// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Span tracer with dual clocks. Each obs::Span (obs/span.h) that names a
// trace event records its wall-clock start/duration (host time) and, when
// the site supplies them, the simulator's virtual-clock start/end — so a
// trace of one training run shows both where the host spent its time and
// where the modeled cluster would have spent its (Figures 6-9 are exactly
// this split, per iteration). Traces export as Chrome trace_event JSON
// ("X" complete events) loadable in chrome://tracing or
// https://ui.perfetto.dev.
//
// Like the metrics registry, the global tracer is disabled by default and
// every hook early-exits on one relaxed atomic load. Enable
// programmatically or with the LPSGD_TRACE environment variable (nonzero).
#ifndef LPSGD_OBS_TRACE_H_
#define LPSGD_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "obs/json.h"
#include "obs/span.h"

namespace lpsgd {
namespace obs {

// One completed span. Wall times are in seconds on the process-local
// monotonic clock; virtual times are simulator seconds (negative when the
// span carries no virtual-clock annotation).
struct TraceEvent {
  std::string name;
  std::string category;
  double wall_start = 0.0;
  double wall_duration = 0.0;
  double virtual_start = -1.0;
  double virtual_end = -1.0;
  int64_t arg_bytes = -1;  // optional payload-size annotation
};

class Tracer {
 public:
  static Tracer& Global();

  explicit Tracer(bool enabled = true);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
    if (span_sink_ != 0) span_internal::SetSinkLive(span_sink_, enabled);
  }

  // Appends one closed obs::Span; a negative virtual_start or bytes means
  // no such annotation. No-op while disabled; dropped past kMaxEvents.
  void RecordSpan(std::string_view name, std::string_view category,
                  double wall_start, double wall_duration,
                  double virtual_start, double virtual_end, int64_t bytes)
      LPSGD_EXCLUDES(mu_);
  // Purity exemption: spans call it only while tracing is on, and a traced
  // run stores one heap event per span by design.
  LPSGD_HOT_CALLEE_OK(Tracer::RecordSpan);

  size_t event_count() const LPSGD_EXCLUDES(mu_);
  // Spans dropped after the in-memory cap (kMaxEvents) was reached.
  int64_t dropped_count() const LPSGD_EXCLUDES(mu_);
  std::vector<TraceEvent> Events() const LPSGD_EXCLUDES(mu_);
  void Reset() LPSGD_EXCLUDES(mu_);

  // Chrome trace_event JSON: {"traceEvents": [...], "displayTimeUnit":
  // "ms"}. Each span is a "ph":"X" event with microsecond timestamps;
  // virtual-clock and byte annotations land in "args".
  JsonValue ToChromeTraceJson() const LPSGD_EXCLUDES(mu_);
  [[nodiscard]] Status WriteChromeTrace(std::ostream& os) const;
  [[nodiscard]] Status WriteChromeTraceFile(const std::string& path) const;

 private:
  // Spans held in memory before new RecordSpan() calls are dropped (~96
  // MB worst case; a trace this big no longer loads in chrome://tracing
  // anyway).
  static constexpr size_t kMaxEvents = 1u << 20;

  std::atomic<bool> enabled_;
  uint32_t span_sink_ = 0;  // the global tracer's obs::Span sink bit
  mutable Mutex mu_;
  std::vector<TraceEvent> events_ LPSGD_GUARDED_BY(mu_);
  int64_t dropped_ LPSGD_GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace lpsgd

#endif  // LPSGD_OBS_TRACE_H_
