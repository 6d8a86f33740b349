// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/span.h"

#include <cstdlib>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace lpsgd {
namespace obs {
namespace span_internal {

constinit std::atomic<uint32_t> live_sinks{kSinksUnread};
constinit std::atomic<uint64_t> clock_reads{0};

bool EnvFlagEnabled(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' &&
         std::strtol(env, nullptr, 10) != 0;
}

}  // namespace span_internal

using span_internal::kMetricsSink;
using span_internal::kProfileSink;
using span_internal::kSinksUnread;
using span_internal::kTraceSink;

void Span::Open() {
  if ((live_ & kSinksUnread) != 0) {
    // Constructing the global sinks applies their environment variables
    // and publishes their bits.
    MetricsRegistry::Global();
    Tracer::Global();
    Profiler::Global();
    live_ = span_internal::live_sinks.fetch_and(~kSinksUnread,
                                                std::memory_order_relaxed);
  }
  uint32_t wanted = 0;
  if (!sinks_.histogram.empty() || !sinks_.counter.empty() ||
      !sinks_.bytes_counter.empty()) {
    wanted |= kMetricsSink;
  }
  if (!sinks_.trace.empty()) wanted |= kTraceSink;
  if (sinks_.phases != nullptr) wanted |= kProfileSink;
  live_ &= wanted;
  if (live_ == 0) return;
  span_internal::clock_reads.fetch_add(1, std::memory_order_relaxed);
  start_ = MonotonicSeconds();
}

double Span::Close() {
  span_internal::clock_reads.fetch_add(1, std::memory_order_relaxed);
  const double elapsed = MonotonicSeconds() - start_;
  if (sinks_.bytes_of != nullptr) {
    bytes_ = static_cast<int64_t>(sinks_.bytes_of->size());
  }
  if ((live_ & kMetricsSink) != 0) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    if (!sinks_.histogram.empty()) registry.Observe(sinks_.histogram, elapsed);
    if (!sinks_.counter.empty()) registry.Count(sinks_.counter);
    if (!sinks_.bytes_counter.empty() && bytes_ >= 0) {
      registry.Count(sinks_.bytes_counter, bytes_);
    }
  }
  if ((live_ & kTraceSink) != 0) {
    Tracer::Global().RecordSpan(sinks_.trace, sinks_.category, start_,
                                elapsed, virtual_start_, virtual_end_, bytes_);
  }
  return elapsed;
}

}  // namespace obs
}  // namespace lpsgd
