// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The one instrumentation primitive: a scoped span that times a region
// into the observability sinks its site names — metrics (obs/metrics.h),
// a trace event (obs/trace.h), and a phase of a per-slot PhaseTimes that
// the step profiler (obs/profile.h) merges.
//
//   obs::Span span({.histogram = "trainer/eval_seconds",
//                   .trace = "trainer/eval", .category = "trainer"});
//   obs::Span phase(&workspace->phases, obs::kPhaseEncode);
//
// The global sinks publish their enabled flags into one word, so with
// every sink disabled a span costs one relaxed atomic load and no clock
// read. Otherwise it reads the clock once at open and once at close.
#ifndef LPSGD_OBS_SPAN_H_
#define LPSGD_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "base/thread_annotations.h"

namespace lpsgd {
namespace obs {

// The phases one synchronous training step decomposes into (Algorithm 1:
// local compute, encode, exchange, decode, aggregate, update — plus the
// retry layer's bookkeeping). Plain enum: values index fixed arrays.
enum ProfilePhase : int {
  kPhaseForward = 0,   // input slicing + forward pass + loss
  kPhaseBackward = 1,  // backward pass
  kPhaseOptimizer = 2, // gradient scaling + momentum step
  kPhaseEncode = 3,    // codec Encode kernels
  kPhaseWire = 4,      // wall: host copies standing in for the wire;
                       // virtual: the cost model's comm_seconds
  kPhaseDecode = 5,    // codec Decode kernels
  kPhaseSum = 6,       // aggregate summation + exchange staging
  kPhaseRetry = 7,     // retry snapshots/restores; virtual: backoff penalty
  kNumProfilePhases = 8,
};

// Per-slot phase accumulator: fixed POD arrays only, so instances may live
// in hot-path workspaces and be written from LPSGD_HOT_PATH regions
// without allocating. One PhaseTimes is single-threaded scratch — keep one
// per thread-pool slot (ThreadPool::CurrentSlot()) and merge serially.
struct PhaseTimes {
  double wall[kNumProfilePhases] = {};
  double virt[kNumProfilePhases] = {};
  int64_t calls[kNumProfilePhases] = {};

  void Clear() {
    for (int p = 0; p < kNumProfilePhases; ++p) {
      wall[p] = 0.0;
      virt[p] = 0.0;
      calls[p] = 0;
    }
  }

  LPSGD_HOT_PATH
  void Add(int phase, double wall_seconds) {
    wall[phase] += wall_seconds;
    calls[phase] += 1;
  }

  void AddVirtual(int phase, double virtual_seconds) {
    virt[phase] += virtual_seconds;
  }

  void Merge(const PhaseTimes& other) {
    for (int p = 0; p < kNumProfilePhases; ++p) {
      wall[p] += other.wall[p];
      virt[p] += other.virt[p];
      calls[p] += other.calls[p];
    }
  }

  double WallTotal() const {
    double total = 0.0;
    for (int p = 0; p < kNumProfilePhases; ++p) total += wall[p];
    return total;
  }

  double VirtualTotal() const {
    double total = 0.0;
    for (int p = 0; p < kNumProfilePhases; ++p) total += virt[p];
    return total;
  }
};

// The sinks a span feeds; an empty field (or null `phases`) skips that
// sink. Metrics: the elapsed seconds go into histogram `histogram`,
// counter `counter` gains 1 and counter `bytes_counter` the span's byte
// count. Tracer: one event `trace` in `category`, annotated with the byte
// count and set_virtual_range(). Profiler: the elapsed seconds are added
// to phases[phase]. The byte count is the size of `bytes_of` at close
// when that is set (a codec's output blob), else the set_bytes() value.
// The names must outlive the span (sites pass string literals).
struct SpanSinks {
  std::string_view histogram = {};
  std::string_view counter = {};
  std::string_view bytes_counter = {};
  std::string_view trace = {};
  std::string_view category = {};
  PhaseTimes* phases = nullptr;
  int phase = 0;
  const std::vector<uint8_t>* bytes_of = nullptr;
};

namespace span_internal {

// One bit per enabled global sink, kept current by their set_enabled.
// kSinksUnread stays set until the global sinks exist (and so have applied
// LPSGD_OBS / LPSGD_TRACE / LPSGD_PROFILE); the first span creates them.
enum : uint32_t {
  kMetricsSink = 1, kTraceSink = 2, kProfileSink = 4, kSinksUnread = 8
};
extern std::atomic<uint32_t> live_sinks;

// Clock reads made by spans, counted next to each read (so never on the
// every-sink-off path). Tests use it to prove a disabled span is free.
extern std::atomic<uint64_t> clock_reads;

inline void SetSinkLive(uint32_t sink, bool live) {
  if (live) {
    live_sinks.fetch_or(sink, std::memory_order_relaxed);
  } else {
    live_sinks.fetch_and(~sink, std::memory_order_relaxed);
  }
}

// True when environment variable `name` holds a nonzero integer.
bool EnvFlagEnabled(const char* name);

}  // namespace span_internal

class Span {
 public:
  LPSGD_HOT_PATH
  explicit Span(const SpanSinks& sinks)
      : sinks_(sinks),
        live_(span_internal::live_sinks.load(std::memory_order_relaxed)) {
    if (live_ != 0) Open();
  }
  // A span that only times a profiler phase.
  LPSGD_HOT_PATH
  Span(PhaseTimes* phases, int phase)
      : Span(SpanSinks{.phases = phases, .phase = phase}) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  LPSGD_HOT_PATH
  ~Span() {
    if (live_ == 0) return;
    const double elapsed = Close();
    if ((live_ & span_internal::kProfileSink) != 0) {
      sinks_.phases->Add(sinks_.phase, elapsed);
    }
  }

  void set_bytes(int64_t bytes) { bytes_ = bytes; }
  void set_virtual_range(double virtual_start, double virtual_end) {
    virtual_start_ = virtual_start;
    virtual_end_ = virtual_end;
  }

 private:
  // Narrows live_ to the enabled sinks this span names and, if any is
  // left, reads the clock.
  void Open();
  // Feeds the metrics and trace sinks; returns the elapsed seconds.
  double Close();

  SpanSinks sinks_;
  uint32_t live_;
  double start_ = 0.0;
  int64_t bytes_ = -1;
  double virtual_start_ = -1.0;  // negative: no virtual-clock annotation
  double virtual_end_ = -1.0;
};

}  // namespace obs
}  // namespace lpsgd

#endif  // LPSGD_OBS_SPAN_H_
