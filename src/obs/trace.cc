// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/trace.h"

#include <fstream>

#include "base/strings.h"

namespace lpsgd {
namespace obs {

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

Tracer& Tracer::Global() {
  static Tracer* const kTracer = [] {
    auto* tracer = new Tracer(/*enabled=*/false);
    tracer->span_sink_ = span_internal::kTraceSink;
    tracer->set_enabled(span_internal::EnvFlagEnabled("LPSGD_TRACE"));
    return tracer;
  }();
  return *kTracer;
}

void Tracer::RecordSpan(std::string_view name, std::string_view category,
                        double wall_start, double wall_duration,
                        double virtual_start, double virtual_end,
                        int64_t bytes) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  TraceEvent& event = events_.emplace_back();
  event.name.assign(name);
  event.category.assign(category);
  event.wall_start = wall_start;
  event.wall_duration = wall_duration;
  event.virtual_start = virtual_start;
  event.virtual_end = virtual_end;
  event.arg_bytes = bytes;
}

size_t Tracer::event_count() const {
  MutexLock lock(mu_);
  return events_.size();
}

int64_t Tracer::dropped_count() const {
  MutexLock lock(mu_);
  return dropped_;
}

std::vector<TraceEvent> Tracer::Events() const {
  MutexLock lock(mu_);
  return events_;
}

void Tracer::Reset() {
  MutexLock lock(mu_);
  events_.clear();
  dropped_ = 0;
}

JsonValue Tracer::ToChromeTraceJson() const {
  MutexLock lock(mu_);
  JsonValue trace_events = JsonValue::Array();
  for (const TraceEvent& event : events_) {
    JsonValue e = JsonValue::Object();
    e.Set("name", event.name);
    e.Set("cat", event.category);
    e.Set("ph", "X");
    e.Set("pid", int64_t{1});
    e.Set("tid", int64_t{1});
    e.Set("ts", event.wall_start * 1e6);        // microseconds
    e.Set("dur", event.wall_duration * 1e6);
    JsonValue args = JsonValue::Object();
    if (event.virtual_start >= 0.0) {
      args.Set("virtual_start_s", event.virtual_start);
      args.Set("virtual_end_s", event.virtual_end);
      args.Set("virtual_duration_s",
               event.virtual_end - event.virtual_start);
    }
    if (event.arg_bytes >= 0) args.Set("bytes", event.arg_bytes);
    if (args.size() > 0) e.Set("args", std::move(args));
    trace_events.Append(std::move(e));
  }
  JsonValue root = JsonValue::Object();
  root.Set("traceEvents", std::move(trace_events));
  root.Set("displayTimeUnit", "ms");
  if (dropped_ > 0) root.Set("lpsgd_dropped_events", dropped_);
  return root;
}

Status Tracer::WriteChromeTrace(std::ostream& os) const {
  os << ToChromeTraceJson().Dump(1) << "\n";
  if (!os.good()) return InternalError("trace stream write failed");
  return OkStatus();
}

Status Tracer::WriteChromeTraceFile(const std::string& path) const {
  std::ofstream file(path);
  if (!file.is_open()) {
    return InvalidArgumentError(StrCat("cannot open trace file: ", path));
  }
  return WriteChromeTrace(file);
}

}  // namespace obs
}  // namespace lpsgd
