// Fixture for tools/analyze (never compiled): a file-local `Set` helper
// that reaches FlightRecorder::mu_. Its internal linkage means the
// registry's `doc->Set(...)` in src/locks.cc cannot call it; resolving by
// bare name would report FlightRecorder::mu_ -> MetricsRegistry::mu_ ->
// FlightRecorder::mu_.
static void Set(bool metrics, bool trace, bool profile) {
  JsonValue doc;
  if (metrics || trace || profile) Recorder().Dump(&doc);
}

void RunBench() { Set(true, false, false); }
