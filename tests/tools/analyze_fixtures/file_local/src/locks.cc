// Fixture for tools/analyze (never compiled): the recorder holds its lock
// while it snapshots the registry, and the registry holds its own lock
// while it fills a document through JsonValue::Set (src/json.cc). The
// only Set with external linkage acquires nothing, so there is no
// lock-order cycle.
struct Mutex {
  void Lock();
  void Unlock();
};
struct MutexLock {
  explicit MutexLock(Mutex& mu);
};

class JsonValue;

class MetricsRegistry {
 public:
  void Snapshot(JsonValue* doc) {
    MutexLock guard(mu_);
    doc->Set(1, 2);
  }

 private:
  Mutex mu_;
};

MetricsRegistry& Registry();

class FlightRecorder {
 public:
  void Dump(JsonValue* doc) {
    MutexLock guard(mu_);
    Registry().Snapshot(doc);
  }

 private:
  Mutex mu_;
};

FlightRecorder& Recorder();
