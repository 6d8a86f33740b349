// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Shared pieces of the step-throughput benchmark (perfbench/README.md):
// the workload table, the state digest, in-memory checkpoint storage,
// the measurement helpers, and the traced layer replay.
#ifndef LPSGD_PERFBENCH_BENCH_H_
#define LPSGD_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "ckpt/format.h"
#include "ckpt/storage.h"
#include "core/trainer.h"
#include "data/dataset.h"

namespace lpsgd {
namespace perfbench {

// Heap allocations made by this process so far (the counting global
// operator new lives in main.cc). Exact and repeatable for serial code.
int64_t AllocationCount();

double NowSeconds();
double Median(std::vector<double> values);
// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

// CPU time the hypervisor has taken from this machine's virtual CPUs, in
// clock ticks summed over CPUs (the "steal" column of /proc/stat); 0 where
// the kernel does not report it.
int64_t StealTicks();

// One timed sample and the steal ticks that fell inside it.
struct Sample {
  double value = 0.0;
  double seconds = 0.0;
  int64_t steal = 0;
};

// Median value over the least-disturbed samples: the third (at least 3)
// with the lowest steal per second, plus any tied with the last of those.
// Co-tenants on a shared host take whole
// virtual CPUs for tens of seconds at a time; samples they hit measure the
// host, not the program. `kept` receives the number of samples used.
double LeastStolenMedian(std::vector<Sample> samples, size_t* kept);

// One named metric as the benchmark prints it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Pass/fail bookkeeping: every timed operation and every cross-check is
// one attempt; a check that does not hold is one failure.
class Gate {
 public:
  void Check(bool ok, const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// FNV-1a-64 over the state components that define where training is:
// parameters, momentum, per-rank residuals and the aggregator's exchange
// state. Run metadata (iteration, virtual clock, epoch sums) is left out.
uint64_t StateDigest(const ckpt::TrainerState& state);

// Checkpoint storage kept in process memory. It stands in for a tmpfs
// directory, so save and restore times measure CPU work, not a disk.
class MemoryStorage : public ckpt::Storage {
 public:
  Status CreateDir(const std::string& path) override;
  Status WriteFileSynced(const std::string& path,
                         const std::string& data) override;
  StatusOr<std::string> ReadFile(const std::string& path) override;
  Status AtomicRename(const std::string& from,
                      const std::string& to) override;
  Status Remove(const std::string& path) override;
  StatusOr<std::vector<std::string>> List(const std::string& dir) override;
  bool Exists(const std::string& path) override;

  const std::map<std::string, std::string>& files() const { return files_; }

 private:
  std::map<std::string, std::string> files_;
};

// A benchmark workload: model, data, exchange, and (for the recovery
// workload) the fault plan and durable-save cadence of its windows.
struct Workload {
  std::string name;
  int num_gpus = 0;
  int64_t global_batch = 0;
  CodecSpec codec;
  CommPrimitive primitive = CommPrimitive::kMpi;
  // Steps in one timed window (= one epoch of the window dataset).
  int64_t window_steps = 0;
  // Held-out samples one Evaluate pass covers.
  int64_t eval_samples = 0;
  // Durable save cadence inside the windows; 0 = no saves.
  int save_every = 0;
  // Fault plan text for the windows, built from the seed; empty = none.
  std::string fault_plan;
  float learning_rate = 0.05f;

  SyncTrainer::NetworkFactory factory;
  // Builds a dataset of `n` samples starting at global sample `offset`.
  std::function<std::unique_ptr<Dataset>(int64_t n, uint64_t offset)>
      make_dataset;
};

// The three named workloads, with inputs derived from `seed`.
std::vector<std::string> WorkloadNames();
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// Datasets shared by every phase of a run.
struct Data {
  std::unique_ptr<Dataset> train;    // window_steps global batches
  std::unique_ptr<Dataset> first;    // one global batch (set-up step)
  std::unique_ptr<Dataset> tiny;     // the minimal test set for Train()
  std::unique_ptr<Dataset> heldout;  // the evaluation set
};
Data MakeData(const Workload& workload);

// Trainer options for `workload` on `execution`, with the fault plan and
// durable saves when `faults` is set. Durable saves go to `storage` (a
// fresh MemoryStorage when null).
TrainerOptions MakeOptions(const Workload& workload, uint64_t seed,
                           const ExecutionContext& execution, bool faults,
                           std::shared_ptr<ckpt::Storage> storage = nullptr);

// One timed window: restore `start`, run one epoch of `data.train`; with
// `evaluate`, also the held-out accuracy of the end state (untimed).
struct WindowResult {
  bool ok = false;
  double seconds = 0.0;
  int64_t samples = 0;
  int64_t allocations = 0;
  uint64_t digest = 0;
  double train_loss = 0.0;
  double accuracy = 0.0;
  int64_t steal = 0;  // steal ticks during the timed epoch
  int64_t wire_bytes = 0;
  int64_t messages = 0;
  double virtual_seconds = 0.0;
  std::string error;
};
WindowResult RunWindow(const Workload& workload, const Data& data,
                       const TrainerOptions& options,
                       const ckpt::TrainerState& start,
                       bool evaluate = false);

// Per-layer spans and counts of the traced replay.
struct ReplayResult {
  bool ok = false;
  std::string error;
  uint64_t digest = 0;  // end state after the first replayed window
  double step_ms = 0.0;  // median replayed step
  std::vector<Metric> metrics;
  std::string trace_json;  // Chrome trace_event document of the spans
};
ReplayResult RunReplay(const Workload& workload, const Data& data,
                       uint64_t seed, const ckpt::TrainerState& start,
                       double budget_seconds);

}  // namespace perfbench
}  // namespace lpsgd

#endif  // LPSGD_PERFBENCH_BENCH_H_
