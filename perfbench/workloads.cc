// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Workload table, datasets, trainer options, and the timed training
// window of the step-throughput benchmark.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "base/logging.h"
#include "base/rng.h"
#include "base/strings.h"
#include "bench.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"

namespace lpsgd {
namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

int64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  stat >> cpu;
  for (int64_t& field : fields) stat >> field;
  return cpu == "cpu" && stat ? fields[7] : 0;
}

double LeastStolenMedian(std::vector<Sample> samples, size_t* kept) {
  auto rate = [](const Sample& sample) {
    return sample.seconds > 0
               ? static_cast<double>(sample.steal) / sample.seconds
               : 0.0;
  };
  std::stable_sort(samples.begin(), samples.end(),
                   [&](const Sample& a, const Sample& b) {
                     return rate(a) < rate(b);
                   });
  size_t keep =
      std::min(samples.size(), std::max<size_t>(3, samples.size() / 3));
  // Samples tied with the last one kept are as undisturbed; keep them too
  // (with no steal reported at all, that is every sample).
  while (keep < samples.size() &&
         rate(samples[keep]) == rate(samples[keep - 1])) {
    ++keep;
  }
  std::vector<double> values;
  for (size_t i = 0; i < keep; ++i) values.push_back(samples[i].value);
  *kept = keep;
  return Median(values);
}

void Gate::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void HashBytes(const void* data, size_t size, uint64_t* hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    *hash ^= bytes[i];
    *hash *= kFnvPrime;
  }
}

void HashFloats(const std::vector<float>& values, uint64_t* hash) {
  const uint64_t count = values.size();
  HashBytes(&count, sizeof(count), hash);
  HashBytes(values.data(), values.size() * sizeof(float), hash);
}

bool HasPrefix(const std::string& text, const std::string& prefix) {
  return text.compare(0, prefix.size(), prefix) == 0;
}

std::unique_ptr<Dataset> Images(uint64_t seed, int64_t n, uint64_t offset) {
  SyntheticImageOptions options;
  options.num_classes = 10;
  options.channels = 1;
  options.height = 8;
  options.width = 8;
  options.num_samples = n;
  options.signal = 1.2f;
  options.noise = 0.8f;
  options.seed = seed;
  options.sample_offset = offset;
  return std::make_unique<SyntheticImageDataset>(options);
}

std::unique_ptr<Dataset> Sequences(uint64_t seed, int64_t n,
                                   uint64_t offset) {
  SyntheticSequenceOptions options;
  options.num_classes = 8;
  options.time_steps = 10;
  options.frame_dim = 12;
  options.num_samples = n;
  options.seed = seed;
  options.sample_offset = offset;
  return std::make_unique<SyntheticSequenceDataset>(options);
}

// In-memory snapshot cadence of the recovery workload's trainer.
constexpr int kSnapshotEvery = 4;

// Seeded plan for the recovery workload's windows, which cover the
// iterations [window, 2 * window) after the warm-up epoch:
//   - two single transient failures and one corrupted exchange that the
//     retry layer absorbs (max_retries = 2);
//   - two failures repeated past the retry budget (x3), each forcing an
//     in-memory rollback. They never fall on a snapshot iteration, so
//     every rollback replays committed steps; that replay is the path
//     whose bit-equality fault.recovery_divergence checks;
//   - a torn write of the window's last durable save, so a restore has
//     to walk past it to the previous checkpoint.
// Events stay inside [window + 2, 2 * window - 9], clear of the restore
// step near the end of the window. Snapshots fall on multiples of
// kSnapshotEvery because the window starts on one.
std::string RecoveryPlan(uint64_t seed, int64_t window, int save_every) {
  Rng rng(seed ^ 0xfa17ULL);
  std::vector<int64_t> picks;
  const int64_t lo = window + 2;
  const int64_t span = window - 10;
  while (picks.size() < 5) {
    const int64_t at =
        lo + static_cast<int64_t>(rng.NextUint64(static_cast<uint64_t>(span)));
    const bool rollback = picks.size() >= 3;
    if (std::find(picks.begin(), picks.end(), at) == picks.end() &&
        !(rollback && at % kSnapshotEvery == 0)) {
      picks.push_back(at);
    }
  }
  const int64_t last_save = 2 * window / save_every * save_every;
  return StrCat("fail@", picks[0], ";fail@", picks[1], ";corrupt@", picks[2],
                ";fail@", picks[3], "x3;fail@", picks[4], "x3;torn@",
                last_save, ";seed=", seed);
}

}  // namespace

uint64_t StateDigest(const ckpt::TrainerState& state) {
  uint64_t hash = kFnvOffset;
  for (const ckpt::TensorEntry& entry : state.params) {
    HashFloats(entry.data, &hash);
  }
  for (const ckpt::TensorEntry& entry : state.optimizer) {
    HashFloats(entry.data, &hash);
  }
  for (const auto& rank : state.residuals) {
    for (const std::vector<float>& residual : rank) {
      HashFloats(residual, &hash);
    }
  }
  for (const std::vector<float>& buffer : state.aggregator_state) {
    HashFloats(buffer, &hash);
  }
  return hash;
}

Status MemoryStorage::CreateDir(const std::string& path) {
  (void)path;
  return OkStatus();
}

Status MemoryStorage::WriteFileSynced(const std::string& path,
                                      const std::string& data) {
  files_[path] = data;
  return OkStatus();
}

StatusOr<std::string> MemoryStorage::ReadFile(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) return NotFoundError(StrCat("no file ", path));
  return it->second;
}

Status MemoryStorage::AtomicRename(const std::string& from,
                                   const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end()) return NotFoundError(StrCat("no file ", from));
  std::string data = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(data);
  return OkStatus();
}

Status MemoryStorage::Remove(const std::string& path) {
  if (files_.erase(path) == 0) {
    return NotFoundError(StrCat("no file ", path));
  }
  return OkStatus();
}

StatusOr<std::vector<std::string>> MemoryStorage::List(
    const std::string& dir) {
  const std::string prefix = dir.empty() || dir.back() == '/' ? dir
                                                               : dir + "/";
  std::vector<std::string> names;
  for (const auto& [path, data] : files_) {
    if (HasPrefix(path, prefix) &&
        path.find('/', prefix.size()) == std::string::npos) {
      names.push_back(path.substr(prefix.size()));
    }
  }
  return names;
}

bool MemoryStorage::Exists(const std::string& path) {
  return files_.count(path) > 0;
}

std::vector<std::string> WorkloadNames() {
  return {"alexnet-q4-mpi8", "lstm-q4-nccl4", "mlp-ecq4-mpi8-recover"};
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "alexnet-q4-mpi8") {
    w.num_gpus = 8;
    w.global_batch = 64;
    w.codec = QsgdSpec(4);
    w.primitive = CommPrimitive::kMpi;
    w.window_steps = 32;
    w.eval_samples = 2048;
    // At the trainer's default 0.05, one seed in fifteen had not learned
    // after two epochs; 0.02 trains every seed tried.
    w.learning_rate = 0.02f;
    w.factory = [](uint64_t s) { return BuildMiniAlexNet(1, 8, 10, s); };
    w.make_dataset = [seed](int64_t n, uint64_t offset) {
      return Images(seed, n, offset);
    };
  } else if (name == "lstm-q4-nccl4") {
    w.num_gpus = 4;
    w.global_batch = 32;
    w.codec = QsgdSpec(4);
    w.primitive = CommPrimitive::kNccl;
    w.window_steps = 32;
    w.eval_samples = 256;
    w.factory = [](uint64_t s) {
      return BuildDeepLstmClassifier(12, 64, 2, 8, s);
    };
    w.make_dataset = [seed](int64_t n, uint64_t offset) {
      return Sequences(seed, n, offset);
    };
  } else if (name == "mlp-ecq4-mpi8-recover") {
    w.num_gpus = 8;
    w.global_batch = 16;
    w.codec = EcqSgdSpec(4);
    w.primitive = CommPrimitive::kMpi;
    w.window_steps = 32;
    w.eval_samples = 1024;
    w.save_every = 4;
    w.factory = [](uint64_t s) { return BuildMlp({64, 512, 512, 10}, s); };
    w.make_dataset = [seed](int64_t n, uint64_t offset) {
      return Images(seed, n, offset);
    };
    w.fault_plan = RecoveryPlan(seed, w.window_steps, w.save_every);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

Data MakeData(const Workload& workload) {
  Data data;
  data.train =
      workload.make_dataset(workload.window_steps * workload.global_batch, 0);
  data.first = workload.make_dataset(workload.global_batch, 0);
  data.tiny = workload.make_dataset(1, uint64_t{1} << 21);
  data.heldout =
      workload.make_dataset(workload.eval_samples, uint64_t{1} << 20);
  return data;
}

TrainerOptions MakeOptions(const Workload& workload, uint64_t seed,
                           const ExecutionContext& execution, bool faults,
                           std::shared_ptr<ckpt::Storage> storage) {
  TrainerOptions options;
  options.num_gpus = workload.num_gpus;
  options.global_batch_size = workload.global_batch;
  options.codec = workload.codec;
  options.primitive = workload.primitive;
  options.learning_rate = workload.learning_rate;
  options.seed = seed;
  options.execution = execution;
  if (faults && !workload.fault_plan.empty()) {
    auto plan = fault::FaultPlan::Parse(workload.fault_plan);
    CHECK_OK(plan.status());
    options.fault_tolerance.plan = *plan;
    options.fault_tolerance.retry.max_retries = 2;
    options.fault_tolerance.checkpoint_every = kSnapshotEvery;
  }
  if (faults && workload.save_every > 0) {
    options.durable_checkpoint.save_dir = "ckpt";
    options.durable_checkpoint.save_every = workload.save_every;
    options.durable_checkpoint.storage =
        storage != nullptr ? std::move(storage)
                           : std::make_shared<MemoryStorage>();
  }
  return options;
}

WindowResult RunWindow(const Workload& workload, const Data& data,
                       const TrainerOptions& options,
                       const ckpt::TrainerState& start, bool evaluate) {
  WindowResult result;
  auto trainer = SyncTrainer::Restore(workload.factory, options, start);
  if (!trainer.ok()) {
    result.error = trainer.status().ToString();
    return result;
  }
  const int64_t allocations = AllocationCount();
  const int64_t steal = StealTicks();
  const double t0 = NowSeconds();
  auto epochs = (*trainer)->Train(*data.train, *data.tiny, 1);
  result.seconds = NowSeconds() - t0;
  result.steal = StealTicks() - steal;
  result.allocations = AllocationCount() - allocations;
  if (!epochs.ok()) {
    result.error = epochs.status().ToString();
    return result;
  }
  result.samples = workload.window_steps * workload.global_batch;
  result.train_loss = epochs->back().train_loss;
  result.digest = StateDigest((*trainer)->CaptureState());
  result.wire_bytes = (*trainer)->total_comm().wire_bytes;
  result.messages = (*trainer)->total_comm().messages;
  result.virtual_seconds =
      (*trainer)->virtual_seconds() - start.virtual_seconds;
  if (evaluate) {
    const EvalResult eval = (*trainer)->Evaluate(*data.heldout);
    result.accuracy = static_cast<double>(eval.correct) /
                      static_cast<double>(data.heldout->NumSamples());
  }
  result.ok = std::isfinite(result.train_loss);
  if (!result.ok) result.error = "non-finite training loss";
  return result;
}

}  // namespace perfbench
}  // namespace lpsgd
