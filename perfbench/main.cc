// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Step-throughput benchmark (perfbench/README.md).
//
//   lpsgd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--commit <id>] [--trace_out <path>]
//   lpsgd_perfbench --self_test
//
// --trace 0 prints the end-to-end metrics of untraced SyncTrainer runs;
// --trace 1 prints the per-layer metrics of the traced layer replay and
// its companion trainer runs. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "base/logging.h"
#include "base/simd/simd.h"
#include "base/strings.h"
#include "bench.h"
#include "ckpt/manager.h"
#include "obs/metrics.h"
#include "obs/profile.h"

// Counting global allocator: every operator new in this process bumps the
// calling thread's counter. The benchmark reads it around serial code
// only, where the count is exact and repeats from run to run.
namespace {
thread_local int64_t t_allocations = 0;
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  ++t_allocations;
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return operator new(size);
}
__attribute__((noinline)) void* operator new(
    std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
__attribute__((noinline)) void* operator new[](
    std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
__attribute__((noinline)) void operator delete(void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete(void* ptr,
                                               std::size_t) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr,
                                                 std::size_t) noexcept {
  std::free(ptr);
}

namespace lpsgd {
namespace perfbench {

int64_t AllocationCount() { return t_allocations; }

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string commit = "unknown";
  std::string trace_out;
  // Scratch directory for checkpoint files handed to restore children.
  std::string work_dir = ".bench_build/work";
  // Set in a child process: "setup" or "restore" (see RunChild).
  std::string child;
};

// Layer names of every workload's network, in first-seen order: each
// workload prints a forward/backward pair for all of them (0 for layers
// its own network does not have), so every run prints the same names.
std::vector<std::string> AllLayerNames() {
  std::vector<std::string> names;
  for (const std::string& workload_name : WorkloadNames()) {
    Workload workload;
    CHECK(MakeWorkload(workload_name, 1, &workload));
    Network net = workload.factory(1);
    for (int i = 0; i < net.num_layers(); ++i) {
      const std::string name = net.layer(i).name();
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  return names;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string DigestHex(uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

// Everything one run measures, shared by both modes.
struct Run {
  Run(const Args& run_args, Workload run_workload)
      : args(run_args),
        workload(std::move(run_workload)),
        threads(static_cast<int>(std::thread::hardware_concurrency())),
        // A set-up child builds its own datasets inside its clock, and
        // children run at 1 thread only.
        mt(args.child.empty() ? ExecutionContext::WithThreads(threads)
                              : ExecutionContext::Serial()) {
    if (args.child != "setup") data = MakeData(workload);
  }

  TrainerOptions Options(bool mt_threads, bool faults,
                         std::shared_ptr<ckpt::Storage> storage = nullptr) {
    return MakeOptions(workload, args.seed,
                       mt_threads ? mt : ExecutionContext::Serial(), faults,
                       std::move(storage));
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }

  Args args;
  Workload workload;
  Data data;
  int threads;
  ExecutionContext mt;  // one pool shared by every multi-threaded trainer
  Gate gate;
  std::vector<Metric> metrics;
  ckpt::TrainerState start;  // post-warm-up state every window starts from
};

// Held-out accuracy a window's end state must beat on every workload
// (chance is 0.1 or 0.125): a sanity check that training still trains.
constexpr double kAccuracyFloor = 0.3;

// Dataset construction through the first committed step, at 1 thread.
// Returns {set-up seconds}.
std::vector<double> SetUpOnce(Run& run) {
  const double t0 = NowSeconds();
  Data data = MakeData(run.workload);
  auto trainer =
      SyncTrainer::Create(run.workload.factory, run.Options(false, true));
  bool ok = trainer.ok();
  if (ok) {
    auto epochs = (*trainer)->Train(*data.first, *data.tiny, 1);
    ok = epochs.ok() && std::isfinite(epochs->back().train_loss);
  }
  const double seconds = NowSeconds() - t0;
  run.gate.Check(ok, "set-up step failed");
  return {seconds};
}

// One fault-free epoch over the window dataset from fresh weights; its end
// state is where every timed window starts.
bool WarmUp(Run& run) {
  auto trainer =
      SyncTrainer::Create(run.workload.factory, run.Options(false, false));
  if (!trainer.ok()) {
    run.gate.Check(false, "warm-up create: " + trainer.status().ToString());
    return false;
  }
  auto epochs = (*trainer)->Train(*run.data.train, *run.data.tiny, 1);
  const bool ok = epochs.ok() && std::isfinite(epochs->back().train_loss);
  run.gate.Check(ok, "warm-up epoch failed");
  if (ok) run.start = (*trainer)->CaptureState();
  return ok;
}

// Checks a window against the reference window of the same configuration:
// it succeeded, and its end digest and exchange accounting are identical.
void CheckWindow(Gate& gate, const WindowResult& window,
                 const WindowResult& reference, const std::string& what) {
  gate.Check(window.ok, what + " window failed: " + window.error);
  gate.Check(window.digest == reference.digest,
             what + " window digest " + DigestHex(window.digest) +
                 " differs from " + DigestHex(reference.digest));
  gate.Check(window.wire_bytes == reference.wire_bytes &&
                 window.messages == reference.messages &&
                 window.virtual_seconds == reference.virtual_seconds,
             what + " window exchange accounting differs");
}

// Sample count and spread of one metric's samples, on stderr.
void Describe(const std::string& what, const std::vector<double>& values) {
  std::cerr << what << ": n=" << values.size()
            << " min=" << Quantile(values, 0.0)
            << " p25=" << Quantile(values, 0.25)
            << " median=" << Median(values)
            << " p75=" << Quantile(values, 0.75)
            << " max=" << Quantile(values, 1.0) << "\n";
}

// Throughput samples: the reported value is the least-stolen median; all
// samples and the steal they saw are described on stderr.
double Report(const std::string& what, const std::vector<Sample>& samples) {
  std::vector<double> values, steal;
  for (const Sample& sample : samples) {
    values.push_back(sample.value);
    steal.push_back(static_cast<double>(sample.steal));
  }
  size_t kept = 0;
  const double value = LeastStolenMedian(samples, &kept);
  Describe(what + " all samples", values);
  Describe(what + " steal ticks", steal);
  std::cerr << what << ": reported " << value << ", median of the " << kept
            << " least-stolen samples\n";
  return value;
}

Sample WindowSample(const WindowResult& window) {
  return {window.seconds > 0
              ? static_cast<double>(window.samples) / window.seconds
              : 0.0,
          window.seconds, window.steal};
}

// The source a restore reads: checkpoints written by one faulted window
// when the workload saves during training (the last save torn), else one
// checkpoint of the warm-up state.
std::shared_ptr<MemoryStorage> MakeRestoreSource(Run& run) {
  auto storage = std::make_shared<MemoryStorage>();
  if (run.workload.save_every > 0) {
    const WindowResult window = RunWindow(
        run.workload, run.data, run.Options(false, true, storage), run.start);
    run.gate.Check(window.ok, "restore-source window: " + window.error);
  } else {
    TrainerOptions options = run.Options(false, false);
    options.durable_checkpoint.save_dir = "ckpt";
    options.durable_checkpoint.storage = storage;
    auto trainer =
        SyncTrainer::Restore(run.workload.factory, options, run.start);
    run.gate.Check(trainer.ok() && (*trainer)->SaveDurableNow().ok(),
                   "restore-source save failed");
  }
  return storage;
}

// The kill->resume path: newest intact checkpoint, a restored trainer,
// and its first committed step (a kill@ event stops Train right after).
// Returns {total, RestoreLatest (read + Deserialize), fallbacks}.
std::vector<double> RestoreOnce(Run& run,
                                const std::shared_ptr<ckpt::Storage>& source) {
  std::vector<double> timing(3, 0.0);
  const double t0 = NowSeconds();
  ckpt::DurableCheckpointOptions durable;
  durable.save_dir = "ckpt";
  durable.storage = source;
  auto manager = ckpt::CheckpointManager::Create(durable);
  if (!manager.ok()) {
    run.gate.Check(false, "restore manager: " + manager.status().ToString());
    return timing;
  }
  auto restored = (*manager)->RestoreLatest();
  const double t1 = NowSeconds();
  if (!restored.ok()) {
    run.gate.Check(false, "RestoreLatest: " + restored.status().ToString());
    return timing;
  }
  TrainerOptions options = run.Options(false, true);
  const std::string kill = StrCat("kill@", restored->state.iteration + 1);
  auto plan = fault::FaultPlan::Parse(
      run.workload.fault_plan.empty() ? kill
                                      : run.workload.fault_plan + ";" + kill);
  CHECK_OK(plan.status());
  options.fault_tolerance.plan = *plan;
  auto trainer =
      SyncTrainer::Restore(run.workload.factory, options, restored->state);
  bool ok = trainer.ok();
  if (ok) {
    auto epochs = (*trainer)->Train(*run.data.train, *run.data.tiny, 1);
    ok = !epochs.ok() && fault::IsProcessKill(epochs.status()) &&
         (*trainer)->CaptureState().iteration ==
             restored->state.iteration + 1;
  }
  timing = {NowSeconds() - t0, t1 - t0,
            static_cast<double>(restored->fallbacks)};
  run.gate.Check(ok, "restored trainer did not commit its first step");
  return timing;
}

// Set-up and restore are what a fresh process pays (a new job; a job
// resumed after a kill), so each repetition runs in a child process of
// this binary; the parent collects the child's timings. The restore
// source reaches the child as files under the work directory, which the
// child loads into memory before its clock starts.
std::vector<double> RunChild(Run& run, const std::string& mode,
                             const std::string& dir) {
  char self[4096] = {0};
  const ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) {
    run.gate.Check(false, "cannot locate the benchmark binary");
    return {};
  }
  const std::string command =
      StrCat("'", std::string(self, static_cast<size_t>(n)),
             "' --workload ", run.workload.name, " --seed ", run.args.seed,
             " --child ", mode, dir.empty() ? "" : " --work_dir '" + dir + "'");
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    run.gate.Check(false, "cannot start " + command);
    return {};
  }
  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  std::vector<double> values;
  std::istringstream in(output);
  std::string word;
  while (in >> word) {
    if (word == "child") values.clear();
    else values.push_back(std::strtod(word.c_str(), nullptr));
  }
  run.gate.Check(status == 0 && !values.empty(), mode + " child failed");
  return status == 0 ? values : std::vector<double>{};
}

// Writes the restore source's files under `dir` for the restore children.
bool DumpStorage(const MemoryStorage& storage, const std::string& dir) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  for (const auto& [path, data] : storage.files()) {
    const std::filesystem::path file = std::filesystem::path(dir) / path;
    std::filesystem::create_directories(file.parent_path(), error);
    std::ofstream out(file, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out.good()) return false;
  }
  return true;
}

std::shared_ptr<MemoryStorage> LoadStorage(const std::string& dir) {
  auto storage = std::make_shared<MemoryStorage>();
  std::error_code error;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, error)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string name =
        std::filesystem::relative(entry.path(), dir).generic_string();
    CHECK_OK(storage->WriteFileSynced(name, bytes.str()));
  }
  return storage;
}

// Set-up and restore repetitions in child processes. The constructor
// writes the restore source under the work directory and the destructor
// removes it; each Measure() runs one set-up child and one restore child,
// so callers can spread repetitions over a run like its windows.
class ColdStarts {
 public:
  explicit ColdStarts(Run& run)
      : run_(run),
        dir_(StrCat(run.args.work_dir, "/", run.workload.name, "-",
                    run.args.seed, "-", getpid())) {
    run_.gate.Check(DumpStorage(*MakeRestoreSource(run_), dir_),
                    "cannot write " + dir_);
  }
  ~ColdStarts() {
    std::error_code error;
    std::filesystem::remove_all(dir_, error);
  }
  ColdStarts(const ColdStarts&) = delete;
  ColdStarts& operator=(const ColdStarts&) = delete;

  void Measure() {
    const std::vector<double> setup_child = RunChild(run_, "setup", "");
    if (setup_child.size() == 1) setup.push_back(setup_child[0]);
    const std::vector<double> restore_child = RunChild(run_, "restore", dir_);
    if (restore_child.size() == 3) {
      restore.push_back(restore_child[0]);
      restore_latest.push_back(restore_child[1]);
      fallbacks = static_cast<int>(restore_child[2]);
    }
  }

  // Seconds per child: set-up; restore, of which RestoreLatest.
  std::vector<double> setup, restore, restore_latest;
  int fallbacks = 0;

 private:
  Run& run_;
  const std::string dir_;
};

// Throughput of SyncTrainer::Evaluate over the held-out set, 1 thread.
Sample EvalOnce(Run& run, SyncTrainer& trainer) {
  const int64_t steal = StealTicks();
  const double t0 = NowSeconds();
  const EvalResult eval = trainer.Evaluate(*run.data.heldout);
  const double seconds = NowSeconds() - t0;
  const double samples = static_cast<double>(run.data.heldout->NumSamples());
  run.gate.Check(std::isfinite(eval.loss_sum), "non-finite eval loss");
  return {samples / seconds, seconds, StealTicks() - steal};
}

// --trace 0: the six end-to-end metrics of untraced trainer runs.
void RunEndToEnd(Run& run, int min_rounds) {
  const double t_begin = NowSeconds();
  if (!WarmUp(run)) return;
  ColdStarts cold(run);

  auto eval_trainer = SyncTrainer::Restore(
      run.workload.factory, run.Options(false, false), run.start);
  CHECK_OK(eval_trainer.status());
  // Interleave 1-thread windows, all-core windows, eval passes and
  // cold-start children so slow and fast phases of the host fall on all
  // of them alike.
  std::vector<Sample> train_1, train_mt, eval;
  WindowResult reference;
  for (int round = 0;
       round < min_rounds || NowSeconds() < t_begin + run.args.seconds;
       ++round) {
    const WindowResult one = RunWindow(run.workload, run.data,
                                       run.Options(false, true), run.start,
                                       /*evaluate=*/round == 0);
    if (round == 0) reference = one;
    CheckWindow(run.gate, one, reference, "1-thread");
    train_1.push_back(WindowSample(one));
    const WindowResult all =
        RunWindow(run.workload, run.data, run.Options(true, true), run.start);
    CheckWindow(run.gate, all, reference,
                StrCat(run.threads, "-thread vs 1-thread"));
    train_mt.push_back(WindowSample(all));
    for (int pass = 0; pass < 2; ++pass) {
      eval.push_back(EvalOnce(run, **eval_trainer));
    }
    cold.Measure();
    if (!one.ok || !all.ok) break;
  }
  run.gate.Check(reference.accuracy > kAccuracyFloor,
                 StrCat("held-out accuracy ", reference.accuracy,
                        " not above ", kAccuracyFloor));

  std::cerr << "held-out accuracy " << reference.accuracy << "\n";
  run.Add("train_samples_per_s",
          Report("train_samples_per_s (1-thread windows)", train_1),
          "samples/s");
  run.Add("train_samples_per_s_mt",
          Report(StrCat("train_samples_per_s_mt (", run.threads,
                        "-thread windows)"),
                 train_mt),
          "samples/s");
  run.Add("eval_samples_per_s",
          Report("eval_samples_per_s (eval passes)", eval), "samples/s");
  Describe("setup_s (child processes)", cold.setup);
  Describe("restore_s (child processes)", cold.restore);
  run.Add("setup_s", Median(cold.setup), "s");
  run.Add("restore_s", Median(cold.restore), "s");
  run.Add("peak_rss_mb", PeakRssMb(), "MB");
}

// Reads comm/retries and trainer/rollbacks over one faulted window.
void CountFaults(Run& run, int64_t* retries, int64_t* rollbacks) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.Reset();
  registry.set_enabled(true);
  const WindowResult window =
      RunWindow(run.workload, run.data, run.Options(false, true), run.start);
  run.gate.Check(window.ok, "counted faulted window: " + window.error);
  *retries = registry.CounterValue("comm/retries");
  *rollbacks = registry.CounterValue("trainer/rollbacks");
  registry.set_enabled(was_enabled);
  registry.Reset();
}

// --trace 1: the traced layer replay plus the trainer runs the per-layer
// ratios are taken against.
void RunTraced(Run& run, int min_rounds) {
  const double t_begin = NowSeconds();
  const double budget = run.args.seconds;
  if (!WarmUp(run)) return;
  const int64_t steps = run.workload.window_steps;
  const double window_samples =
      static_cast<double>(steps * run.workload.global_batch);
  const bool has_faults = !run.workload.fault_plan.empty();

  // Fault-free and faulted 1-thread windows, all-core faulted windows.
  // Without a fault plan the faulted configuration is the fault-free one.
  std::vector<Sample> free_1, faulted_1, faulted_mt;
  std::vector<double> free_allocs;
  WindowResult free_ref, faulted_ref;
  for (int round = 0;
       round < min_rounds || NowSeconds() < t_begin + 0.2 * budget;
       ++round) {
    const WindowResult free =
        RunWindow(run.workload, run.data, run.Options(false, false),
                  run.start, /*evaluate=*/round == 0);
    const WindowResult faulted =
        has_faults ? RunWindow(run.workload, run.data,
                               run.Options(false, true), run.start)
                   : free;
    const WindowResult all = RunWindow(run.workload, run.data,
                                       run.Options(true, true), run.start);
    if (round == 0) {
      free_ref = free;
      faulted_ref = faulted;
    }
    CheckWindow(run.gate, free, free_ref, "fault-free");
    CheckWindow(run.gate, faulted, faulted_ref, "faulted");
    CheckWindow(run.gate, all, faulted_ref, "all-core faulted");
    free_1.push_back(WindowSample(free));
    faulted_1.push_back(WindowSample(faulted));
    faulted_mt.push_back(WindowSample(all));
    free_allocs.push_back(static_cast<double>(free.allocations));
    if (!free.ok || !faulted.ok || !all.ok) return;
  }
  run.gate.Check(free_ref.accuracy > kAccuracyFloor,
                 StrCat("held-out accuracy ", free_ref.accuracy,
                        " not above ", kAccuracyFloor));
  const double free_sps = Report("fault-free 1-thread windows", free_1);
  const double faulted_sps = Report("faulted 1-thread windows", faulted_1);
  const double faulted_mt_sps = Report("faulted all-core windows", faulted_mt);

  // The replay, from the same start state as the windows.
  const ReplayResult replay = RunReplay(run.workload, run.data, run.args.seed,
                                        run.start, 0.25 * budget);
  run.gate.Check(replay.ok, "replay failed: " + replay.error);
  run.gate.Check(replay.digest == free_ref.digest,
                 "replay digest " + DigestHex(replay.digest) +
                     " differs from the trainer's " +
                     DigestHex(free_ref.digest));
  for (const Metric& metric : replay.metrics) run.metrics.push_back(metric);
  if (!run.args.trace_out.empty()) {
    std::ofstream out(run.args.trace_out);
    out << replay.trace_json;
    run.gate.Check(out.good(), "trace write failed: " + run.args.trace_out);
  }
  // Layer pairs of the other workloads' networks read 0 here.
  for (const std::string& layer : AllLayerNames()) {
    const std::string forward = StrCat("nn.layer.", layer, ".forward_ms");
    bool present = false;
    for (const Metric& metric : run.metrics) present |= metric.name == forward;
    if (!present) {
      run.Add(forward, 0.0, "ms");
      run.Add(StrCat("nn.layer.", layer, ".backward_ms"), 0.0, "ms");
    }
  }

  // Trainer-level ratios and counts.
  const double trainer_step_ms =
      1e3 * static_cast<double>(run.workload.global_batch) / free_sps;
  run.Add("core.trainer_step_ms", trainer_step_ms, "ms");
  run.Add("core.replay_vs_trainer", replay.step_ms / trainer_step_ms,
          "ratio");
  const double allocs = free_allocs.front();
  run.gate.Check(
      std::all_of(free_allocs.begin(), free_allocs.end(),
                  [&](double a) { return a == allocs; }),
      "trainer allocation count differs between identical windows");
  run.Add("core.allocs_per_step", allocs / static_cast<double>(steps),
          "count");
  run.Add("base.thread_speedup", faulted_mt_sps / faulted_sps, "ratio");

  // Fault layer: counts, overhead, and the recovered-vs-fault-free digest.
  int64_t retries = 0;
  int64_t rollbacks = 0;
  if (has_faults) CountFaults(run, &retries, &rollbacks);
  run.Add("fault.retries", static_cast<double>(retries), "count");
  run.Add("fault.rollbacks", static_cast<double>(rollbacks), "count");
  run.Add("fault.overhead_share",
          has_faults ? 1.0 - faulted_sps / free_sps : 0.0, "ratio");
  run.Add("fault.recovery_divergence",
          faulted_ref.digest != free_ref.digest ? 1.0 : 0.0, "flag");

  // Checkpoint layer: the save path in this process, the restore path in
  // child processes (as restore_s measures it).
  {
    auto trainer = SyncTrainer::Restore(
        run.workload.factory, run.Options(false, false), run.start);
    CHECK_OK(trainer.status());
    ckpt::DurableCheckpointOptions durable;
    durable.save_dir = "ckpt";
    durable.storage = std::make_shared<MemoryStorage>();
    auto manager = ckpt::CheckpointManager::Create(durable);
    CHECK_OK(manager.status());
    // Apply cost as paired in-process differences: Restore of the warm-up
    // state minus a Create of the same trainer just before it. It can read
    // below 0 when the apply work is smaller than Create's jitter.
    std::vector<double> capture, serialize, save, apply;
    size_t bytes = 0;
    for (int i = 0; i < 5; ++i) {
      double t0 = NowSeconds();
      auto created =
          SyncTrainer::Create(run.workload.factory, run.Options(false, false));
      const double create_seconds = NowSeconds() - t0;
      t0 = NowSeconds();
      auto restored = SyncTrainer::Restore(
          run.workload.factory, run.Options(false, false), run.start);
      apply.push_back(NowSeconds() - t0 - create_seconds);
      run.gate.Check(created.ok() && restored.ok(), "create/restore failed");
    }
    for (int i = 0; i < 5; ++i) {
      double t0 = NowSeconds();
      const ckpt::TrainerState state = (*trainer)->CaptureState();
      capture.push_back(NowSeconds() - t0);
      t0 = NowSeconds();
      bytes = ckpt::Serialize(state).size();
      serialize.push_back(NowSeconds() - t0);
      t0 = NowSeconds();
      run.gate.Check((*manager)->Save(state).ok(), "checkpoint save failed");
      save.push_back(NowSeconds() - t0);
    }
    ColdStarts cold(run);
    for (int i = 0; i < 3; ++i) cold.Measure();
    const bool saves = run.workload.save_every > 0;
    const double saves_per_window =
        saves ? static_cast<double>(steps / run.workload.save_every) : 0.0;
    run.Add("ckpt.capture_ms", 1e3 * Median(capture), "ms");
    run.Add("ckpt.serialize_ms", 1e3 * Median(serialize), "ms");
    run.Add("ckpt.save_ms", 1e3 * Median(save), "ms");
    run.Add("ckpt.stall_share",
            saves_per_window * (Median(capture) + Median(save)) /
                (window_samples / faulted_sps),
            "ratio");
    run.Add("ckpt.bytes",
            saves ? static_cast<double>(bytes) /
                        static_cast<double>(run.workload.save_every)
                  : 0.0,
            "bytes");
    run.Add("ckpt.restore_latest_ms", 1e3 * Median(cold.restore_latest),
            "ms");
    run.Add("ckpt.apply_ms", 1e3 * Median(apply), "ms");
    run.Add("ckpt.fallbacks", static_cast<double>(cold.fallbacks), "count");
  }

  // A plain 1-rank fp32 run of the same task: the single-worker baseline.
  {
    TrainerOptions options = run.Options(false, false);
    options.num_gpus = 1;
    options.codec = FullPrecisionSpec();
    auto single = SyncTrainer::Create(run.workload.factory, options);
    CHECK_OK(single.status());
    std::vector<double> rates;
    for (int i = 0; i < 4; ++i) {
      const double t0 = NowSeconds();
      auto epochs = (*single)->Train(*run.data.train, *run.data.tiny, 1);
      const double seconds = NowSeconds() - t0;
      run.gate.Check(epochs.ok(), "single-rank epoch failed");
      if (i > 0) rates.push_back(window_samples / seconds);
    }
    run.Add("core.single_rank_samples_per_s", Median(rates), "samples/s");
  }

  // Profiler overhead: fault-free windows with obs::Profiler on and off,
  // interleaved.
  {
    obs::Profiler& profiler = obs::Profiler::Global();
    const bool was_enabled = profiler.enabled();
    std::vector<double> on, off;
    for (int i = 0; i < 1 || NowSeconds() < t_begin + budget; ++i) {
      profiler.set_enabled(true);
      const WindowResult profiled = RunWindow(
          run.workload, run.data, run.Options(false, false), run.start);
      profiler.set_enabled(false);
      const WindowResult plain = RunWindow(
          run.workload, run.data, run.Options(false, false), run.start);
      CheckWindow(run.gate, profiled, free_ref, "profiled");
      on.push_back(profiled.seconds);
      off.push_back(plain.seconds);
    }
    profiler.set_enabled(was_enabled);
    profiler.Reset();
    run.Add("obs.profiler_overhead", Median(on) / Median(off) - 1.0,
            "ratio");
  }
}

void PrintMeta(const Run& run) {
  std::cout << "{\"meta\": {\"workload\": \"" << run.workload.name
            << "\", \"seed\": " << run.args.seed
            << ", \"nproc\": " << run.threads << ", \"simd_isa\": \""
            << SimdIsaName(ActiveSimdIsa()) << "\", \"build_type\": \""
            << LPSGD_PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
            << LPSGD_PERFBENCH_COMPILER << "\", \"commit\": \""
            << run.args.commit << "\", \"trace\": "
            << (run.args.trace ? 1 : 0) << ", \"fault_plan\": \""
            << run.workload.fault_plan << "\"}}" << std::endl;
}

std::string ResultJson(const Gate& gate, const std::vector<Metric>& metrics) {
  std::string out = StrCat("{\"correct\": ",
                           gate.failed() == 0 ? "true" : "false",
                           ", \"attempted\": ", gate.attempted(),
                           ", \"failed\": ", gate.failed(),
                           ", \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += StrCat(i > 0 ? ", " : "", "\"", metrics[i].name,
                  "\": {\"value\": ", value, ", \"unit\": \"",
                  metrics[i].unit, "\"}");
  }
  return out + "}}";
}

// One benchmark run; returns its metrics and gate.
void Measure(Run& run, int min_rounds) {
  if (run.args.trace) {
    RunTraced(run, min_rounds);
  } else {
    RunEndToEnd(run, min_rounds);
  }
  for (const std::string& failure : run.gate.failures()) {
    std::cerr << "CHECK FAILED: " << failure << "\n";
  }
}

// The per-layer names every traced run must print: the README's list plus
// the layer pairs.
std::vector<std::string> RequiredTracedNames() {
  std::vector<std::string> names = {
      "data.batch_ms", "nn.forward_ms", "nn.backward_ms", "nn.loss_ms",
      "nn.optimizer_ms", "nn.eval_forward_ms", "nn.allocs_per_step",
      "quant.encode_ms", "quant.decode_ms", "quant.wire_bytes_per_step",
      "comm.allreduce_ms", "comm.messages_per_step",
      "comm.virtual_s_per_step", "comm.allocs_per_step", "core.step_ms_p50",
      "core.step_ms_p99", "core.step_coverage", "core.replay_vs_trainer",
      "core.single_rank_samples_per_s", "core.allocs_per_step",
      "base.thread_speedup", "ckpt.capture_ms", "ckpt.serialize_ms",
      "ckpt.save_ms", "ckpt.stall_share", "ckpt.bytes",
      "ckpt.restore_latest_ms", "ckpt.apply_ms", "ckpt.fallbacks",
      "fault.retries", "fault.rollbacks", "fault.overhead_share",
      "fault.recovery_divergence", "obs.profiler_overhead"};
  for (const std::string& layer : AllLayerNames()) {
    names.push_back(StrCat("nn.layer.", layer, ".forward_ms"));
    names.push_back(StrCat("nn.layer.", layer, ".backward_ms"));
  }
  return names;
}

// Self-test: a one-window smoke run of every workload in both modes, with
// the emitted names checked, and a corrupted digest shown to trip the
// gate. Returns the number of failed checks.
int SelfTest(const Args& base) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::cerr << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  const std::regex name_pattern("[A-Za-z0-9_.-]+");
  for (const std::string& name : WorkloadNames()) {
    for (bool trace : {false, true}) {
      Args args = base;
      args.workload = name;
      args.trace = trace;
      args.seconds = 0.0;
      Workload workload;
      CHECK(MakeWorkload(name, args.seed, &workload));
      Run run(args, std::move(workload));
      Measure(run, /*min_rounds=*/1);
      const std::string mode = StrCat(name, trace ? " traced" : " end-to-end");
      expect(run.gate.failed() == 0 && run.gate.attempted() > 0,
             mode + ": smoke run passes its correctness gate");
      std::set<std::string> emitted;
      bool names_ok = true;
      for (const Metric& metric : run.metrics) {
        names_ok &= std::regex_match(metric.name, name_pattern) &&
                    !metric.unit.empty() && std::isfinite(metric.value);
        names_ok &= emitted.insert(metric.name).second;
      }
      expect(names_ok, mode + ": names match [A-Za-z0-9_.-]+, units set");
      const std::vector<std::string> required =
          trace ? RequiredTracedNames()
                : std::vector<std::string>{
                      "train_samples_per_s", "train_samples_per_s_mt",
                      "eval_samples_per_s", "setup_s", "restore_s",
                      "peak_rss_mb"};
      bool all_present = true;
      for (const std::string& metric : required) {
        if (emitted.count(metric) == 0) {
          std::cerr << "     missing " << metric << "\n";
          all_present = false;
        }
      }
      expect(all_present, mode + ": every named metric is present");
      // The emitted names and units, for run.py to check against
      // BENCHMARK.json.
      std::cout << "{\"self_test_names\": {\"workload\": \"" << name
                << "\", \"trace\": " << (trace ? 1 : 0) << ", \"metrics\": {";
      for (size_t i = 0; i < run.metrics.size(); ++i) {
        std::cout << (i > 0 ? ", " : "") << "\"" << run.metrics[i].name
                  << "\": \"" << run.metrics[i].unit << "\"";
      }
      std::cout << "}}}" << std::endl;
      if (!trace) {
        for (const Metric& metric : run.metrics) {
          if (metric.name == "setup_s" || metric.name == "restore_s") {
            expect(metric.value > 0, mode + ": " + metric.name + " > 0");
          }
        }
      }
    }
  }
  // A corrupted digest must fail the gate.
  Workload workload;
  CHECK(MakeWorkload(WorkloadNames()[0], base.seed, &workload));
  Args args = base;
  Run run(args, std::move(workload));
  CHECK(WarmUp(run));
  const WindowResult window =
      RunWindow(run.workload, run.data, run.Options(false, false), run.start);
  Gate clean;
  CheckWindow(clean, window, window, "self");
  WindowResult corrupted = window;
  corrupted.digest ^= 1;
  Gate tripped;
  CheckWindow(tripped, corrupted, window, "corrupted");
  expect(clean.failed() == 0 && tripped.failed() == 1,
         "a corrupted window digest trips the correctness gate");
  return failures;
}

// A child process's single measurement (see RunChild); prints
// "child <values...>" and exits non-zero when its checks fail.
int RunChildMode(Run& run) {
  std::vector<double> values;
  if (run.args.child == "setup") {
    values = SetUpOnce(run);
  } else if (run.args.child == "restore") {
    values = RestoreOnce(run, LoadStorage(run.args.work_dir));
  } else {
    std::cerr << "unknown --child mode " << run.args.child << "\n";
    return 2;
  }
  for (const std::string& failure : run.gate.failures()) {
    std::cerr << "CHECK FAILED (" << run.args.child << " child): " << failure
              << "\n";
  }
  std::cout << "child";
  for (double value : values) {
    char text[64];
    std::snprintf(text, sizeof(text), " %.17g", value);
    std::cout << text;
  }
  std::cout << std::endl;
  return run.gate.failed() == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (flag == "--workload") {
      args->workload = value();
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value() == "1";
    } else if (flag == "--commit") {
      args->commit = value();
    } else if (flag == "--trace_out") {
      args->trace_out = value();
    } else if (flag == "--work_dir") {
      args->work_dir = value();
    } else if (flag == "--child") {
      args->child = value();
    } else if (flag == "--self_test") {
      args->self_test = true;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench
}  // namespace lpsgd

int main(int argc, char** argv) {
  using namespace lpsgd::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.self_test) {
    const int failures = SelfTest(args);
    std::cerr << (failures == 0 ? "self-test passed" : "self-test FAILED")
              << "\n";
    return failures == 0 ? 0 : 1;
  }
  Workload workload;
  if (!MakeWorkload(args.workload, args.seed, &workload)) {
    std::cerr << "unknown workload \"" << args.workload << "\"; one of:";
    for (const std::string& name : WorkloadNames()) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
  }
  Run run(args, std::move(workload));
  if (!args.child.empty()) return RunChildMode(run);
  PrintMeta(run);
  Measure(run, /*min_rounds=*/args.trace ? 2 : 5);
  std::cout << ResultJson(run.gate, run.metrics) << std::endl;
  return 0;
}
