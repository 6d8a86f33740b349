// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Durable-checkpoint chaos runs (ISSUE: durable crash-consistent
// checkpointing): killing training at any iteration and restoring from
// the newest durable checkpoint must finish in a final checkpoint
// bit-equal to the uninterrupted run — for every registered codec family
// across both fabrics. Storage faults (torn pages,
// short writes, full disks) must never let a corrupt checkpoint load,
// and elastic restores at a different rank count must keep training.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/strings.h"
#include "ckpt/manager.h"
#include "ckpt/storage.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "fault/fault_plan.h"
#include "nn/model_zoo.h"
#include "obs/metrics.h"
#include "testing/codec_matrix.h"

namespace lpsgd {
namespace {

SyntheticImageDataset MakeImages(int64_t n, int64_t offset = 0) {
  SyntheticImageOptions options;
  options.num_classes = 4;
  options.channels = 1;
  options.height = 4;
  options.width = 4;
  options.num_samples = n;
  options.signal = 2.0f;
  options.noise = 0.5f;
  options.sample_offset = offset;
  return SyntheticImageDataset(options);
}

SyncTrainer::NetworkFactory MlpFactory() {
  return [](uint64_t seed) { return BuildMlp({16, 12, 4}, seed); };
}

// 128 samples / batch 32 = 4 iterations per epoch; every test trains 2
// epochs, so iterations run 1..8 and save_every=2 lands durable
// checkpoints at 2, 4, 6, 8.
constexpr int kEpochs = 2;
constexpr int64_t kFinalIteration = 8;

TrainerOptions BaseOptions(const CodecSpec& codec, CommPrimitive primitive,
                           const std::string& save_dir) {
  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 32;
  options.learning_rate = 0.05f;
  options.codec = codec;
  options.primitive = primitive;
  options.seed = 7;
  options.execution = ExecutionContext::Serial();
  options.durable_checkpoint.save_dir =
      ckpt::JoinPath(::testing::TempDir(), save_dir);
  options.durable_checkpoint.save_every = 2;
  return options;
}

// Reads the bytes of the checkpoint file for `iteration` in `dir`.
std::string CheckpointBytes(const std::string& save_dir, int64_t iteration) {
  auto storage = ckpt::MakePosixStorage();
  ckpt::DurableCheckpointOptions options;
  options.save_dir = save_dir;
  auto manager = ckpt::CheckpointManager::Create(options);
  EXPECT_TRUE(manager.ok()) << manager.status();
  if (!manager.ok()) return {};
  auto bytes = storage->ReadFile((*manager)->CheckpointPath(iteration));
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? bytes.value() : std::string();
}

// Uninterrupted reference: train kEpochs, then persist the final state.
// Returns the final checkpoint's bytes.
std::string RunReference(TrainerOptions options, const Dataset& train,
                         const Dataset& test) {
  auto trainer = SyncTrainer::Create(MlpFactory(), options);
  EXPECT_TRUE(trainer.ok()) << trainer.status();
  if (!trainer.ok()) return {};
  auto metrics = (*trainer)->Train(train, test, kEpochs);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  if (!metrics.ok()) return {};
  EXPECT_TRUE((*trainer)->SaveDurableNow().ok());
  return CheckpointBytes(options.durable_checkpoint.save_dir,
                         kFinalIteration);
}

// Kill-and-restore: train with kill@<k> until the simulated crash, then
// restart from the newest durable checkpoint (fresh trainer, kill verb
// stripped) and finish. Returns the final checkpoint's bytes.
std::string RunKilledAndResumed(TrainerOptions options, const Dataset& train,
                                const Dataset& test, int64_t kill_at) {
  TrainerOptions killed = options;
  auto plan = fault::FaultPlan::Parse(StrCat("kill@", kill_at));
  EXPECT_TRUE(plan.ok()) << plan.status();
  if (!plan.ok()) return {};
  killed.fault_tolerance.plan = *plan;

  auto trainer = SyncTrainer::Create(MlpFactory(), killed);
  EXPECT_TRUE(trainer.ok()) << trainer.status();
  if (!trainer.ok()) return {};
  auto metrics = (*trainer)->Train(train, test, kEpochs);
  EXPECT_FALSE(metrics.ok()) << "kill@" << kill_at << " did not fire";
  EXPECT_TRUE(fault::IsProcessKill(metrics.status())) << metrics.status();
  trainer->reset();  // the "crashed" process is gone; only disk survives

  // Restart: resume from disk if a durable checkpoint landed before the
  // kill, from scratch otherwise (a kill before the first save).
  auto manager = ckpt::CheckpointManager::Create(options.durable_checkpoint);
  EXPECT_TRUE(manager.ok()) << manager.status();
  if (!manager.ok()) return {};
  auto restored = (*manager)->RestoreLatest();
  StatusOr<std::unique_ptr<SyncTrainer>> resumed =
      InvalidArgumentError("unset");
  int epochs_left = kEpochs;
  if (restored.ok()) {
    epochs_left = kEpochs - restored->state.epochs_completed;
    resumed = SyncTrainer::Restore(MlpFactory(), options, restored->state);
  } else {
    EXPECT_EQ(restored.status().code(), StatusCode::kNotFound)
        << restored.status();
    resumed = SyncTrainer::Create(MlpFactory(), options);
  }
  EXPECT_TRUE(resumed.ok()) << resumed.status();
  if (!resumed.ok()) return {};
  auto finished = (*resumed)->Train(train, test, epochs_left);
  EXPECT_TRUE(finished.ok()) << finished.status();
  if (!finished.ok()) return {};
  EXPECT_TRUE((*resumed)->SaveDurableNow().ok());
  return CheckpointBytes(options.durable_checkpoint.save_dir,
                         kFinalIteration);
}

class DurableChaosTest : public RegistryCodecTest {};

// The headline guarantee, for every registered codec family over both
// fabrics: kill at iteration 3 (between durable saves), restore, finish —
// the final checkpoint is bit-equal to the uninterrupted run's.
TEST_P(DurableChaosTest, KillRestoreFinalCheckpointIsBitEqual) {
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);
  const CodecCell& config = GetParam();

  const std::string reference = RunReference(
      BaseOptions(config.codec, config.primitive,
                  StrCat("dckpt_ref_", config.name)),
      train, test);
  ASSERT_FALSE(reference.empty());

  const std::string resumed = RunKilledAndResumed(
      BaseOptions(config.codec, config.primitive,
                  StrCat("dckpt_kill_", config.name)),
      train, test, /*kill_at=*/3);
  EXPECT_EQ(resumed, reference)
      << "restore did not reproduce the uninterrupted run bit-for-bit";
}

INSTANTIATE_TEST_SUITE_P(CodecsAndFabrics, DurableChaosTest,
                         ::testing::ValuesIn(RegistryCodecCells()),
                         CodecCellName);

// Kill at EVERY iteration 1..8 (including 1, before any durable save has
// landed, and the save iterations themselves): restore always converges
// to the bit-identical final checkpoint. ECQ-4 keeps the error-feedback
// residuals and the aggregator's requantization state in play.
TEST(DurableChaosTest, KillAtAnyIterationRestoresBitEqual) {
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  const std::string reference = RunReference(
      BaseOptions(EcqSgdSpec(4), CommPrimitive::kMpi, "dckpt_any_ref"),
      train, test);
  ASSERT_FALSE(reference.empty());

  for (int64_t kill_at = 1; kill_at <= kFinalIteration; ++kill_at) {
    SCOPED_TRACE(kill_at);
    const std::string resumed = RunKilledAndResumed(
        BaseOptions(EcqSgdSpec(4), CommPrimitive::kMpi,
                    StrCat("dckpt_any_", kill_at)),
        train, test, kill_at);
    EXPECT_EQ(resumed, reference) << "kill@" << kill_at;
  }
}

// A torn final save is caught at restore time by the integrity words and
// the previous checkpoint loads instead; the restored trainer keeps
// training.
TEST(DurableChaosTest, TornWriteFallsBackToOlderCheckpointAndResumes) {
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  TrainerOptions options =
      BaseOptions(QsgdSpec(4), CommPrimitive::kMpi, "dckpt_torn");
  auto plan = fault::FaultPlan::Parse("torn@8");
  ASSERT_TRUE(plan.ok());
  options.fault_tolerance.plan = *plan;

  auto trainer = SyncTrainer::Create(MlpFactory(), options);
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  auto metrics = (*trainer)->Train(train, test, kEpochs);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  trainer->reset();

  auto manager =
      ckpt::CheckpointManager::Create(options.durable_checkpoint);
  ASSERT_TRUE(manager.ok());
  auto restored = (*manager)->RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->state.iteration, 6)
      << "the torn iteration-8 checkpoint must never load";
  EXPECT_EQ(restored->fallbacks, 1);

  TrainerOptions clean =
      BaseOptions(QsgdSpec(4), CommPrimitive::kMpi, "dckpt_torn");
  auto resumed = SyncTrainer::Restore(MlpFactory(), clean, restored->state);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  auto finished = (*resumed)->Train(
      train, test, kEpochs - restored->state.epochs_completed);
  ASSERT_TRUE(finished.ok()) << finished.status();
}

// A full disk inside the retry budget is absorbed transparently (the
// manager re-attempts on the comm backoff schedule); beyond the budget
// the durable save — and with it the run — fails loudly rather than
// continuing without durability.
TEST(DurableChaosTest, EnospcWithinBudgetIsAbsorbed) {
  obs::MetricsRegistry::Global().set_enabled(true);
  const int64_t retries_before =
      obs::MetricsRegistry::Global().CounterValue("ckpt/retries");
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  TrainerOptions options =
      BaseOptions(QsgdSpec(4), CommPrimitive::kMpi, "dckpt_enospc_ok");
  auto plan = fault::FaultPlan::Parse("enospc@4x2");
  ASSERT_TRUE(plan.ok());
  options.fault_tolerance.plan = *plan;
  options.durable_checkpoint.retry.max_retries = 3;
  options.durable_checkpoint.retry.backoff_base_seconds = 0.0;

  auto trainer = SyncTrainer::Create(MlpFactory(), options);
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  auto metrics = (*trainer)->Train(train, test, kEpochs);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(
      obs::MetricsRegistry::Global().CounterValue("ckpt/retries") -
          retries_before,
      2);
  obs::MetricsRegistry::Global().set_enabled(false);

  auto manager =
      ckpt::CheckpointManager::Create(options.durable_checkpoint);
  ASSERT_TRUE(manager.ok());
  auto restored = (*manager)->RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->state.iteration, 8);
}

TEST(DurableChaosTest, EnospcBeyondBudgetFailsTheRun) {
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  TrainerOptions options =
      BaseOptions(QsgdSpec(4), CommPrimitive::kMpi, "dckpt_enospc_fail");
  auto plan = fault::FaultPlan::Parse("enospc@2x5");
  ASSERT_TRUE(plan.ok());
  options.fault_tolerance.plan = *plan;
  options.durable_checkpoint.retry.max_retries = 1;
  options.durable_checkpoint.retry.backoff_base_seconds = 0.0;

  auto trainer = SyncTrainer::Create(MlpFactory(), options);
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  auto metrics = (*trainer)->Train(train, test, kEpochs);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kUnavailable);
}

// Elastic restore: a checkpoint written by a 4-rank run reconstructs a
// trainer at 2 and at 8 ranks. The rescaled runs keep training (loss
// keeps improving, accuracy stays pinned above the floor) with the
// error-feedback residuals remapped rather than dropped.
TEST(DurableChaosTest, ElasticRestoreShrinksAndGrows) {
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  TrainerOptions options =
      BaseOptions(EcqSgdSpec(4), CommPrimitive::kMpi, "dckpt_elastic");
  auto trainer = SyncTrainer::Create(MlpFactory(), options);
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  auto metrics = (*trainer)->Train(train, test, kEpochs);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_TRUE((*trainer)->SaveDurableNow().ok());
  const double accuracy_at_save = metrics->back().test_accuracy;
  trainer->reset();

  auto manager =
      ckpt::CheckpointManager::Create(options.durable_checkpoint);
  ASSERT_TRUE(manager.ok());
  auto restored = (*manager)->RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->state.rank_count, 4);

  for (int new_ranks : {2, 8}) {
    SCOPED_TRACE(new_ranks);
    TrainerOptions rescaled = options;
    rescaled.num_gpus = new_ranks;
    rescaled.durable_checkpoint.save_dir = ckpt::JoinPath(
        ::testing::TempDir(), StrCat("dckpt_elastic_", new_ranks));
    auto resumed =
        SyncTrainer::Restore(MlpFactory(), rescaled, restored->state);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_EQ((*resumed)->num_gpus(), new_ranks);
    auto more = (*resumed)->Train(train, test, 1);
    ASSERT_TRUE(more.ok()) << more.status();
    // Training continued from the restored parameters, not from scratch:
    // one extra epoch keeps the already-converged accuracy.
    EXPECT_GE(more->back().test_accuracy, accuracy_at_save - 0.05)
        << "rescaled restore lost the trained model";
  }
}

// Restoring into a trainer whose configuration contradicts the
// checkpoint (different codec, different seed) is refused before any
// state is mutated.
TEST(DurableChaosTest, MismatchedRestoreIsRefused) {
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  TrainerOptions options =
      BaseOptions(QsgdSpec(4), CommPrimitive::kMpi, "dckpt_mismatch");
  auto trainer = SyncTrainer::Create(MlpFactory(), options);
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  auto metrics = (*trainer)->Train(train, test, 1);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_TRUE((*trainer)->SaveDurableNow().ok());
  auto manager =
      ckpt::CheckpointManager::Create(options.durable_checkpoint);
  ASSERT_TRUE(manager.ok());
  auto restored = (*manager)->RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status();

  TrainerOptions wrong_codec = options;
  wrong_codec.codec = FullPrecisionSpec();
  auto refused =
      SyncTrainer::Restore(MlpFactory(), wrong_codec, restored->state);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  TrainerOptions wrong_seed = options;
  wrong_seed.seed = 8;
  refused = SyncTrainer::Restore(MlpFactory(), wrong_seed, restored->state);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace lpsgd
