// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Pins the trainer's bytes across commits. The determinism suites compare
// thread counts within one build; this test compares against fixed
// digests, so a change to the NN math, the codecs or the exchange that
// moves one bit of trainer state fails here even when it moves every
// thread count alike. Each configuration trains three steps of the
// benchmark's model shapes and hashes ckpt::Serialize(CaptureState())
// with FNV-1a; the serial and the 4-thread run must both hit the digest.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "ckpt/format.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"

namespace lpsgd {
namespace {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::unique_ptr<Dataset> Images(int64_t n, uint64_t offset) {
  SyntheticImageOptions options;
  options.num_classes = 10;
  options.channels = 1;
  options.height = 8;
  options.width = 8;
  options.num_samples = n;
  options.signal = 1.2f;
  options.noise = 0.8f;
  options.seed = 3;
  options.sample_offset = offset;
  return std::make_unique<SyntheticImageDataset>(options);
}

std::unique_ptr<Dataset> Sequences(int64_t n, uint64_t offset) {
  SyntheticSequenceOptions options;
  options.num_classes = 8;
  options.time_steps = 10;
  options.frame_dim = 12;
  options.num_samples = n;
  options.seed = 3;
  options.sample_offset = offset;
  return std::make_unique<SyntheticSequenceDataset>(options);
}

struct GoldenConfig {
  const char* name;
  SyncTrainer::NetworkFactory factory;
  std::function<std::unique_ptr<Dataset>(int64_t, uint64_t)> make_dataset;
  int num_gpus;
  int global_batch;
  CodecSpec codec;
  CommPrimitive primitive;
  uint64_t digest;
};

std::vector<GoldenConfig> GoldenConfigs() {
  return {
      {"deep_lstm_nccl_q4",
       [](uint64_t s) { return BuildDeepLstmClassifier(12, 64, 2, 8, s); },
       Sequences, 4, 32, QsgdSpec(4), CommPrimitive::kNccl,
       0x1271eeb9870c2523ULL},
      {"mini_alexnet_mpi_q4",
       [](uint64_t s) { return BuildMiniAlexNet(1, 8, 10, s); }, Images, 8,
       64, QsgdSpec(4), CommPrimitive::kMpi, 0x4bdb00b56b44657cULL},
      {"mlp_mpi_ecq4",
       [](uint64_t s) { return BuildMlp({64, 512, 512, 10}, s); }, Images, 8,
       16, EcqSgdSpec(4), CommPrimitive::kMpi, 0xd26170b390daabebULL},
  };
}

TEST(TrainerStateGoldenTest, ThreeStepsMatchPinnedDigest) {
  constexpr int kSteps = 3;
  for (const GoldenConfig& config : GoldenConfigs()) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << config.name << " threads=" << threads);
      TrainerOptions options;
      options.num_gpus = config.num_gpus;
      options.global_batch_size = config.global_batch;
      options.learning_rate = 0.02f;
      options.codec = config.codec;
      options.primitive = config.primitive;
      options.seed = 11;
      options.execution = threads == 1 ? ExecutionContext::Serial()
                                       : ExecutionContext::WithThreads(threads);
      const auto train = config.make_dataset(kSteps * config.global_batch, 0);
      const auto test = config.make_dataset(16, uint64_t{1} << 20);
      auto trainer = SyncTrainer::Create(config.factory, options);
      ASSERT_TRUE(trainer.ok()) << trainer.status();
      auto metrics = (*trainer)->Train(*train, *test, /*epochs=*/1);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      const uint64_t digest =
          Fnv1a64(ckpt::Serialize((*trainer)->CaptureState()));
      EXPECT_EQ(digest, config.digest) << "digest 0x" << std::hex << digest;
    }
  }
}

}  // namespace
}  // namespace lpsgd
