// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// A trainer step must hand its submitting thread back with the AVX upper
// state clean, for every codec family over both engines, serial and
// threaded. The kernel-table test checks each kernel alone; this one
// catches a dirty return anywhere on the step's path (the MPI engine's
// full-precision bias sums, the codecs, the GEMMs), which would make the
// next step's batch generation (libm log/cos) pay the AVX-SSE transition
// penalty.
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "base/simd/simd.h"
#include "base/thread_pool.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "testing/avx_state.h"
#include "testing/codec_matrix.h"

namespace lpsgd {
namespace {

std::unique_ptr<Dataset> Images(int64_t n, uint64_t offset) {
  SyntheticImageOptions options;
  options.num_classes = 10;
  options.channels = 1;
  options.height = 8;
  options.width = 8;
  options.num_samples = n;
  options.seed = 5;
  options.sample_offset = offset;
  return std::make_unique<SyntheticImageDataset>(options);
}

// A held-out set with no samples: Train() then runs no evaluation
// forward pass after the last step, whose GEMMs would clear the state
// and hide a dirty return from the step itself.
class EmptyDataset : public Dataset {
 public:
  int64_t NumSamples() const override { return 0; }
  int NumClasses() const override { return 10; }
  const Shape& SampleShape() const override { return shape_; }
  void FillSample(int64_t /*index*/, float* /*out*/) const override {}
  int LabelOf(int64_t /*index*/) const override { return 0; }

 private:
  Shape shape_{1, 8, 8};
};

class TrainerSimdStateTest : public RegistryCodecTest {};

TEST_P(TrainerSimdStateTest, WarmStepLeavesUpperStateClean) {
  const std::string unavailable = AvxStateProbeUnavailable();
  if (!unavailable.empty()) GTEST_SKIP() << unavailable;
  const ScopedSimdIsa auto_dispatch(DetectSimdIsa());
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    TrainerOptions options;
    options.num_gpus = 4;
    options.global_batch_size = 16;
    options.learning_rate = 0.02f;
    options.codec = GetParam().codec;
    options.primitive = GetParam().primitive;
    options.seed = 3;
    options.execution = threads == 1 ? ExecutionContext::Serial()
                                     : ExecutionContext::WithThreads(threads);
    // Two batches: the second step runs warm (workspaces grown, every
    // kernel already dispatched once).
    const auto train = Images(2 * options.global_batch_size, 0);
    const EmptyDataset test;
    auto trainer = SyncTrainer::Create(
        [](uint64_t seed) { return BuildMiniAlexNet(1, 8, 10, seed); },
        options);
    ASSERT_TRUE(trainer.ok()) << trainer.status();
    ClearAvxUpperState();
    auto metrics = (*trainer)->Train(*train, test, /*epochs=*/1);
    const bool dirty = AvxUpperStateDirty();
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_FALSE(dirty)
        << "the submitting thread left the last step with dirty AVX upper "
           "state";
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, TrainerSimdStateTest,
                         ::testing::ValuesIn(RegistryCodecCells()),
                         CodecCellName);

}  // namespace
}  // namespace lpsgd
