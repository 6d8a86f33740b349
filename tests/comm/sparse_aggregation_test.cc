// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Sparse Top-K aggregation: both engines must scatter-add the (index,
// value) runs element-equal to the dense sum of the same decoded
// gradients — at any thread count. The references below re-derive the
// expected buffers through the public codec API and the wire-stable
// exchange tags, so any drift in the sparse path (ordering, missing
// zero-fill, densification) shows up as an exact-compare failure.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "comm/allreduce.h"
#include "machine/specs.h"
#include "quant/codec.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace {

struct TestMatrix {
  Shape shape;
  std::vector<Tensor> rank_grads;
  std::vector<std::vector<float>> rank_errors;
};

TestMatrix MakeMatrix(const Shape& shape, int k, uint64_t seed) {
  TestMatrix m;
  m.shape = shape;
  const int64_t n = shape.element_count();
  Rng rng(seed);
  for (int r = 0; r < k; ++r) {
    Tensor grad(shape);
    grad.FillGaussian(&rng, 1.0f);
    m.rank_grads.push_back(std::move(grad));
    m.rank_errors.emplace_back(static_cast<size_t>(n), 0.0f);
  }
  return m;
}

std::vector<MatrixSlot> MakeSlots(std::vector<TestMatrix>& matrices, int k) {
  std::vector<MatrixSlot> slots;
  for (TestMatrix& m : matrices) {
    MatrixSlot slot;
    slot.quant_shape = m.shape;
    for (int r = 0; r < k; ++r) {
      slot.rank_grads.push_back(m.rank_grads[static_cast<size_t>(r)].data());
      slot.rank_errors.push_back(&m.rank_errors[static_cast<size_t>(r)]);
    }
    slots.push_back(std::move(slot));
  }
  return slots;
}

// Dense reference for one matrix: encode every rank's gradient with the
// engine's stage-1 tags, decode each blob densely, and sum in rank order
// with the same float accumulation the engines use. Mutates `errors` the
// way the real exchange does.
std::vector<float> DenseSumReference(const GradientCodec& codec,
                                     const TestMatrix& m, int64_t matrix,
                                     int64_t iteration,
                                     std::vector<std::vector<float>>* errors) {
  const int64_t n = m.shape.element_count();
  const int k = static_cast<int>(m.rank_grads.size());
  std::vector<float> sum(static_cast<size_t>(n), 0.0f);
  std::vector<float> decoded(static_cast<size_t>(n));
  std::vector<uint8_t> blob;
  for (int r = 0; r < k; ++r) {
    const uint64_t tag =
        comm_internal::ExchangeRankTag(iteration, matrix, r);
    codec.Encode(m.rank_grads[static_cast<size_t>(r)].data(), m.shape, tag,
                 codec.UsesErrorFeedback()
                     ? &(*errors)[static_cast<size_t>(r)]
                     : nullptr,
                 &blob);
    CHECK_OK(codec.Decode(blob.data(), static_cast<int64_t>(blob.size()),
                          m.shape, decoded.data()));
    for (int64_t i = 0; i < n; ++i) {
      sum[static_cast<size_t>(i)] += decoded[static_cast<size_t>(i)];
    }
  }
  return sum;
}

class SparseAggregationThreadTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseAggregationThreadTest, NcclScatterAddEqualsDenseSum) {
  // The NCCL sparse path broadcasts the scatter-added aggregate verbatim
  // (no re-quantization), so every rank's buffer must equal the dense sum
  // of the per-rank decodes exactly.
  const int threads = GetParam();
  const int k = 4;
  auto spec = CodecSpec::Parse("topk:0.25");
  ASSERT_TRUE(spec.ok());
  auto codec = spec->Create();
  ASSERT_TRUE(codec.ok());

  std::vector<TestMatrix> matrices;
  matrices.push_back(MakeMatrix(Shape({40, 25}), k, 11));
  matrices.push_back(MakeMatrix(Shape({333}), k, 12));
  matrices.push_back(MakeMatrix(Shape({8}), k, 13));

  // References before the engine touches the buffers (identical starting
  // error state: both begin at zero).
  std::vector<std::vector<float>> expected;
  for (size_t m = 0; m < matrices.size(); ++m) {
    std::vector<std::vector<float>> ref_errors(
        static_cast<size_t>(k),
        std::vector<float>(
            static_cast<size_t>(matrices[m].shape.element_count()), 0.0f));
    expected.push_back(DenseSumReference(**codec, matrices[m],
                                         static_cast<int64_t>(m),
                                         /*iteration=*/0, &ref_errors));
  }

  auto agg = CreateAggregator(CommPrimitive::kNccl, k, *spec,
                              Ec2P2_8xlarge(),
                              ExecutionContext::WithThreads(threads));
  ASSERT_TRUE(agg.ok());
  auto slots = MakeSlots(matrices, k);
  auto stats = (*agg)->AllReduce(&slots, 0);
  ASSERT_TRUE(stats.ok());

  for (size_t m = 0; m < matrices.size(); ++m) {
    const int64_t n = matrices[m].shape.element_count();
    for (int r = 0; r < k; ++r) {
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(matrices[m].rank_grads[static_cast<size_t>(r)].at(i),
                  expected[m][static_cast<size_t>(i)])
            << "matrix " << m << " rank " << r << " elem " << i;
      }
    }
  }
}

TEST_P(SparseAggregationThreadTest, MpiScatterAddFeedsRequantizeExactly) {
  // MPI re-quantizes the aggregate before broadcast, so the end-to-end
  // check emulates the full owner pipeline: scatter-added sum -> owner
  // re-encode (aggregate tag, fresh residual) -> dense decode. Any
  // element-level difference in the scatter-add changes the re-encoded
  // blob and fails the exact compare.
  const int threads = GetParam();
  const int k = 3;
  auto spec = CodecSpec::Parse("topk:0.1");
  ASSERT_TRUE(spec.ok());
  auto codec = spec->Create();
  ASSERT_TRUE(codec.ok());

  std::vector<TestMatrix> matrices;
  matrices.push_back(MakeMatrix(Shape({25, 40}), k, 21));
  matrices.push_back(MakeMatrix(Shape({500}), k, 22));

  std::vector<std::vector<float>> expected;
  for (size_t m = 0; m < matrices.size(); ++m) {
    const int64_t n = matrices[m].shape.element_count();
    std::vector<std::vector<float>> ref_errors(
        static_cast<size_t>(k),
        std::vector<float>(static_cast<size_t>(n), 0.0f));
    std::vector<float> sum = DenseSumReference(
        **codec, matrices[m], static_cast<int64_t>(m), /*iteration=*/0,
        &ref_errors);
    const int owner = static_cast<int>(m) % k;
    const uint64_t agg_tag = comm_internal::ExchangeAggregateTag(
        /*iteration=*/0, static_cast<int64_t>(m), owner);
    std::vector<float> agg_error(static_cast<size_t>(n), 0.0f);
    std::vector<uint8_t> blob;
    (**codec).Encode(sum.data(), matrices[m].shape, agg_tag,
                     (**codec).UsesErrorFeedback() ? &agg_error : nullptr,
                     &blob);
    std::vector<float> bcast(static_cast<size_t>(n));
    CHECK_OK((**codec).Decode(blob.data(), static_cast<int64_t>(blob.size()),
                              matrices[m].shape, bcast.data()));
    expected.push_back(std::move(bcast));
  }

  auto agg = CreateAggregator(CommPrimitive::kMpi, k, *spec,
                              Ec2P2_16xlarge(),
                              ExecutionContext::WithThreads(threads));
  ASSERT_TRUE(agg.ok());
  auto slots = MakeSlots(matrices, k);
  auto stats = (*agg)->AllReduce(&slots, 0);
  ASSERT_TRUE(stats.ok());

  for (size_t m = 0; m < matrices.size(); ++m) {
    const int64_t n = matrices[m].shape.element_count();
    for (int r = 0; r < k; ++r) {
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(matrices[m].rank_grads[static_cast<size_t>(r)].at(i),
                  expected[m][static_cast<size_t>(i)])
            << "matrix " << m << " rank " << r << " elem " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SparseAggregationThreadTest,
                         ::testing::Values(1, 4));

TEST(SparseAggregationTest, SerialAndParallelBitIdentical) {
  // The whole sparse pipeline must be schedule-invariant: a 4-thread run
  // produces bit-identical buffers and error state to the serial run.
  const int k = 4;
  auto spec = CodecSpec::Parse("topk:0.25");
  ASSERT_TRUE(spec.ok());

  auto run = [&](const ExecutionContext& exec, CommPrimitive primitive) {
    std::vector<TestMatrix> matrices;
    matrices.push_back(MakeMatrix(Shape({30, 20}), k, 31));
    matrices.push_back(MakeMatrix(Shape({77}), k, 32));
    auto agg = CreateAggregator(primitive, k, *spec,
                                Ec2P2_8xlarge(), exec);
    CHECK_OK(agg.status());
    auto slots = MakeSlots(matrices, k);
    for (int64_t iteration = 0; iteration < 3; ++iteration) {
      CHECK_OK((*agg)->AllReduce(&slots, iteration).status());
    }
    return matrices;
  };

  for (CommPrimitive primitive :
       {CommPrimitive::kMpi, CommPrimitive::kNccl}) {
    SCOPED_TRACE(CommPrimitiveName(primitive));
    const auto serial = run(ExecutionContext::Serial(), primitive);
    const auto parallel = run(ExecutionContext::WithThreads(4), primitive);
    for (size_t m = 0; m < serial.size(); ++m) {
      const int64_t n = serial[m].shape.element_count();
      for (int r = 0; r < k; ++r) {
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(serial[m].rank_grads[static_cast<size_t>(r)].at(i),
                    parallel[m].rank_grads[static_cast<size_t>(r)].at(i))
              << "matrix " << m << " rank " << r << " elem " << i;
        }
        ASSERT_EQ(serial[m].rank_errors[static_cast<size_t>(r)],
                  parallel[m].rank_errors[static_cast<size_t>(r)])
            << "matrix " << m << " rank " << r;
      }
    }
  }
}

TEST(SparseAggregationTest, BypassedMatricesStayFullPrecision) {
  // slot.quantized = false routes a matrix through the dense fp32 pipeline
  // even under a sparse codec: the exchange then computes the exact sum.
  const int k = 4;
  auto spec = CodecSpec::Parse("topk:0.1");
  ASSERT_TRUE(spec.ok());

  for (CommPrimitive primitive :
       {CommPrimitive::kMpi, CommPrimitive::kNccl}) {
    SCOPED_TRACE(CommPrimitiveName(primitive));
    std::vector<TestMatrix> matrices;
    matrices.push_back(MakeMatrix(Shape({64}), k, 41));
    std::vector<double> exact(64, 0.0);
    for (int r = 0; r < k; ++r) {
      for (int64_t i = 0; i < 64; ++i) {
        exact[static_cast<size_t>(i)] +=
            matrices[0].rank_grads[static_cast<size_t>(r)].at(i);
      }
    }
    auto agg = CreateAggregator(primitive, k, *spec, Ec2P2_8xlarge(),
                                ExecutionContext::Serial());
    ASSERT_TRUE(agg.ok());
    auto slots = MakeSlots(matrices, k);
    slots[0].quantized = false;
    ASSERT_TRUE((*agg)->AllReduce(&slots, 0).ok());
    for (int64_t i = 0; i < 64; ++i) {
      EXPECT_NEAR(matrices[0].rank_grads[0].at(i),
                  exact[static_cast<size_t>(i)], 1e-4);
    }
  }
}

TEST(SparseAggregationTest, NcclAccountsAllgatherBytes) {
  // Sparse exchange is an allgather: every rank receives every other
  // rank's blob, so the per-matrix payload is k * EncodedSizeBytes.
  const int k = 4;
  auto spec = CodecSpec::Parse("topk:0.25");
  ASSERT_TRUE(spec.ok());
  auto codec = spec->Create();
  ASSERT_TRUE(codec.ok());
  const Shape shape({1000});

  auto agg = CreateAggregator(CommPrimitive::kNccl, k, *spec,
                              Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(agg.ok());
  std::vector<TestMatrix> matrices;
  matrices.push_back(MakeMatrix(shape, k, 51));
  auto slots = MakeSlots(matrices, k);
  auto stats = (*agg)->AllReduce(&slots, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->wire_bytes, k * (*codec)->EncodedSizeBytes(shape));
  EXPECT_EQ(stats->raw_bytes,
            shape.element_count() * static_cast<int64_t>(sizeof(float)));
}

}  // namespace
}  // namespace lpsgd
