// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Focused tests of the CNTK-faithful details of MpiReduceBcastAggregator:
// round-robin matrix ownership, the owner-side aggregate re-quantization
// residual, and isolation of error state across matrices and ranks.
#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "comm/mpi_reduce_bcast.h"
#include "machine/specs.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace {

struct Fixture {
  std::vector<std::vector<Tensor>> grads;          // [matrix][rank]
  std::vector<std::vector<std::vector<float>>> errors;
  std::vector<MatrixSlot> slots;

  Fixture(int matrices, int ranks, int64_t n, uint64_t seed) {
    Rng rng(seed);
    grads.resize(static_cast<size_t>(matrices));
    errors.resize(static_cast<size_t>(matrices));
    for (int m = 0; m < matrices; ++m) {
      MatrixSlot slot;
      slot.quant_shape = Shape({n});
      for (int r = 0; r < ranks; ++r) {
        grads[static_cast<size_t>(m)].emplace_back(Shape({n}));
        grads[static_cast<size_t>(m)].back().FillGaussian(&rng, 1.0f);
        errors[static_cast<size_t>(m)].emplace_back(
            static_cast<size_t>(n), 0.0f);
      }
      for (int r = 0; r < ranks; ++r) {
        slot.rank_grads.push_back(
            grads[static_cast<size_t>(m)][static_cast<size_t>(r)].data());
        slot.rank_errors.push_back(
            &errors[static_cast<size_t>(m)][static_cast<size_t>(r)]);
      }
      slots.push_back(std::move(slot));
    }
  }
};

TEST(MpiRequantizeTest, ManyMatricesAllAggregatedConsistently) {
  const int ranks = 3, matrices = 7;
  auto agg =
      CreateAggregator(CommPrimitive::kMpi, ranks, QsgdSpec(8),
                       Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(agg.ok());
  Fixture fixture(matrices, ranks, 128, 1);
  auto stats = (*agg)->AllReduce(&fixture.slots, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->messages, 2 * matrices);
  // Every rank holds the identical aggregate for every matrix.
  for (int m = 0; m < matrices; ++m) {
    for (int r = 1; r < ranks; ++r) {
      for (int64_t i = 0; i < 128; ++i) {
        ASSERT_EQ(
            fixture.grads[static_cast<size_t>(m)][static_cast<size_t>(r)]
                .at(i),
            fixture.grads[static_cast<size_t>(m)][0].at(i));
      }
    }
  }
}

TEST(MpiRequantizeTest, AggregateResidualImprovesRunningAccuracy) {
  // The owner-side residual makes the cumulative aggregated gradient track
  // the cumulative true sum across iterations, exactly like per-rank error
  // feedback. With a fresh aggregator (no residual history) each
  // iteration's error would be independent and the cumulative error would
  // grow ~sqrt(T) faster.
  const int ranks = 2;
  const int64_t n = 64;
  const int iterations = 120;

  auto run = [&](bool reuse_aggregator) {
    Rng rng(7);
    std::vector<double> true_sum(static_cast<size_t>(n), 0.0);
    std::vector<double> agg_sum(static_cast<size_t>(n), 0.0);
    auto persistent =
        CreateAggregator(CommPrimitive::kMpi, ranks, OneBitSgdReshapedSpec(64),
                         Ec2P2_8xlarge(), ExecutionContext::Serial());
    CHECK_OK(persistent.status());
    // Persistent per-rank residuals in both settings (they belong to the
    // trainer); only the aggregator's own residual differs.
    std::vector<std::vector<float>> rank_errors(
        2, std::vector<float>(static_cast<size_t>(n), 0.0f));

    for (int t = 0; t < iterations; ++t) {
      std::vector<Tensor> grads;
      MatrixSlot slot;
      slot.quant_shape = Shape({n});
      for (int r = 0; r < ranks; ++r) {
        grads.emplace_back(Shape({n}));
        grads.back().FillGaussian(&rng, 1.0f);
        for (int64_t i = 0; i < n; ++i) {
          true_sum[static_cast<size_t>(i)] += grads.back().at(i);
        }
      }
      for (int r = 0; r < ranks; ++r) {
        slot.rank_grads.push_back(grads[static_cast<size_t>(r)].data());
        slot.rank_errors.push_back(&rank_errors[static_cast<size_t>(r)]);
      }
      std::vector<MatrixSlot> slots = {std::move(slot)};
      if (reuse_aggregator) {
        CHECK_OK((*persistent)->AllReduce(&slots, t).status());
      } else {
        auto fresh = CreateAggregator(
            CommPrimitive::kMpi, ranks, OneBitSgdReshapedSpec(64),
            Ec2P2_8xlarge(), ExecutionContext::Serial());
        CHECK_OK(fresh.status());
        CHECK_OK((*fresh)->AllReduce(&slots, t).status());
      }
      for (int64_t i = 0; i < n; ++i) {
        agg_sum[static_cast<size_t>(i)] +=
            grads[0].at(i);  // post-allreduce aggregate
      }
    }
    double err = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double d = agg_sum[static_cast<size_t>(i)] -
                       true_sum[static_cast<size_t>(i)];
      err += d * d;
    }
    return std::sqrt(err / n);
  };

  const double with_residual = run(/*reuse_aggregator=*/true);
  const double without_residual = run(/*reuse_aggregator=*/false);
  EXPECT_LT(with_residual, without_residual);
}

TEST(MpiRequantizeTest, RankResidualsDivergeButMatricesStayIsolated) {
  const int ranks = 2;
  auto agg =
      CreateAggregator(CommPrimitive::kMpi, ranks, OneBitSgdReshapedSpec(32),
                       Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(agg.ok());
  Fixture fixture(2, ranks, 64, 3);
  // Zero matrix 1's gradients: its residuals must stay exactly zero no
  // matter what matrix 0 does.
  for (int r = 0; r < ranks; ++r) {
    fixture.grads[1][static_cast<size_t>(r)].SetZero();
  }
  ASSERT_TRUE((*agg)->AllReduce(&fixture.slots, 0).ok());

  double matrix0_residual = 0.0;
  for (int r = 0; r < ranks; ++r) {
    for (float e : fixture.errors[0][static_cast<size_t>(r)]) {
      matrix0_residual += std::abs(e);
    }
    for (float e : fixture.errors[1][static_cast<size_t>(r)]) {
      ASSERT_EQ(e, 0.0f);
    }
  }
  EXPECT_GT(matrix0_residual, 0.0);
}

TEST(MpiRequantizeTest, WireBytesCountOneRanksGradientOnce) {
  // Stats report the encoded size of one rank's full gradient per matrix
  // (the quantity the cost model consumes), independent of rank count.
  for (int ranks : {2, 4, 8}) {
    auto agg =
        CreateAggregator(CommPrimitive::kMpi, ranks, QsgdSpec(4),
                         Ec2P2_8xlarge(), ExecutionContext::Serial());
    ASSERT_TRUE(agg.ok());
    Fixture fixture(1, ranks, 512, 4);
    auto stats = (*agg)->AllReduce(&fixture.slots, 0);
    ASSERT_TRUE(stats.ok());
    auto codec = QsgdSpec(4).Create();
    EXPECT_EQ(stats->wire_bytes, (*codec)->EncodedSizeBytes(Shape({512})))
        << ranks;
  }
}

}  // namespace
}  // namespace lpsgd
