// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/qsgd.h"

#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "tensor/tensor.h"
#include "base/logging.h"

namespace lpsgd {
namespace {

std::unique_ptr<GradientCodec> MakeQsgd(
    int bits, int64_t bucket, QsgdNorm norm = QsgdNorm::kMax,
    QsgdLevelScheme levels = QsgdLevelScheme::kSignMagnitude) {
  CodecSpec spec;
  spec.kind = CodecKind::kQsgd;
  spec.bits = bits;
  spec.bucket_size = bucket;
  spec.norm = norm;
  spec.levels = levels;
  auto codec = spec.Create();
  CHECK_OK(codec.status());
  return std::move(codec).value();
}

std::vector<float> EncodeDecode(const GradientCodec& codec,
                                const Tensor& grad, uint64_t tag) {
  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), grad.shape(), tag, nullptr, &blob);
  std::vector<float> decoded(static_cast<size_t>(grad.size()));
  CHECK_OK(codec.Decode(blob.data(), static_cast<int64_t>(blob.size()), grad.shape(),
               decoded.data()));
  return decoded;
}

// Core QSGD property (Equation 1): E[Q(v)] = v.
class QsgdUnbiasednessTest
    : public ::testing::TestWithParam<std::tuple<int, QsgdNorm,
                                                 QsgdLevelScheme>> {};

TEST_P(QsgdUnbiasednessTest, QuantizerIsUnbiased) {
  const auto [bits, norm, levels] = GetParam();
  auto codec = MakeQsgd(bits, 64, norm, levels);
  const Shape shape({64});
  Tensor grad(shape);
  Rng rng(static_cast<uint64_t>(bits) * 7 + 3);
  grad.FillGaussian(&rng, 1.0f);

  std::vector<double> mean(64, 0.0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const std::vector<float> decoded =
        EncodeDecode(*codec, grad, static_cast<uint64_t>(t));
    for (int i = 0; i < 64; ++i) mean[static_cast<size_t>(i)] += decoded[i];
  }
  // Standard error of the estimate is <= scale / sqrt(trials); use a
  // conservative bound.
  double max_error = 0.0;
  for (int i = 0; i < 64; ++i) {
    max_error = std::max(
        max_error, std::abs(mean[static_cast<size_t>(i)] / trials -
                            grad.at(i)));
  }
  EXPECT_LT(max_error, 0.12) << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(
    BitsNormsSchemes, QsgdUnbiasednessTest,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(QsgdNorm::kL2, QsgdNorm::kMax),
                       ::testing::Values(QsgdLevelScheme::kSignMagnitude,
                                         QsgdLevelScheme::kSymmetric)));

TEST(QsgdTest, DecodedValuesAreOnTheLevelGrid) {
  auto codec = MakeQsgd(4, 32, QsgdNorm::kMax);
  const Shape shape({32});
  Tensor grad(shape);
  Rng rng(5);
  grad.FillGaussian(&rng, 1.0f);
  const double scale = grad.AbsMax();
  const int s = 7;  // 2^(4-1) - 1 magnitude levels

  const std::vector<float> decoded = EncodeDecode(*codec, grad, 1);
  for (float v : decoded) {
    const double level = std::abs(v) / scale * s;
    EXPECT_NEAR(level, std::round(level), 1e-4) << v;
    EXPECT_LE(std::abs(v), scale + 1e-6);
  }
}

TEST(QsgdTest, SignsArePreserved) {
  auto codec = MakeQsgd(8, 64);
  const Shape shape({100});
  Tensor grad(shape);
  Rng rng(6);
  grad.FillGaussian(&rng, 1.0f);
  const std::vector<float> decoded = EncodeDecode(*codec, grad, 2);
  for (int64_t i = 0; i < 100; ++i) {
    if (decoded[static_cast<size_t>(i)] != 0.0f) {
      EXPECT_EQ(decoded[static_cast<size_t>(i)] > 0, grad.at(i) > 0) << i;
    }
  }
}

TEST(QsgdTest, ZeroVectorEncodesToZero) {
  auto codec = MakeQsgd(4, 16);
  const Shape shape({50});
  Tensor grad(shape);  // zeros
  const std::vector<float> decoded = EncodeDecode(*codec, grad, 3);
  for (float v : decoded) EXPECT_EQ(v, 0.0f);
}

TEST(QsgdTest, HigherPrecisionLowersVariance) {
  const Shape shape({256});
  Tensor grad(shape);
  Rng rng(7);
  grad.FillGaussian(&rng, 1.0f);

  auto variance_for_bits = [&](int bits) {
    auto codec = MakeQsgd(bits, 256);
    double total = 0.0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
      const std::vector<float> decoded =
          EncodeDecode(*codec, grad, static_cast<uint64_t>(t));
      for (int64_t i = 0; i < grad.size(); ++i) {
        const double d = decoded[static_cast<size_t>(i)] - grad.at(i);
        total += d * d;
      }
    }
    return total / trials;
  };

  const double v2 = variance_for_bits(2);
  const double v4 = variance_for_bits(4);
  const double v8 = variance_for_bits(8);
  EXPECT_GT(v2, 4.0 * v4);
  EXPECT_GT(v4, 4.0 * v8);
}

TEST(QsgdTest, SmallerBucketsLowerVariance) {
  // Section 3.2.2: bucketing controls the dimension-dependent variance.
  const Shape shape({4096});
  Tensor grad(shape);
  Rng rng(8);
  grad.FillGaussian(&rng, 1.0f);

  auto variance_for_bucket = [&](int64_t bucket) {
    auto codec = MakeQsgd(4, bucket, QsgdNorm::kL2);
    double total = 0.0;
    const int trials = 50;
    for (int t = 0; t < trials; ++t) {
      const std::vector<float> decoded =
          EncodeDecode(*codec, grad, static_cast<uint64_t>(t));
      for (int64_t i = 0; i < grad.size(); ++i) {
        const double d = decoded[static_cast<size_t>(i)] - grad.at(i);
        total += d * d;
      }
    }
    return total / trials;
  };

  EXPECT_LT(variance_for_bucket(64), variance_for_bucket(512));
  EXPECT_LT(variance_for_bucket(512), variance_for_bucket(4096));
}

TEST(QsgdTest, MaxNormHasLowerVarianceThanL2) {
  // Section 3.2.2: normalizing by the max element preserves more
  // information (smaller variance); 2-norm yields sparser vectors.
  const Shape shape({512});
  Tensor grad(shape);
  Rng rng(9);
  grad.FillGaussian(&rng, 1.0f);

  auto stats_for_norm = [&](QsgdNorm norm) {
    auto codec = MakeQsgd(4, 512, norm);
    double err = 0.0;
    int64_t zeros = 0;
    const int trials = 100;
    for (int t = 0; t < trials; ++t) {
      const std::vector<float> decoded =
          EncodeDecode(*codec, grad, static_cast<uint64_t>(t));
      for (int64_t i = 0; i < grad.size(); ++i) {
        const double d = decoded[static_cast<size_t>(i)] - grad.at(i);
        err += d * d;
        if (decoded[static_cast<size_t>(i)] == 0.0f) ++zeros;
      }
    }
    return std::make_pair(err / trials, zeros);
  };

  const auto [l2_err, l2_zeros] = stats_for_norm(QsgdNorm::kL2);
  const auto [max_err, max_zeros] = stats_for_norm(QsgdNorm::kMax);
  EXPECT_LT(max_err, l2_err);
  EXPECT_GT(l2_zeros, max_zeros);  // 2-norm scaling is sparser
}

TEST(QsgdTest, DeterministicGivenTag) {
  auto codec = MakeQsgd(4, 64);
  const Shape shape({128});
  Tensor grad(shape);
  Rng rng(10);
  grad.FillGaussian(&rng, 1.0f);
  EXPECT_EQ(EncodeDecode(*codec, grad, 42), EncodeDecode(*codec, grad, 42));
  EXPECT_NE(EncodeDecode(*codec, grad, 42), EncodeDecode(*codec, grad, 43));
}

TEST(QsgdTest, TwoBitUsesOnlyThreeLevels) {
  // Section 5.1: 2-bit QSGD quantizes to levels {-1, 0, 1} (x scale).
  auto codec = MakeQsgd(2, 64);
  const Shape shape({64});
  Tensor grad(shape);
  Rng rng(11);
  grad.FillGaussian(&rng, 1.0f);
  const double scale = grad.AbsMax();
  const std::vector<float> decoded = EncodeDecode(*codec, grad, 4);
  for (float v : decoded) {
    const double normalized = std::abs(v) / scale;
    EXPECT_TRUE(std::abs(normalized) < 1e-6 ||
                std::abs(normalized - 1.0) < 1e-6)
        << v;
  }
}

TEST(QsgdTest, SixteenBitIsNearLossless) {
  auto codec = MakeQsgd(16, 8192);
  const Shape shape({1000});
  Tensor grad(shape);
  Rng rng(12);
  grad.FillGaussian(&rng, 1.0f);
  const std::vector<float> decoded = EncodeDecode(*codec, grad, 5);
  for (int64_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(decoded[static_cast<size_t>(i)], grad.at(i),
                grad.AbsMax() / 16000.0);
  }
}

}  // namespace
}  // namespace lpsgd
