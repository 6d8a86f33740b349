// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"

namespace lpsgd {
namespace {

Tensor MakeTensor(Shape shape, std::vector<float> values) {
  Tensor t(std::move(shape));
  CHECK_EQ(t.size(), static_cast<int64_t>(values.size()));
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

TEST(GemmTest, PlainMultiply) {
  Tensor a = MakeTensor(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor b = MakeTensor(Shape({3, 2}), {7, 8, 9, 10, 11, 12});
  Tensor c(Shape({2, 2}));
  Gemm(false, false, 1.0f, a, b, 0.0f, &c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(GemmTest, AlphaAndBeta) {
  Tensor a = MakeTensor(Shape({1, 2}), {1, 2});
  Tensor b = MakeTensor(Shape({2, 1}), {3, 4});
  Tensor c(Shape({1, 1}), 10.0f);
  Gemm(false, false, 2.0f, a, b, 0.5f, &c);
  EXPECT_FLOAT_EQ(c.at(0), 2.0f * 11.0f + 0.5f * 10.0f);
}

// Property sweep: Gemm with all transpose flag combinations must match the
// naive reference on random matrices.
struct GemmCase {
  bool trans_a;
  bool trans_b;
  int m, k, n;
};

class GemmReferenceTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmReferenceTest, MatchesNaiveReference) {
  const GemmCase c = GetParam();
  Rng rng(c.m * 10007 + c.k * 101 + c.n + (c.trans_a ? 7 : 0) +
          (c.trans_b ? 13 : 0));
  Tensor a(c.trans_a ? Shape({c.k, c.m}) : Shape({c.m, c.k}));
  Tensor b(c.trans_b ? Shape({c.n, c.k}) : Shape({c.k, c.n}));
  a.FillGaussian(&rng, 1.0f);
  b.FillGaussian(&rng, 1.0f);

  Tensor out(Shape({c.m, c.n}));
  Gemm(c.trans_a, c.trans_b, 1.0f, a, b, 0.0f, &out);

  for (int i = 0; i < c.m; ++i) {
    for (int j = 0; j < c.n; ++j) {
      double expected = 0.0;
      for (int kk = 0; kk < c.k; ++kk) {
        const float av = c.trans_a ? a.at(kk, i) : a.at(i, kk);
        const float bv = c.trans_b ? b.at(j, kk) : b.at(kk, j);
        expected += static_cast<double>(av) * bv;
      }
      EXPECT_NEAR(out.at(i, j), expected, 1e-3)
          << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposeCombos, GemmReferenceTest,
    ::testing::Values(GemmCase{false, false, 4, 5, 6},
                      GemmCase{true, false, 4, 5, 6},
                      GemmCase{false, true, 4, 5, 6},
                      GemmCase{true, true, 4, 5, 6},
                      GemmCase{false, false, 1, 1, 1},
                      GemmCase{true, true, 7, 3, 2},
                      GemmCase{false, true, 16, 8, 16}));

TEST(AxpyTest, AddsScaled) {
  Tensor x = MakeTensor(Shape({3}), {1, 2, 3});
  Tensor y = MakeTensor(Shape({3}), {10, 20, 30});
  Axpy(2.0f, x, &y);
  EXPECT_FLOAT_EQ(y.at(0), 12.0f);
  EXPECT_FLOAT_EQ(y.at(2), 36.0f);
}

TEST(ScaleTest, Scales) {
  Tensor x = MakeTensor(Shape({2}), {3, -4});
  Scale(0.5f, &x);
  EXPECT_FLOAT_EQ(x.at(0), 1.5f);
  EXPECT_FLOAT_EQ(x.at(1), -2.0f);
}

TEST(AddRowBroadcastTest, AddsBiasToEveryRow) {
  Tensor x(Shape({2, 3}));
  Tensor bias = MakeTensor(Shape({3}), {1, 2, 3});
  AddRowBroadcast(bias, &x);
  for (int r = 0; r < 2; ++r) {
    EXPECT_FLOAT_EQ(x.at(r, 0), 1.0f);
    EXPECT_FLOAT_EQ(x.at(r, 1), 2.0f);
    EXPECT_FLOAT_EQ(x.at(r, 2), 3.0f);
  }
}

TEST(SumRowsToTest, ComputesColumnSums) {
  Tensor grad = MakeTensor(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor bias_grad(Shape({3}));
  SumRowsTo(grad, &bias_grad);
  EXPECT_FLOAT_EQ(bias_grad.at(0), 5.0f);
  EXPECT_FLOAT_EQ(bias_grad.at(1), 7.0f);
  EXPECT_FLOAT_EQ(bias_grad.at(2), 9.0f);
}

TEST(SoftmaxRowsTest, RowsSumToOneAndOrderPreserved) {
  Tensor logits = MakeTensor(Shape({2, 3}), {1, 2, 3, -1, -1, -1});
  Tensor probs(logits.shape());
  SoftmaxRows(logits, &probs);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += probs.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  EXPECT_GT(probs.at(0, 2), probs.at(0, 1));
  EXPECT_GT(probs.at(0, 1), probs.at(0, 0));
  EXPECT_NEAR(probs.at(1, 0), 1.0f / 3.0f, 1e-5);
}

TEST(SoftmaxRowsTest, NumericallyStableForLargeLogits) {
  Tensor logits = MakeTensor(Shape({1, 2}), {1000.0f, 999.0f});
  Tensor probs(logits.shape());
  SoftmaxRows(logits, &probs);
  EXPECT_FALSE(std::isnan(probs.at(0)));
  EXPECT_NEAR(probs.at(0, 0) + probs.at(0, 1), 1.0f, 1e-5);
  EXPECT_GT(probs.at(0, 0), probs.at(0, 1));
}

TEST(ConvOutputSizeTest, MatchesFormula) {
  EXPECT_EQ(ConvOutputSize(8, 3, 1, 1), 8);
  EXPECT_EQ(ConvOutputSize(8, 2, 2, 0), 4);
  EXPECT_EQ(ConvOutputSize(5, 3, 2, 0), 2);
  EXPECT_EQ(ConvOutputSize(7, 7, 1, 0), 1);
}

TEST(Im2ColTest, IdentityKernelExtractsPixels) {
  // 1x1 kernel, stride 1: patches are just the pixels.
  Tensor image = MakeTensor(Shape({1, 2, 2}), {1, 2, 3, 4});
  Tensor patches(Shape({4, 1}));
  Im2Col(image, 1, 1, 1, 0, &patches);
  EXPECT_FLOAT_EQ(patches.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(patches.at(3, 0), 4.0f);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  Tensor image = MakeTensor(Shape({1, 1, 1}), {5});
  Tensor patches(Shape({1, 9}));
  Im2Col(image, 3, 3, 1, 1, &patches);
  // Center of the 3x3 patch is the pixel; everything else is padding.
  for (int i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(patches.at(0, i), i == 4 ? 5.0f : 0.0f);
  }
}

TEST(Im2ColTest, MultiChannelLayout) {
  // Two channels, 2x2 image, 2x2 kernel: a single patch listing channel 0's
  // values then channel 1's.
  Tensor image = MakeTensor(Shape({2, 2, 2}), {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor patches(Shape({1, 8}));
  Im2Col(image, 2, 2, 1, 0, &patches);
  const float expected[] = {1, 2, 3, 4, 10, 20, 30, 40};
  for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(patches.at(0, i), expected[i]);
}

TEST(Im2ColTest, BatchStacksPerSamplePatches) {
  // A {N, C, H, W} batch gives the per-sample patch matrices stacked
  // sample-major, and Col2Im scatters each block back onto its sample.
  Rng rng(78);
  const int samples = 3, channels = 2, height = 5, width = 4;
  const int kh = 3, kw = 2, stride = 2, pad = 1;
  const int64_t plane = int64_t{ConvOutputSize(height, kh, stride, pad)} *
                        ConvOutputSize(width, kw, stride, pad);
  const int64_t patch_width = int64_t{channels} * kh * kw;
  Tensor batch(Shape({samples, channels, height, width}));
  batch.FillGaussian(&rng, 1.0f);
  Tensor patches(Shape({samples * plane, patch_width}));
  Im2Col(batch, kh, kw, stride, pad, &patches);
  Tensor patch_grad(patches.shape());
  patch_grad.FillGaussian(&rng, 1.0f);
  Tensor batch_grad(batch.shape());
  Col2Im(patch_grad, kh, kw, stride, pad, &batch_grad);

  const int64_t image_size = int64_t{channels} * height * width;
  for (int s = 0; s < samples; ++s) {
    Tensor image(Shape({channels, height, width}));
    std::copy(batch.data() + s * image_size,
              batch.data() + (s + 1) * image_size, image.data());
    Tensor expected(Shape({plane, patch_width}));
    Im2Col(image, kh, kw, stride, pad, &expected);
    for (int64_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(patches.at(s * plane * patch_width + i), expected.at(i));
    }

    Tensor block(Shape({plane, patch_width}));
    std::copy(patch_grad.data() + s * plane * patch_width,
              patch_grad.data() + (s + 1) * plane * patch_width,
              block.data());
    Tensor image_grad(image.shape());
    Col2Im(block, kh, kw, stride, pad, &image_grad);
    for (int64_t i = 0; i < image_size; ++i) {
      EXPECT_EQ(batch_grad.at(s * image_size + i), image_grad.at(i));
    }
  }
}

TEST(Col2ImTest, IsTransposeOfIm2Col) {
  // <x, Im2Col(y)> == <Col2Im(x), y> for random x, y (adjoint property).
  Rng rng(77);
  Tensor image(Shape({2, 5, 4}));
  image.FillGaussian(&rng, 1.0f);
  const int kh = 3, kw = 2, stride = 2, pad = 1;
  const int out_h = ConvOutputSize(5, kh, stride, pad);
  const int out_w = ConvOutputSize(4, kw, stride, pad);
  Tensor patches(Shape({int64_t{out_h} * out_w, 2 * kh * kw}));
  Im2Col(image, kh, kw, stride, pad, &patches);

  Tensor random_patches(patches.shape());
  random_patches.FillGaussian(&rng, 1.0f);
  Tensor back(image.shape());
  Col2Im(random_patches, kh, kw, stride, pad, &back);

  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < patches.size(); ++i) {
    lhs += static_cast<double>(random_patches.at(i)) * patches.at(i);
  }
  for (int64_t i = 0; i < image.size(); ++i) {
    rhs += static_cast<double>(back.at(i)) * image.at(i);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(ArgMaxRowTest, FindsFirstMaximum) {
  Tensor x = MakeTensor(Shape({2, 4}), {1, 9, 9, 0, -5, -2, -9, -2});
  EXPECT_EQ(ArgMaxRow(x, 0), 1);  // first of the tied maxima
  EXPECT_EQ(ArgMaxRow(x, 1), 1);
}

}  // namespace
}  // namespace lpsgd
