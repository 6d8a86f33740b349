// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Bit-exactness pins for Gemm. Every output element must see the same
// operations in the same order whatever path the kernel takes:
//   c = beta * c (or a fill with 0 when beta == 0), then
//   c += (alpha * a_ik) * b_kj for k ascending, skipping a_ik == 0,
// as separate IEEE mul and add. GemmGoldenTest hashes the output bytes of
// all four transpose modes over the training workloads' shapes (and their
// backward shapes), ragged tails, alpha != 1 and beta in {0, 1, 0.5}, with
// signed zeros in A and C and Inf/NaN in B. GemmIsaTest checks that every
// ISA the host supports produces the scalar table's bytes. Both compare
// every NaN as one value; see DigestShape.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/simd.h"
#include "tensor/ops.h"

namespace lpsgd {
namespace {

struct GemmShape {
  int m, k, n;
};

struct GoldenCase {
  GemmShape shape;
  uint64_t hash;  // FNV-1a 64 over every output of DigestShape()
};

struct AlphaBeta {
  float alpha, beta;
};

constexpr AlphaBeta kAlphaBetas[] = {
    {1.0f, 0.0f}, {1.0f, 1.0f}, {-0.75f, 0.5f}, {2.5f, 0.0f}};

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t Fnv1a64(const void* data, size_t count, uint64_t hash) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < count; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Operands for one (shape, mode, variant) cell, deterministic in all three.
// The finite variant puts a signed zero in every fifth element of A (the
// a_ik == 0 skip) and -0 in C (a skipped product must leave it -0). The
// non-finite variant also writes +Inf, -Inf and NaN into the B rows of
// every k = 3 (mod 7), and zeroes those A columns on even output rows, so
// even rows must come out finite and odd rows must not.
struct Operands {
  Tensor a, b, c;
};

Operands MakeOperands(const GemmShape& s, bool ta, bool tb, bool nonfinite) {
  Rng rng(uint64_t{0x6e33} + s.m * 1000003u + s.k * 1009u + s.n * 7u +
          (ta ? 1u : 0u) * 2 + (tb ? 1u : 0u) * 4 + (nonfinite ? 8u : 0u));
  Operands ops{Tensor(ta ? Shape({s.k, s.m}) : Shape({s.m, s.k})),
               Tensor(tb ? Shape({s.n, s.k}) : Shape({s.k, s.n})),
               Tensor(Shape({s.m, s.n}))};
  ops.a.FillGaussian(&rng, 1.0f);
  ops.b.FillGaussian(&rng, 1.0f);
  ops.c.FillGaussian(&rng, 1.0f);
  for (int64_t idx = 0; idx < ops.a.size(); idx += 5) {
    ops.a.at(idx) = (idx % 10 == 0) ? 0.0f : -0.0f;
  }
  ops.c.at(0) = -0.0f;
  if (!nonfinite) return ops;
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (int kk = 3; kk < s.k; kk += 7) {
    for (int j = 0; j < s.n; ++j) {
      float& bv = tb ? ops.b.at(j, kk) : ops.b.at(kk, j);
      bv = specials[(kk + j) % 3];
    }
    for (int i = 0; i < s.m; i += 2) {
      float& av = ta ? ops.a.at(kk, i) : ops.a.at(i, kk);
      av = (i % 4 == 0) ? 0.0f : -0.0f;
    }
  }
  return ops;
}

// Runs every mode x (alpha, beta) x variant cell of `shape` and appends
// each output to `outputs` in a fixed order.
void RunShape(const GemmShape& shape, std::vector<Tensor>* outputs) {
  for (bool nonfinite : {false, true}) {
    for (int mode = 0; mode < 4; ++mode) {
      const bool ta = (mode & 1) != 0;
      const bool tb = (mode & 2) != 0;
      for (const AlphaBeta& ab : kAlphaBetas) {
        Operands ops = MakeOperands(shape, ta, tb, nonfinite);
        Gemm(ta, tb, ab.alpha, ops.a, ops.b, ab.beta, &ops.c);
        outputs->push_back(std::move(ops.c));
      }
    }
  }
}

// FNV-1a over the output bytes. Every NaN is hashed as the canonical quiet
// NaN: when both operands of an add are NaN, IEEE 754 leaves open which
// payload the result carries, and the compiler may swap the operands of
// the scalar reference's add, so NaN payloads are not part of the
// contract. Which elements are NaN, and every other bit, are.
uint64_t DigestShape(const GemmShape& shape) {
  std::vector<Tensor> outputs;
  RunShape(shape, &outputs);
  uint64_t hash = kFnvBasis;
  const float canonical_nan = std::numeric_limits<float>::quiet_NaN();
  for (const Tensor& out : outputs) {
    for (int64_t i = 0; i < out.size(); ++i) {
      const float v = std::isnan(out.at(i)) ? canonical_nan : out.at(i);
      hash = Fnv1a64(&v, sizeof(v), hash);
    }
  }
  return hash;
}

// m x k x n after op(). The workload shapes are the per-rank GEMMs of the
// benchmark models: the stacked LSTM (batch 8, frame 12, hidden 64), the
// 64-512-512-10 MLP (batch 2) and the mini-AlexNet (conv1 8x9x64, conv2
// 16x72x16, fc layers at batch 8), each with its backward TN/NN shapes.
const GoldenCase kGoldenCases[] = {
    // LSTM forward: x Wx^T, h Wh^T, fc.
    {{8, 12, 256}, 0x4e32bf07eda6b3bfULL},
    {{8, 64, 256}, 0xe39f9807d4ea3e75ULL},
    {{8, 64, 8}, 0xfe2d7b0fae25a425ULL},
    // LSTM backward: dW += dgates^T x, dx = dgates W.
    {{256, 8, 12}, 0xfa08e84368c58869ULL},
    {{256, 8, 64}, 0x7dd3ec0b958715ebULL},
    {{8, 256, 12}, 0xa4432385d6e602ebULL},
    {{8, 256, 64}, 0xbd89c3cfae55a646ULL},
    // MLP forward and backward.
    {{2, 512, 512}, 0xd684f7c67da104ffULL},
    {{2, 64, 512}, 0x69e194cc8eaad1f2ULL},
    {{512, 2, 512}, 0xba6700ccf49a0f2eULL},
    {{512, 2, 64}, 0xc4f62a2a20543798ULL},
    // Mini-AlexNet conv forward, dW and patch gradients; fc layers.
    {{16, 72, 16}, 0x6ceb0890e85625b4ULL},
    {{8, 9, 64}, 0xb1d47c5380cd1e11ULL},
    {{16, 16, 72}, 0x4bffae0e55ccd540ULL},
    {{8, 64, 9}, 0xc483dbbe8a116070ULL},
    {{64, 8, 9}, 0x7db135f1ed095123ULL},
    {{8, 64, 64}, 0x1924f5b721d63625ULL},
    {{8, 64, 10}, 0xae0bb53384eb590dULL},
    // Tails that are not a multiple of any vector or block width.
    {{1, 1, 1}, 0x1265761eb67ced25ULL},
    {{3, 5, 7}, 0xf55b83dd8753701eULL},
    {{5, 3, 17}, 0x5fc61ed601fffba0ULL},
    {{7, 33, 29}, 0x29957e6cab0aee0fULL},
    {{13, 19, 41}, 0x80cbc0c01998aecbULL},
};

TEST(GemmGoldenTest, OutputBytesMatchPinnedDigests) {
  for (const GoldenCase& golden : kGoldenCases) {
    const GemmShape& s = golden.shape;
    EXPECT_EQ(DigestShape(s), golden.hash)
        << s.m << "x" << s.k << "x" << s.n << " digest 0x" << std::hex
        << DigestShape(s);
  }
}

TEST(GemmIsaTest, EverySupportedIsaMatchesScalarBytes) {
  for (const GoldenCase& golden : kGoldenCases) {
    const GemmShape& s = golden.shape;
    SCOPED_TRACE(testing::Message() << s.m << "x" << s.k << "x" << s.n);
    std::vector<Tensor> scalar;
    {
      ScopedSimdIsa scope(SimdIsa::kScalar);
      RunShape(s, &scalar);
    }
    for (SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
      if (!SimdIsaSupported(isa)) continue;
      SCOPED_TRACE(SimdIsaName(isa));
      std::vector<Tensor> vector;
      {
        ScopedSimdIsa scope(isa);
        RunShape(s, &vector);
      }
      ASSERT_EQ(scalar.size(), vector.size());
      for (size_t i = 0; i < scalar.size(); ++i) {
        for (int64_t e = 0; e < scalar[i].size(); ++e) {
          const float x = scalar[i].at(e);
          const float y = vector[i].at(e);
          if (std::isnan(x) && std::isnan(y)) continue;
          ASSERT_EQ(0, std::memcmp(&x, &y, sizeof(float)))
              << "cell " << i << " element " << e << ": " << x << " vs " << y;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lpsgd
