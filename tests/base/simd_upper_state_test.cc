// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Every entry of every SIMD kernel table (ElementwiseKernels, GemmKernels,
// CodecKernels) must return with the AVX upper state clean. A kernel that
// returns dirty slows every later legacy-SSE instruction on its thread;
// scanning the disassembly for ymm operands misses the memory-operand
// forms (`vcvtpd2psy (mem), %xmm0` names no ymm register, so the compiler
// inserts no vzeroupper). Each call runs from a clean state with every
// length from 0 to 2 x lanes + 3 (and one multi-tile length), so every
// head, tail and early-return path is checked.
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/bit_packing.h"
#include "base/rng.h"
#include "base/simd/elementwise.h"
#include "base/simd/simd.h"
#include "base/strings.h"
#include "quant/simd_kernels.h"
#include "tensor/gemm_kernels.h"
#include "testing/avx_state.h"

namespace lpsgd {
namespace {

using quant_simd::CodecKernels;
using quant_simd::DequantizeArgs;
using quant_simd::QuantizeArgs;

constexpr int kLanes = 8;  // fp32 lanes of the widest table (AVX2)
constexpr int64_t kMultiTile = 1100;

std::vector<int64_t> Lengths() {
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 2 * kLanes + 3; ++n) lengths.push_back(n);
  lengths.push_back(kMultiTile);
  return lengths;
}

std::vector<float> Values(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(static_cast<size_t>(n));
  for (float& v : values) v = static_cast<float>(rng.NextGaussian());
  // Zeros and a negative zero, so the skip and sign paths run too.
  for (size_t i = 0; i < values.size(); i += 7) values[i] = 0.0f;
  if (values.size() > 3) values[3] = -0.0f;
  return values;
}

// Counts the calls that returned with the upper state dirty and keeps the
// first few names, so one broken kernel does not print thousands of lines.
class UpperStateChecker {
 public:
  void Check(const std::string& what, const std::function<void()>& call) {
    ClearAvxUpperState();
    call();
    const bool dirty = AvxUpperStateDirty();
    ++calls_;
    if (!dirty) return;
    ++dirty_;
    if (dirty_ <= 8) failures_ += what + "\n";
  }

  void Expect(const char* table) const {
    EXPECT_GT(calls_, 0);
    EXPECT_EQ(dirty_, 0) << table << ": " << dirty_ << " of " << calls_
                         << " calls returned with dirty upper state, e.g.\n"
                         << failures_;
  }

 private:
  int64_t calls_ = 0;
  int64_t dirty_ = 0;
  std::string failures_;
};

class SimdUpperStateTest : public ::testing::TestWithParam<SimdIsa> {
 protected:
  void SetUp() override {
    const std::string unavailable = AvxStateProbeUnavailable();
    if (!unavailable.empty()) GTEST_SKIP() << unavailable;
    if (!SimdIsaSupported(GetParam())) {
      GTEST_SKIP() << SimdIsaName(GetParam()) << " not supported here";
    }
  }
};

TEST_P(SimdUpperStateTest, ElementwiseKernelsReturnClean) {
  const ElementwiseKernels& k = ElementwiseKernelsForIsa(GetParam());
  UpperStateChecker checker;
  for (const int64_t n : Lengths()) {
    std::vector<float> a = Values(n, 1);
    std::vector<float> b = Values(n, 2);
    std::vector<float> out(static_cast<size_t>(n));
    std::vector<double> wide(static_cast<size_t>(n), 0.5);
    const std::string at = StrCat(" n=", n);
    checker.Check("max_abs_f32" + at,
                  [&] { (void)k.max_abs_f32(a.data(), n); });
    checker.Check("add_f32" + at,
                  [&] { k.add_f32(a.data(), b.data(), out.data(), n); });
    checker.Check("abs_f32" + at,
                  [&] { k.abs_f32(a.data(), out.data(), n); });
    checker.Check("add_assign_f32" + at,
                  [&] { k.add_assign_f32(out.data(), a.data(), n); });
    checker.Check("accumulate_f64" + at,
                  [&] { k.accumulate_f64(wide.data(), a.data(), n); });
    checker.Check("store_f64_as_f32" + at,
                  [&] { k.store_f64_as_f32(wide.data(), out.data(), n); });
  }
  checker.Expect("ElementwiseKernels");
}

TEST_P(SimdUpperStateTest, GemmKernelsReturnClean) {
  const GemmKernels& k = GemmKernelsForIsa(GetParam());
  UpperStateChecker checker;
  constexpr int64_t kMax = 2 * kLanes + 3;
  // One A, B and C big enough for every shape below, including the
  // streamed large-B block (k * cols >= 32k floats).
  constexpr int64_t kLargeK = 2048;
  const std::vector<float> a = Values(kMax * kLargeK, 3);
  const std::vector<float> b = Values(kMax * kLargeK, 4);
  std::vector<float> c(static_cast<size_t>(kMax * kMax));
  std::vector<float> panel(static_cast<size_t>(kLargeK * kGemmTileCols));
  const std::vector<uint8_t> no_zero(kMax, 0);
  const std::vector<uint8_t> has_zero(kMax, 1);

  auto block_of = [&](int64_t rows, int64_t cols, int64_t depth,
                      bool padded, bool zeros) {
    GemmBlock block;
    block.rows = rows;
    block.cols = cols;
    block.k = depth;
    block.alpha = 1.0f;
    block.beta = 0.5f;
    block.a = a.data();
    block.a_row_stride = depth;
    block.a_k_stride = 1;
    block.tile_has_zero = zeros ? has_zero.data() : no_zero.data();
    block.b = padded ? panel.data() : b.data();
    block.b_k_stride = padded ? kGemmTileCols : cols;
    block.b_padded = padded;
    block.c = c.data();
    block.ldc = cols;
    return block;
  };
  for (int64_t depth = 0; depth <= kMax; ++depth) {
    for (int64_t cols = 1; cols <= kMax; ++cols) {
      for (int64_t rows = 1; rows <= kMax; ++rows) {
        for (const bool padded : {false, true}) {
          if (padded && cols > kGemmTileCols) continue;
          for (const bool zeros : {false, true}) {
            const GemmBlock block =
                block_of(rows, cols, depth, padded, zeros);
            checker.Check(StrCat("block rows=", rows, " cols=", cols,
                                 " k=", depth, " padded=", padded,
                                 " zeros=", zeros),
                          [&] { k.block(block); });
          }
        }
      }
    }
    for (int64_t cols = 0; cols <= kGemmTileCols; ++cols) {
      checker.Check(StrCat("pack_transposed cols=", cols, " k=", depth),
                    [&] {
                      k.pack_transposed(b.data(), depth, depth, cols,
                                        panel.data());
                    });
    }
  }
  for (const bool zeros : {false, true}) {
    const GemmBlock block = block_of(3, kGemmTileCols, kLargeK, false, zeros);
    checker.Check(StrCat("block streamed large B zeros=", zeros),
                  [&] { k.block(block); });
  }
  checker.Expect("GemmKernels");
}

TEST_P(SimdUpperStateTest, CodecKernelsReturnClean) {
  const CodecKernels& k = quant_simd::CodecKernelsForIsa(GetParam());
  UpperStateChecker checker;
  for (const int bits : {2, 4, 8}) {
    const uint32_t sm_levels = (1u << (bits - 1)) - 1u;
    const uint32_t sym_levels = (1u << bits) - 1u;
    std::vector<double> sm_table(sm_levels + 1);
    std::vector<double> nuq_table(sm_levels + 1, 0.0);
    for (uint32_t m = 0; m <= sm_levels; ++m) {
      sm_table[m] = static_cast<double>(m) / sm_levels;
      if (m > 0) {
        nuq_table[m] = std::ldexp(1.0, static_cast<int>(m) -
                                           static_cast<int>(sm_levels));
      }
    }
    for (const int64_t n : Lengths()) {
      // Start at a word boundary and mid-word, so the scalar head runs.
      for (const int prefix : {0, 3}) {
        const std::vector<float> grad = Values(n, 5);
        std::vector<float> error = Values(n, 6);
        std::vector<float> out(static_cast<size_t>(n));
        std::vector<uint32_t> words(static_cast<size_t>(n + 64), 0u);
        Rng rng(7);
        for (uint32_t& w : words) {
          w = static_cast<uint32_t>(rng.NextUint64());
        }
        const std::string at =
            StrCat(" bits=", bits, " n=", n, " prefix=", prefix);

        auto quantize = [&](const char* name,
                            void (*kernel)(const QuantizeArgs&),
                            uint32_t levels, int field_bits,
                            const double* magnitudes, float* residual,
                            double threshold) {
          std::vector<uint32_t> blob(static_cast<size_t>(n + 64), 0u);
          BitWriter writer(blob.data(), field_bits);
          for (int p = 0; p < prefix; ++p) writer.Put(0);
          QuantizeArgs args;
          args.values = grad.data();
          args.begin = 0;
          args.end = n;
          args.scale = 1.5;
          args.stream_seed = 42;
          args.bits = field_bits;
          args.level_count = levels;
          args.writer = &writer;
          args.magnitudes = magnitudes;
          args.error = residual;
          args.threshold = threshold;
          checker.Check(name + at, [&] { kernel(args); });
        };
        auto dequantize = [&](const char* name,
                              void (*kernel)(const DequantizeArgs&),
                              int field_bits, const double* magnitudes,
                              double s) {
          BitReader reader(words.data(), field_bits);
          for (int p = 0; p < prefix; ++p) (void)reader.Next();
          DequantizeArgs args;
          args.reader = &reader;
          args.begin = 0;
          args.end = n;
          args.scale = 1.5;
          args.bits = field_bits;
          args.magnitude_mask = (1u << (field_bits - 1)) - 1u;
          args.magnitudes = magnitudes;
          args.s = s;
          args.out = out.data();
          checker.Check(name + at, [&] { kernel(args); });
        };

        quantize("qsgd_quantize_sm", k.qsgd_quantize_sm, sm_levels, bits,
                 nullptr, nullptr, 0.0);
        quantize("qsgd_quantize_sym", k.qsgd_quantize_sym, sym_levels, bits,
                 nullptr, nullptr, 0.0);
        quantize("ecq_quantize", k.ecq_quantize, sm_levels, bits,
                 sm_table.data(), error.data(), 0.0);
        quantize("ecq_quantize(no feedback)", k.ecq_quantize, sm_levels,
                 bits, sm_table.data(), nullptr, 0.0);
        quantize("nuq_quantize", k.nuq_quantize, sm_levels, bits,
                 nuq_table.data(), nullptr, 0.0);
        quantize("terngrad_quantize", k.terngrad_quantize, 1, 2, nullptr,
                 nullptr, 0.75);
        dequantize("dequantize_sm", k.dequantize_sm, bits, sm_table.data(),
                   0.0);
        dequantize("dequantize_sym", k.dequantize_sym, bits, nullptr,
                   static_cast<double>(sym_levels));
        dequantize("terngrad_dequantize", k.terngrad_dequantize, 2, nullptr,
                   0.0);

        if (bits != 4) continue;  // the rest take no field width
        std::vector<uint32_t> sign_bits(static_cast<size_t>(n / 32 + 2), 0u);
        const int64_t begin = prefix;
        const int64_t end = std::max<int64_t>(begin, n);
        checker.Check("one_bit_quantize" + at, [&] {
          k.one_bit_quantize(grad.data(), error.data(), begin, end, 0.5f,
                             -0.5f, sign_bits.data());
        });
        checker.Check("one_bit_quantize(no feedback)" + at, [&] {
          k.one_bit_quantize(grad.data(), nullptr, begin, end, 0.5f, -0.5f,
                             sign_bits.data());
        });
        checker.Check("one_bit_dequantize" + at, [&] {
          k.one_bit_dequantize(words.data(), begin, end, 0.5f, -0.5f,
                               out.data());
        });
        checker.Check("stage_corrected" + at, [&] {
          k.stage_corrected(grad.data(), error.data(), out.data(), n);
        });
        checker.Check("stage_corrected(no feedback)" + at, [&] {
          k.stage_corrected(grad.data(), nullptr, out.data(), n);
        });
      }
    }
  }
  checker.Expect("CodecKernels");
}

INSTANTIATE_TEST_SUITE_P(
    Isa, SimdUpperStateTest,
    ::testing::Values(SimdIsa::kScalar, SimdIsa::kAvx2),
    [](const ::testing::TestParamInfo<SimdIsa>& info) {
      return std::string(SimdIsaName(info.param));
    });

}  // namespace
}  // namespace lpsgd
