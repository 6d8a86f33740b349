// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "tensor/gemm_kernels.h"

#include "base/thread_annotations.h"

namespace lpsgd {
namespace simd_scalar {

// The golden reference: per element, beta first, then k ascending with
// the a_ik == 0 skip. The vector tiles reproduce exactly this sequence.
LPSGD_HOT_PATH
void GemmBlockF32(const GemmBlock& s) {
  for (int64_t i = 0; i < s.rows; ++i) {
    float* crow = s.c + i * s.ldc;
    if (s.beta == 0.0f) {
      for (int64_t j = 0; j < s.cols; ++j) crow[j] = 0.0f;
    } else if (s.beta != 1.0f) {
      for (int64_t j = 0; j < s.cols; ++j) crow[j] *= s.beta;
    }
    const float* arow = s.a + i * s.a_row_stride;
    for (int64_t kk = 0; kk < s.k; ++kk) {
      const float aik = s.alpha * arow[kk * s.a_k_stride];
      if (aik == 0.0f) continue;
      const float* brow = s.b + kk * s.b_k_stride;
      for (int64_t j = 0; j < s.cols; ++j) crow[j] += aik * brow[j];
    }
  }
}

LPSGD_HOT_PATH
void GemmPackTransposedF32(const float* b, int64_t ldb, int64_t k,
                           int64_t cols, float* panel) {
  for (int64_t kk = 0; kk < k; ++kk) {
    float* row = panel + kk * kGemmTileCols;
    for (int64_t j = 0; j < cols; ++j) row[j] = b[j * ldb + kk];
    for (int64_t j = cols; j < kGemmTileCols; ++j) row[j] = 0.0f;
  }
}

}  // namespace simd_scalar

const GemmKernels& GemmKernelsForIsa(SimdIsa isa) {
  static const GemmKernels scalar = {simd_scalar::GemmBlockF32,
                                     simd_scalar::GemmPackTransposedF32};
#if defined(__x86_64__)
  static const GemmKernels avx2 = {simd_avx2::GemmBlockF32,
                                   simd_avx2::GemmPackTransposedF32};
  if (isa == SimdIsa::kAvx2 && SimdIsaSupported(SimdIsa::kAvx2)) return avx2;
#endif
  (void)isa;
  return scalar;
}

}  // namespace lpsgd
