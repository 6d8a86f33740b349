// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_TENSOR_GEMM_KERNELS_H_
#define LPSGD_TENSOR_GEMM_KERNELS_H_

#include <cstdint>

#include "base/simd/simd.h"

namespace lpsgd {

// The kernels under Gemm (tensor/ops.h). Gemm hands a block of C to the
// active ISA's block kernel, which walks it row tile by row tile
// (kGemmTileRows rows) and, within a row tile, column strip by column
// strip (kGemmTileCols columns), keeping each tile in registers for the
// whole k loop. Rows outer keeps C streaming through memory in order.
// Every ISA computes each element with the same operations in the same
// order (see ops.h), so all tables produce the scalar table's bytes.
inline constexpr int kGemmTileRows = 4;
inline constexpr int kGemmTileCols = 16;

struct GemmBlock {
  int64_t rows;
  int64_t cols;  // at most kGemmTileCols when `b_padded`
  int64_t k;
  float alpha;
  float beta;
  // Element (i, kk) of op(A) is a[i * a_row_stride + kk * a_k_stride].
  const float* a;
  int64_t a_row_stride;
  int64_t a_k_stride;
  // One flag per row tile: nonzero when alpha * a_ik == 0 for some row i
  // of the tile and some kk, so the tile has products to skip. Tiles
  // without any run a loop with no per-(i, k) test.
  const uint8_t* tile_has_zero;
  // Row kk of op(B) starts at b + kk * b_k_stride and is contiguous over
  // the block's columns. When `b_padded`, every row may be read for the
  // full kGemmTileCols columns (a packed panel); otherwise only `cols`.
  const float* b;
  int64_t b_k_stride;
  bool b_padded;
  float* c;  // the block's first element; row stride ldc
  int64_t ldc;
};

struct GemmKernels {
  void (*block)(const GemmBlock& block);
  // Packs rows [0, cols) of `b` (row stride ldb, k floats each), i.e.
  // cols columns of B^T, into a k x kGemmTileCols panel with rows
  // contiguous over the columns; columns past `cols` are zero.
  void (*pack_transposed)(const float* b, int64_t ldb, int64_t k,
                          int64_t cols, float* panel);
};

// Kernel table for `isa`; ISAs without a table here, or that the host
// cannot run, resolve to the scalar table.
const GemmKernels& GemmKernelsForIsa(SimdIsa isa);

inline const GemmKernels& ActiveGemmKernels() {
  return GemmKernelsForIsa(ActiveSimdIsa());
}

// The always-compiled scalar golden reference.
namespace simd_scalar {
void GemmBlockF32(const GemmBlock& block);
void GemmPackTransposedF32(const float* b, int64_t ldb, int64_t k,
                           int64_t cols, float* panel);
}  // namespace simd_scalar

// The AVX2 variant, defined in gemm_simd.cc. Other ISAs, NEON included,
// run the scalar table.
#if defined(__x86_64__)
namespace simd_avx2 {
void GemmBlockF32(const GemmBlock& block);
void GemmPackTransposedF32(const float* b, int64_t ldb, int64_t k,
                           int64_t cols, float* panel);
}  // namespace simd_avx2
#endif

}  // namespace lpsgd

#endif  // LPSGD_TENSOR_GEMM_KERNELS_H_
