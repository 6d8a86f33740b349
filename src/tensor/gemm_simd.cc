// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Vector Gemm kernels. A tile holds up to 4 rows x 16 columns of C in
// registers across the whole k loop and vectorizes along the columns:
// lanes are distinct output elements, so each one sees the scalar
// reference's sequence exactly — beta (or a zero fill) first, then for k
// ascending c = c + (alpha * a_ik) * b_kj as a separate mul and add. In a
// tile whose A rows hold a zero product, the a_ik == 0 skip becomes a
// select that keeps the old accumulator, which preserves -0 and never
// lets 0 * Inf or 0 * NaN in. No FMA: the functions target AVX2 only, and
// the build is strict ISO C++, where GCC does not contract. The packing
// routine only moves bits. tests/tensor/gemm_golden_test.cc asserts the
// bytes against the scalar table.
#include "tensor/gemm_kernels.h"

#include <algorithm>

#include "base/thread_annotations.h"

#if defined(__x86_64__)
#include <immintrin.h>

namespace lpsgd {
namespace simd_avx2 {
namespace {

constexpr int64_t kLanes = 8;                // floats per __m256
constexpr int64_t kPanelRow = kGemmTileCols;  // floats per packed panel row

// One tile: rows [i0, i0 + kRows) and columns [j0, j0 + 8 * kVecs) of
// the block. kMaskC: the last vector is partial, so C is loaded and stored
// under `tail`. kMaskB: B rows are not padded, so the last B vector is
// loaded under `tail` too. kSkip: some alpha * a_ik of the tile is zero.
template <int kRows, int kVecs, bool kMaskC, bool kMaskB, bool kSkip>
LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH void Tile(const GemmBlock& s,
                                                int64_t i0, int64_t j0,
                                                __m256i tail) {
  __m256 acc[kRows][kVecs];
  const __m256 beta = _mm256_set1_ps(s.beta);
  for (int r = 0; r < kRows; ++r) {
    const float* crow = s.c + (i0 + r) * s.ldc + j0;
    for (int v = 0; v < kVecs; ++v) {
      if (s.beta == 0.0f) {
        acc[r][v] = _mm256_setzero_ps();
        continue;
      }
      const __m256 cv = (kMaskC && v == kVecs - 1)
                            ? _mm256_maskload_ps(crow + kLanes * v, tail)
                            : _mm256_loadu_ps(crow + kLanes * v);
      acc[r][v] = s.beta == 1.0f ? cv : _mm256_mul_ps(cv, beta);
    }
  }
  const __m256 zero = _mm256_setzero_ps();
  const float* a = s.a + i0 * s.a_row_stride;
  for (int64_t kk = 0; kk < s.k; ++kk) {
    const float* brow = s.b + kk * s.b_k_stride + j0;
    __m256 bv[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      bv[v] = (kMaskB && v == kVecs - 1)
                  ? _mm256_maskload_ps(brow + kLanes * v, tail)
                  : _mm256_loadu_ps(brow + kLanes * v);
    }
    const float* acol = a + kk * s.a_k_stride;
    for (int r = 0; r < kRows; ++r) {
      const __m256 av = _mm256_set1_ps(s.alpha * acol[r * s.a_row_stride]);
      if (kSkip) {
        const __m256 skip = _mm256_cmp_ps(av, zero, _CMP_EQ_OQ);
        for (int v = 0; v < kVecs; ++v) {
          const __m256 sum =
              _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
          acc[r][v] = _mm256_blendv_ps(sum, acc[r][v], skip);
        }
      } else {
        for (int v = 0; v < kVecs; ++v) {
          acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
        }
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    float* crow = s.c + (i0 + r) * s.ldc + j0;
    for (int v = 0; v < kVecs; ++v) {
      if (kMaskC && v == kVecs - 1) {
        _mm256_maskstore_ps(crow + kLanes * v, tail, acc[r][v]);
      } else {
        _mm256_storeu_ps(crow + kLanes * v, acc[r][v]);
      }
    }
  }
}

// One row tile across the block: full 16-column strips, then the
// remaining cols mod 16 columns under `tail`.
template <int kRows, bool kSkip>
LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH void RowTile(const GemmBlock& s,
                                                   int64_t i0,
                                                   __m256i tail) {
  const int64_t full = s.cols - s.cols % kGemmTileCols;
  for (int64_t j0 = 0; j0 < full; j0 += kGemmTileCols) {
    Tile<kRows, 2, false, false, kSkip>(s, i0, j0, tail);
  }
  const int64_t rest = s.cols - full;
  if (rest == 0) return;
  if (rest % 8 == 0) {
    Tile<kRows, 1, false, false, kSkip>(s, i0, full, tail);
  } else if (s.b_padded) {
    if (rest > 8) {
      Tile<kRows, 2, true, false, kSkip>(s, i0, full, tail);
    } else {
      Tile<kRows, 1, true, false, kSkip>(s, i0, full, tail);
    }
  } else if (rest > 8) {
    Tile<kRows, 2, true, true, kSkip>(s, i0, full, tail);
  } else {
    Tile<kRows, 1, true, true, kSkip>(s, i0, full, tail);
  }
}

template <int kRows>
LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH void RowTileWithSkip(
    const GemmBlock& s, int64_t tile, __m256i tail) {
  const int64_t i0 = tile * kGemmTileRows;
  if (s.tile_has_zero[tile] != 0) {
    RowTile<kRows, true>(s, i0, tail);
  } else {
    RowTile<kRows, false>(s, i0, tail);
  }
}

// Transposes the 8 x 8 block at `b` (8 rows, row stride ldb) into the
// first 8 columns of the 8 panel rows starting at `panel_block`.
LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH inline void Transpose8x8(
    const float* b, int64_t ldb, float* panel_block) {
  const __m256 r0 = _mm256_loadu_ps(b);
  const __m256 r1 = _mm256_loadu_ps(b + ldb);
  const __m256 r2 = _mm256_loadu_ps(b + 2 * ldb);
  const __m256 r3 = _mm256_loadu_ps(b + 3 * ldb);
  const __m256 r4 = _mm256_loadu_ps(b + 4 * ldb);
  const __m256 r5 = _mm256_loadu_ps(b + 5 * ldb);
  const __m256 r6 = _mm256_loadu_ps(b + 6 * ldb);
  const __m256 r7 = _mm256_loadu_ps(b + 7 * ldb);
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  float* out = panel_block;
  _mm256_storeu_ps(out, _mm256_permute2f128_ps(u0, u4, 0x20));
  _mm256_storeu_ps(out + kPanelRow, _mm256_permute2f128_ps(u1, u5, 0x20));
  _mm256_storeu_ps(out + 2 * kPanelRow,
                   _mm256_permute2f128_ps(u2, u6, 0x20));
  _mm256_storeu_ps(out + 3 * kPanelRow,
                   _mm256_permute2f128_ps(u3, u7, 0x20));
  _mm256_storeu_ps(out + 4 * kPanelRow,
                   _mm256_permute2f128_ps(u0, u4, 0x31));
  _mm256_storeu_ps(out + 5 * kPanelRow,
                   _mm256_permute2f128_ps(u1, u5, 0x31));
  _mm256_storeu_ps(out + 6 * kPanelRow,
                   _mm256_permute2f128_ps(u2, u6, 0x31));
  _mm256_storeu_ps(out + 7 * kPanelRow,
                   _mm256_permute2f128_ps(u3, u7, 0x31));
}

}  // namespace

// Unpacked B: up to kGemmTileRows rows of C stay in L1, kStreamCols
// columns at a time, while whole B rows stream past in order. A zero
// alpha * a_ik skips its row's update outright, as the reference does.
// GemmBlockF32 takes this path where register tiles lose: a B too large
// for cache, which tiles would walk down its columns, and a k so short
// that C traffic dominates and skipped rows of C are never touched.
constexpr int64_t kStreamCols = 256;
constexpr int64_t kStreamMaxK = 4;
constexpr int64_t kStreamMinB = 32768;  // floats of B

LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH void StreamRows(const GemmBlock& s) {
  const __m256 beta = _mm256_set1_ps(s.beta);
  for (int64_t i0 = 0; i0 < s.rows; i0 += kGemmTileRows) {
    const int64_t rows = std::min<int64_t>(kGemmTileRows, s.rows - i0);
    for (int64_t j0 = 0; j0 < s.cols; j0 += kStreamCols) {
      const int64_t cols = std::min(kStreamCols, s.cols - j0);
      const int64_t vec_end = cols - cols % 8;
      for (int64_t r = 0; r < rows; ++r) {
        float* crow = s.c + (i0 + r) * s.ldc + j0;
        if (s.beta == 0.0f) {
          for (int64_t j = 0; j < cols; ++j) crow[j] = 0.0f;
        } else if (s.beta != 1.0f) {
          int64_t j = 0;
          for (; j < vec_end; j += 8) {
            _mm256_storeu_ps(crow + j,
                             _mm256_mul_ps(_mm256_loadu_ps(crow + j), beta));
          }
          for (; j < cols; ++j) crow[j] *= s.beta;
        }
      }
      for (int64_t kk = 0; kk < s.k; ++kk) {
        const float* brow = s.b + kk * s.b_k_stride + j0;
        for (int64_t r = 0; r < rows; ++r) {
          const float aik =
              s.alpha * s.a[(i0 + r) * s.a_row_stride + kk * s.a_k_stride];
          if (aik == 0.0f) continue;
          float* crow = s.c + (i0 + r) * s.ldc + j0;
          const __m256 av = _mm256_set1_ps(aik);
          int64_t j = 0;
          for (; j < vec_end; j += 8) {
            _mm256_storeu_ps(
                crow + j,
                _mm256_add_ps(_mm256_loadu_ps(crow + j),
                              _mm256_mul_ps(av, _mm256_loadu_ps(brow + j))));
          }
          for (; j < cols; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void GemmBlockF32(const GemmBlock& s) {
  if (!s.b_padded && (s.k <= kStreamMaxK || s.k * s.cols >= kStreamMinB)) {
    StreamRows(s);
    _mm256_zeroupper();
    return;
  }
  // Lanes [0, cols mod 8) of the last vector, or all of them.
  const int64_t last = s.cols - 8 * ((s.cols - 1) / 8);
  const __m256i tail = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(last)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const int64_t full_tiles = s.rows / kGemmTileRows;
  for (int64_t tile = 0; tile < full_tiles; ++tile) {
    RowTileWithSkip<kGemmTileRows>(s, tile, tail);
  }
  switch (s.rows % kGemmTileRows) {
    case 1:
      RowTileWithSkip<1>(s, full_tiles, tail);
      break;
    case 2:
      RowTileWithSkip<2>(s, full_tiles, tail);
      break;
    case 3:
      RowTileWithSkip<3>(s, full_tiles, tail);
      break;
    default:
      break;
  }
  // The row tiles take `tail` in a ymm register, so the compiler cannot
  // clear the upper halves before tail-calling them. Clear them here:
  // returning dirty makes every later SSE instruction in the caller (libm,
  // the scalar loops) pay the AVX-SSE transition penalty.
  _mm256_zeroupper();
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void GemmPackTransposedF32(const float* b, int64_t ldb, int64_t k,
                           int64_t cols, float* panel) {
  const int64_t k8 = k - k % 8;
  int64_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    for (int64_t kk = 0; kk < k8; kk += 8) {
      Transpose8x8(b + j * ldb + kk, ldb, panel + kk * kGemmTileCols + j);
    }
    for (int64_t kk = k8; kk < k; ++kk) {
      for (int64_t jj = j; jj < j + 8; ++jj) {
        panel[kk * kGemmTileCols + jj] = b[jj * ldb + kk];
      }
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    float* row = panel + kk * kGemmTileCols;
    for (int64_t jj = j; jj < cols; ++jj) row[jj] = b[jj * ldb + kk];
    for (int64_t jj = cols; jj < kGemmTileCols; ++jj) row[jj] = 0.0f;
  }
}

}  // namespace simd_avx2
}  // namespace lpsgd
#endif  // defined(__x86_64__)
