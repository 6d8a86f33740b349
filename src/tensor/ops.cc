// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/logging.h"
#include "tensor/gemm_kernels.h"

namespace lpsgd {

namespace {

// Marks each tile of kGemmTileRows rows of op(A) that holds a product
// alpha * a_ik equal to zero, the ones the kernel must skip. Both loop
// orders keep the inner loop contiguous so it vectorizes.
void MarkZeroTiles(int64_t m, int64_t k, float alpha, const float* a,
                   bool transpose_a, int64_t lda, uint8_t* flags) {
  for (int64_t i0 = 0, tile = 0; i0 < m; i0 += kGemmTileRows, ++tile) {
    const int64_t rows = std::min<int64_t>(kGemmTileRows, m - i0);
    int zeros = 0;
    if (transpose_a) {
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* arow = a + kk * lda + i0;
        for (int64_t r = 0; r < rows; ++r) zeros += alpha * arow[r] == 0.0f;
      }
    } else {
      for (int64_t r = 0; r < rows; ++r) {
        const float* arow = a + (i0 + r) * lda;
        for (int64_t kk = 0; kk < k; ++kk) zeros += alpha * arow[kk] == 0.0f;
      }
    }
    flags[tile] = zeros > 0 ? 1 : 0;
  }
}

}  // namespace

void Gemm(bool transpose_a, bool transpose_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c) {
  const int64_t m = transpose_a ? a.cols() : a.rows();
  const int64_t k = transpose_a ? a.rows() : a.cols();
  const int64_t k2 = transpose_b ? b.cols() : b.rows();
  const int64_t n = transpose_b ? b.rows() : b.cols();
  CHECK_EQ(k, k2) << "Gemm inner dimensions";
  CHECK_EQ(c->rows(), m);
  CHECK_EQ(c->cols(), n);
  if (m == 0 || n == 0) return;

  // Per-thread scratch, grown to the largest call seen: one zero flag per
  // row tile, and for a transposed B a panel of one column strip, so the
  // panel never holds more than k x kGemmTileCols floats.
  thread_local std::vector<uint8_t> tile_flags;
  thread_local std::vector<float> panel;
  const int64_t tiles = (m + kGemmTileRows - 1) / kGemmTileRows;
  if (tile_flags.size() < static_cast<size_t>(tiles)) {
    tile_flags.resize(static_cast<size_t>(tiles));
  }
  if (transpose_b && panel.size() < static_cast<size_t>(k * kGemmTileCols)) {
    panel.resize(static_cast<size_t>(k * kGemmTileCols));
  }

  GemmBlock block;
  block.rows = m;
  block.k = k;
  block.alpha = alpha;
  block.beta = beta;
  block.a = a.data();
  block.a_row_stride = transpose_a ? 1 : a.cols();
  block.a_k_stride = transpose_a ? a.cols() : 1;
  block.tile_has_zero = tile_flags.data();
  block.ldc = n;
  MarkZeroTiles(m, k, alpha, block.a, transpose_a, a.cols(),
                tile_flags.data());

  const GemmKernels& kernels = ActiveGemmKernels();
  if (!transpose_b) {
    block.cols = n;
    block.b = b.data();
    block.b_k_stride = n;
    block.b_padded = false;
    block.c = c->data();
    kernels.block(block);
    return;
  }
  // A transposed B is packed one column strip at a time, and every row
  // tile of that strip runs while the panel is in cache. No loop splits
  // k, so each element's k order is the reference's.
  block.b = panel.data();
  block.b_k_stride = kGemmTileCols;
  block.b_padded = true;
  for (int64_t j0 = 0; j0 < n; j0 += kGemmTileCols) {
    block.cols = std::min<int64_t>(kGemmTileCols, n - j0);
    kernels.pack_transposed(b.data() + j0 * b.cols(), b.cols(), k,
                            block.cols, panel.data());
    block.c = c->data() + j0;
    kernels.block(block);
  }
}

void Transpose(const Tensor& x, Tensor* out) {
  CHECK_EQ(out->rows(), x.cols());
  CHECK_EQ(out->cols(), x.rows());
  const int64_t rows = x.rows();
  const int64_t cols = x.cols();
  const float* src = x.data();
  float* dst = out->data();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t col = 0; col < cols; ++col) {
      dst[col * rows + r] = src[r * cols + col];
    }
  }
}

void Axpy(float alpha, const Tensor& x, Tensor* y) {
  CHECK_EQ(x.size(), y->size());
  const float* xd = x.data();
  float* yd = y->data();
  for (int64_t i = 0; i < x.size(); ++i) yd[i] += alpha * xd[i];
}

void Scale(float alpha, Tensor* x) {
  float* xd = x->data();
  for (int64_t i = 0; i < x->size(); ++i) xd[i] *= alpha;
}

void AddRowBroadcast(const Tensor& bias, Tensor* x) {
  CHECK_EQ(bias.size(), x->cols());
  const float* bd = bias.data();
  float* xd = x->data();
  const int64_t cols = x->cols();
  for (int64_t r = 0; r < x->rows(); ++r) {
    float* row = xd + r * cols;
    for (int64_t c = 0; c < cols; ++c) row[c] += bd[c];
  }
}

void SumRowsTo(const Tensor& grad, Tensor* bias_grad) {
  CHECK_EQ(bias_grad->size(), grad.cols());
  bias_grad->SetZero();
  const float* gd = grad.data();
  float* bd = bias_grad->data();
  const int64_t cols = grad.cols();
  for (int64_t r = 0; r < grad.rows(); ++r) {
    const float* row = gd + r * cols;
    for (int64_t c = 0; c < cols; ++c) bd[c] += row[c];
  }
}

void SoftmaxRows(const Tensor& logits, Tensor* probs) {
  CHECK_EQ(logits.rows(), probs->rows());
  CHECK_EQ(logits.cols(), probs->cols());
  const int64_t cols = logits.cols();
  for (int64_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.data() + r * cols;
    float* out = probs->data() + r * cols;
    float max_logit = in[0];
    for (int64_t c = 1; c < cols; ++c) max_logit = std::max(max_logit, in[c]);
    double sum = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      out[c] = std::exp(in[c] - max_logit);
      sum += out[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t c = 0; c < cols; ++c) out[c] *= inv;
  }
}

namespace {

// The {channels, height, width} of one sample of a {C, H, W} tensor or of
// a {N, C, H, W} batch, and the batch size (1 for a single sample).
struct ImageDims {
  int64_t samples;
  int channels;
  int height;
  int width;
};

ImageDims ImageDimsOf(const Shape& shape) {
  CHECK(shape.ndim() == 3 || shape.ndim() == 4) << shape.ToString();
  const int lead = shape.ndim() - 3;
  return {lead == 0 ? 1 : shape.dim(0), static_cast<int>(shape.dim(lead)),
          static_cast<int>(shape.dim(lead + 1)),
          static_cast<int>(shape.dim(lead + 2))};
}

}  // namespace

void Im2Col(const Tensor& image, int kernel_h, int kernel_w, int stride,
            int padding, Tensor* patches) {
  const ImageDims d = ImageDimsOf(image.shape());
  const int out_h = ConvOutputSize(d.height, kernel_h, stride, padding);
  const int out_w = ConvOutputSize(d.width, kernel_w, stride, padding);
  const int64_t plane = int64_t{out_h} * out_w;
  CHECK_EQ(patches->rows(), d.samples * plane);
  CHECK_EQ(patches->cols(), int64_t{d.channels} * kernel_h * kernel_w);

  const int64_t patch_width = patches->cols();
  const int64_t image_size = int64_t{d.channels} * d.height * d.width;
  for (int64_t s = 0; s < d.samples; ++s) {
    const float* img = image.data() + s * image_size;
    float* out = patches->data() + s * plane * patch_width;
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        float* row = out + (int64_t{oy} * out_w + ox) * patch_width;
        int64_t idx = 0;
        for (int ch = 0; ch < d.channels; ++ch) {
          const float* channel = img + int64_t{ch} * d.height * d.width;
          for (int ky = 0; ky < kernel_h; ++ky) {
            const int iy = oy * stride + ky - padding;
            for (int kx = 0; kx < kernel_w; ++kx, ++idx) {
              const int ix = ox * stride + kx - padding;
              row[idx] =
                  (iy >= 0 && iy < d.height && ix >= 0 && ix < d.width)
                      ? channel[int64_t{iy} * d.width + ix]
                      : 0.0f;
            }
          }
        }
      }
    }
  }
}

void Col2Im(const Tensor& patches, int kernel_h, int kernel_w, int stride,
            int padding, Tensor* image_grad) {
  const ImageDims d = ImageDimsOf(image_grad->shape());
  const int out_h = ConvOutputSize(d.height, kernel_h, stride, padding);
  const int out_w = ConvOutputSize(d.width, kernel_w, stride, padding);
  const int64_t plane = int64_t{out_h} * out_w;
  CHECK_EQ(patches.rows(), d.samples * plane);
  CHECK_EQ(patches.cols(), int64_t{d.channels} * kernel_h * kernel_w);

  const int64_t patch_width = patches.cols();
  const int64_t image_size = int64_t{d.channels} * d.height * d.width;
  for (int64_t s = 0; s < d.samples; ++s) {
    const float* in = patches.data() + s * plane * patch_width;
    float* img = image_grad->data() + s * image_size;
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        const float* row = in + (int64_t{oy} * out_w + ox) * patch_width;
        int64_t idx = 0;
        for (int ch = 0; ch < d.channels; ++ch) {
          float* channel = img + int64_t{ch} * d.height * d.width;
          for (int ky = 0; ky < kernel_h; ++ky) {
            const int iy = oy * stride + ky - padding;
            for (int kx = 0; kx < kernel_w; ++kx, ++idx) {
              const int ix = ox * stride + kx - padding;
              if (iy >= 0 && iy < d.height && ix >= 0 && ix < d.width) {
                channel[int64_t{iy} * d.width + ix] += row[idx];
              }
            }
          }
        }
      }
    }
  }
}

int64_t ArgMaxRow(const Tensor& x, int64_t r) {
  const int64_t cols = x.cols();
  const float* row = x.data() + r * cols;
  int64_t best = 0;
  for (int64_t c = 1; c < cols; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

}  // namespace lpsgd
