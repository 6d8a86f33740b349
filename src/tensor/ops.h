// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_TENSOR_OPS_H_
#define LPSGD_TENSOR_OPS_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace lpsgd {

// Dense linear algebra over the 2-D (rows x cols) view of tensors. All
// routines are single-threaded; a simulated GPU rank executes them
// sequentially and virtual time is charged separately by the cost model.

// C = alpha * op(A) * op(B) + beta * C, where op(X) = X or X^T.
// Shapes (after op): A is m x k, B is k x n, C must be m x n.
//
// Every output element sees exactly this sequence, on every path and ISA:
//   c = beta * c, or c = 0 when beta == 0 (so NaN in C is cleared);
//   then for k ascending, unless alpha * a_ik == 0:
//     c = c + (alpha * a_ik) * b_kj
// as a separate IEEE mul and add: no FMA, no reassociation over k. The
// skip is per (i, k), so a zero in A keeps Inf/NaN in B out of C and
// leaves a -0 in C as it is. Results are therefore bit-identical across
// transpose modes' code paths, tile shapes and ISAs.
//
// The kernel (tensor/gemm_kernels.h) cuts C into 4 x 16 tiles held in
// registers for the whole k loop, vectorized along j through the
// base/simd dispatch (a scalar table and an AVX2 table). No mode walks a
// strided operand in its inner loop: a transposed B is packed one
// 16-column strip at a time into a per-thread panel, and a large
// untransposed B streams row by row past L1-resident rows of C. Callers
// that reuse one B^T across many calls (the LSTM's weights over time
// steps) should Transpose it once and pass it untransposed.
void Gemm(bool transpose_a, bool transpose_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c);

// out = x^T; `out` must be pre-shaped cols(x) x rows(x).
void Transpose(const Tensor& x, Tensor* out);

// y += alpha * x (element count must match).
void Axpy(float alpha, const Tensor& x, Tensor* y);

// x *= alpha.
void Scale(float alpha, Tensor* x);

// Adds `bias` (length = cols of `x`) to every row of `x`.
void AddRowBroadcast(const Tensor& bias, Tensor* x);

// bias_grad[c] = sum over rows of grad(r, c). Overwrites `bias_grad`.
void SumRowsTo(const Tensor& grad, Tensor* bias_grad);

// Row-wise softmax: probs(r, :) = softmax(logits(r, :)). In-place allowed.
void SoftmaxRows(const Tensor& logits, Tensor* probs);

// im2col for 2-D convolution with square stride/padding semantics.
// Input `image` has shape {channels, height, width} (one sample) or
// {batch, channels, height, width}. Output `patches` must have shape
//   {batch * out_h * out_w, channels * kernel_h * kernel_w},
// one row per output position, sample-major. Padding uses zeros.
void Im2Col(const Tensor& image, int kernel_h, int kernel_w, int stride,
            int padding, Tensor* patches);

// Transpose of Im2Col: scatters patch gradients back onto the image
// gradient (accumulating). `image_grad` must be pre-shaped {C, H, W} or
// {N, C, H, W}; contents are accumulated into, not overwritten.
void Col2Im(const Tensor& patches, int kernel_h, int kernel_w, int stride,
            int padding, Tensor* image_grad);

// Output spatial size for a convolution/pooling dimension.
inline int ConvOutputSize(int input, int kernel, int stride, int padding) {
  return (input + 2 * padding - kernel) / stride + 1;
}

// Returns the index of the maximum element of row `r` of `x`.
int64_t ArgMaxRow(const Tensor& x, int64_t r);

}  // namespace lpsgd

#endif  // LPSGD_TENSOR_OPS_H_
