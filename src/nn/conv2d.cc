// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"
#include "tensor/ops.h"

namespace lpsgd {
namespace {

// GEMM work buffers that live for one Forward or Backward call. One set
// per thread serves every layer and replica that runs on it, so they cost
// memory per thread, not per rank, and stop allocating once they have
// seen the largest shapes.
struct ConvScratch {
  Tensor out_mat;     // {out_c, batch * out_h * out_w}
  Tensor grad_mat;    // {out_c, batch * out_h * out_w}
  Tensor patch_grad;  // {batch * out_h * out_w, in_c * k * k}
};

ConvScratch& Scratch() {
  thread_local ConvScratch scratch;
  return scratch;
}

}  // namespace

Conv2dLayer::Conv2dLayer(std::string name, int in_channels, int out_channels,
                         int kernel_size, int stride, int padding, Rng* rng)
    : name_(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding),
      weight_(std::make_shared<Tensor>(Shape(
          {out_channels, int64_t{in_channels} * kernel_size * kernel_size}))),
      weight_grad_(weight_->shape()),
      bias_(std::make_shared<Tensor>(Shape({out_channels}))),
      bias_grad_(bias_->shape()) {
  CHECK_GT(kernel_size, 0);
  CHECK_GT(stride, 0);
  const float fan_in =
      static_cast<float>(in_channels) * kernel_size * kernel_size;
  weight_->FillGaussian(rng, std::sqrt(2.0f / fan_in));
}

Tensor Conv2dLayer::Forward(const Tensor& input, bool /*training*/) {
  CHECK_EQ(input.shape().ndim(), 4) << name_;
  const int64_t batch = input.shape().dim(0);
  CHECK_EQ(input.shape().dim(1), in_channels_) << name_;
  const int height = static_cast<int>(input.shape().dim(2));
  const int width = static_cast<int>(input.shape().dim(3));
  const int out_h = ConvOutputSize(height, kernel_size_, stride_, padding_);
  const int out_w = ConvOutputSize(width, kernel_size_, stride_, padding_);
  CHECK_GT(out_h, 0) << name_;
  CHECK_GT(out_w, 0) << name_;
  const int64_t plane = int64_t{out_h} * out_w;
  const int64_t positions = batch * plane;

  cached_input_shape_ = input.shape();
  cached_patches_.Resize(
      {positions, int64_t{in_channels_} * kernel_size_ * kernel_size_});
  Im2Col(input, kernel_size_, kernel_size_, stride_, padding_,
         &cached_patches_);

  // out[oc, (s, pos)] = sum_k W[oc, k] * patches[(s, pos), k]: every
  // element sees the k sequence of a per-sample GEMM.
  Tensor& out_mat = Scratch().out_mat;
  out_mat.Resize({out_channels_, positions});
  Gemm(/*transpose_a=*/false, /*transpose_b=*/true, 1.0f, *weight_,
       cached_patches_, 0.0f, &out_mat);

  Tensor output =
      TakeSpare(&output_spare_, {batch, out_channels_, out_h, out_w});
  for (int64_t s = 0; s < batch; ++s) {
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float b = bias_->at(oc);
      const float* src = out_mat.data() + oc * positions + s * plane;
      float* dst = output.data() + (s * out_channels_ + oc) * plane;
      for (int64_t p = 0; p < plane; ++p) dst[p] = src[p] + b;
    }
  }
  return output;
}

Tensor Conv2dLayer::Backward(const Tensor& output_grad) {
  const Shape& in_shape = cached_input_shape_;
  const int64_t batch = in_shape.dim(0);
  const int height = static_cast<int>(in_shape.dim(2));
  const int width = static_cast<int>(in_shape.dim(3));
  const int out_h = ConvOutputSize(height, kernel_size_, stride_, padding_);
  const int out_w = ConvOutputSize(width, kernel_size_, stride_, padding_);
  const int64_t plane = int64_t{out_h} * out_w;
  const int64_t positions = batch * plane;
  CHECK_EQ(output_grad.shape().dim(0), batch);
  CHECK_EQ(output_grad.shape().dim(1), out_channels_);

  // dY as {out_c, (s, pos)}, the layout of the forward output matrix.
  // The bias gradient keeps its per-sample partial sums.
  ConvScratch& scratch = Scratch();
  Tensor& grad_mat = scratch.grad_mat;
  grad_mat.Resize({out_channels_, positions});
  for (int64_t s = 0; s < batch; ++s) {
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float* src = output_grad.data() + (s * out_channels_ + oc) * plane;
      std::copy(src, src + plane, grad_mat.data() + oc * positions + s * plane);
      float sum = 0.0f;
      for (int64_t p = 0; p < plane; ++p) sum += src[p];
      bias_grad_.at(oc) += sum;
    }
  }

  // dW += dY * patches, k = (s, pos) in sample-major order: the sequence
  // the per-sample beta = 1 GEMMs gave. dPatches = dY^T * W.
  Gemm(/*transpose_a=*/false, /*transpose_b=*/false, 1.0f, grad_mat,
       cached_patches_, 1.0f, &weight_grad_);
  Tensor& patch_grad = scratch.patch_grad;
  patch_grad.Resize(
      {positions, int64_t{in_channels_} * kernel_size_ * kernel_size_});
  Gemm(/*transpose_a=*/true, /*transpose_b=*/false, 1.0f, grad_mat,
       *weight_, 0.0f, &patch_grad);

  Tensor input_grad = TakeSpare(&input_spare_, in_shape.dims());
  input_grad.SetZero();
  Col2Im(patch_grad, kernel_size_, kernel_size_, stride_, padding_,
         &input_grad);
  return input_grad;
}

void Conv2dLayer::CollectParams(std::vector<ParamRef>* params) {
  // CNTK convolution kernels expose the (small) kernel width as the first
  // tensor dimension, so per-column 1bitSGD sees columns of 1-3 elements;
  // this is the performance artefact analyzed in Section 3.2.
  params->push_back(
      ParamRef{name_ + "/K", weight_.get(), &weight_grad_,
               Shape({kernel_size_, kernel_size_, in_channels_,
                      out_channels_}),
               ParamKind::kConvolutional, &weight_});
  params->push_back(ParamRef{name_ + "/b", bias_.get(), &bias_grad_,
                             Shape({out_channels_}), ParamKind::kBias,
                             &bias_});
}

Shape Conv2dLayer::OutputShape(const Shape& input_shape) const {
  CHECK_EQ(input_shape.ndim(), 3);
  CHECK_EQ(input_shape.dim(0), in_channels_);
  const int out_h = ConvOutputSize(static_cast<int>(input_shape.dim(1)),
                                   kernel_size_, stride_, padding_);
  const int out_w = ConvOutputSize(static_cast<int>(input_shape.dim(2)),
                                   kernel_size_, stride_, padding_);
  return Shape({out_channels_, out_h, out_w});
}

}  // namespace lpsgd
