// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_CONV2D_H_
#define LPSGD_NN_CONV2D_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/layer.h"

namespace lpsgd {

// 2-D convolution over {batch, channels, height, width} inputs, implemented
// as one im2col of the whole batch and one GEMM per operand. Square
// kernels, uniform stride/padding.
class Conv2dLayer : public Layer {
 public:
  Conv2dLayer(std::string name, int in_channels, int out_channels,
              int kernel_size, int stride, int padding, Rng* rng);

  std::string name() const override { return name_; }
  using Layer::Backward;
  using Layer::Forward;
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  void CollectParams(std::vector<ParamRef>* params) override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  std::string name_;
  int in_channels_;
  int out_channels_;
  int kernel_size_;
  int stride_;
  int padding_;
  std::shared_ptr<Tensor> weight_;  // {out_c, in_c * k * k}
  Tensor weight_grad_;  // same shape
  std::shared_ptr<Tensor> bias_;    // {out_c}
  Tensor bias_grad_;    // {out_c}
  Shape cached_input_shape_;
  // im2col patches of the last Forward's batch ({batch * out_h * out_w,
  // in_c * k * k}, sample-major), reused in Backward. The GEMM work
  // buffers are per-thread scratch in conv2d.cc.
  Tensor cached_patches_;
};

}  // namespace lpsgd

#endif  // LPSGD_NN_CONV2D_H_
