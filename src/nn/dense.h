// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_DENSE_H_
#define LPSGD_NN_DENSE_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/layer.h"

namespace lpsgd {

// Fully-connected layer: y = x W^T + b, with x of shape {batch, in} and
// W of shape {out, in}. Weights use scaled Gaussian (He) initialization.
class DenseLayer : public Layer {
 public:
  DenseLayer(std::string name, int64_t in_features, int64_t out_features,
             Rng* rng);

  std::string name() const override { return name_; }
  using Layer::Backward;
  using Layer::Forward;
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  void CollectParams(std::vector<ParamRef>* params) override;
  Shape OutputShape(const Shape& input_shape) const override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  std::string name_;
  int64_t in_features_;
  int64_t out_features_;
  std::shared_ptr<Tensor> weight_;  // {out, in}
  Tensor weight_grad_;  // {out, in}
  std::shared_ptr<Tensor> bias_;    // {out}
  Tensor bias_grad_;    // {out}
  Tensor cached_input_;
  Tensor bias_batch_grad_;  // {out}: Backward's column sums of dY
};

}  // namespace lpsgd

#endif  // LPSGD_NN_DENSE_H_
