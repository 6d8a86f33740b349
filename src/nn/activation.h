// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_ACTIVATION_H_
#define LPSGD_NN_ACTIVATION_H_

#include <string>

#include "nn/layer.h"

namespace lpsgd {

enum class ActivationKind { kRelu, kTanh, kSigmoid };

// Elementwise activation layer (shape-preserving, no parameters). The
// owned forms of Forward and Backward work in place.
class ActivationLayer : public Layer {
 public:
  ActivationLayer(std::string name, ActivationKind kind);

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Forward(Tensor&& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  Tensor Backward(Tensor&& output_grad) override;
  Shape OutputShape(const Shape& input_shape) const override {
    return input_shape;
  }

 private:
  std::string name_;
  ActivationKind kind_;
  Tensor cached_output_;
};

}  // namespace lpsgd

#endif  // LPSGD_NN_ACTIVATION_H_
