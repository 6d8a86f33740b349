// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/activation.h"

#include <cmath>
#include <utility>

#include "base/logging.h"

namespace lpsgd {

namespace {

// y = f(x); `x` and `y` may be the same array. The ReLU is a select, not
// a conditional store, so the loop vectorizes.
void Activate(ActivationKind kind, const float* x, float* y, int64_t n) {
  switch (kind) {
    case ActivationKind::kRelu:
      for (int64_t i = 0; i < n; ++i) y[i] = x[i] < 0.0f ? 0.0f : x[i];
      break;
    case ActivationKind::kTanh:
      for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
      break;
    case ActivationKind::kSigmoid:
      for (int64_t i = 0; i < n; ++i) y[i] = 1.0f / (1.0f + std::exp(-x[i]));
      break;
  }
}

// dx = dy * f'(x), from the forward output `y`; `dy` and `dx` may be the
// same array.
void Differentiate(ActivationKind kind, const float* y, const float* dy,
                   float* dx, int64_t n) {
  switch (kind) {
    case ActivationKind::kRelu:
      for (int64_t i = 0; i < n; ++i) dx[i] = y[i] <= 0.0f ? 0.0f : dy[i];
      break;
    case ActivationKind::kTanh:
      for (int64_t i = 0; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
      break;
    case ActivationKind::kSigmoid:
      for (int64_t i = 0; i < n; ++i) dx[i] = dy[i] * (y[i] * (1.0f - y[i]));
      break;
  }
}

}  // namespace

ActivationLayer::ActivationLayer(std::string name, ActivationKind kind)
    : name_(std::move(name)), kind_(kind) {}

Tensor ActivationLayer::Forward(const Tensor& input, bool /*training*/) {
  Tensor output = TakeSpare(&output_spare_, input.shape().dims());
  Activate(kind_, input.data(), output.data(), input.size());
  cached_output_ = output;
  return output;
}

Tensor ActivationLayer::Forward(Tensor&& input, bool /*training*/) {
  Activate(kind_, input.data(), input.data(), input.size());
  cached_output_ = input;
  return std::move(input);
}

Tensor ActivationLayer::Backward(const Tensor& output_grad) {
  CHECK_EQ(output_grad.size(), cached_output_.size());
  Tensor input_grad = TakeSpare(&input_spare_, output_grad.shape().dims());
  Differentiate(kind_, cached_output_.data(), output_grad.data(),
                input_grad.data(), output_grad.size());
  return input_grad;
}

Tensor ActivationLayer::Backward(Tensor&& output_grad) {
  CHECK_EQ(output_grad.size(), cached_output_.size());
  Differentiate(kind_, cached_output_.data(), output_grad.data(),
                output_grad.data(), output_grad.size());
  return std::move(output_grad);
}

}  // namespace lpsgd
