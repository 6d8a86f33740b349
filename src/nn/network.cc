// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/network.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"

namespace lpsgd {

Network& Network::Add(std::unique_ptr<Layer> layer) {
  CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  grads_.clear();
  return *this;
}

Tensor Network::Forward(const Tensor& input, bool training) {
  Tensor activation = TakeSpare(&input_spare_, input.shape().dims());
  std::copy(input.data(), input.data() + input.size(), activation.data());
  for (auto& layer : layers_) {
    activation = layer->Forward(std::move(activation), training);
  }
  return activation;
}

void Network::Backward(Tensor logits_grad) {
  Tensor grad = std::move(logits_grad);
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->Backward(std::move(grad));
  }
  input_spare_ = std::move(grad);
}

std::vector<ParamRef> Network::Params() {
  std::vector<ParamRef> params;
  for (auto& layer : layers_) {
    layer->CollectParams(&params);
  }
  return params;
}

void Network::ZeroGrads() {
  if (grads_.empty()) {
    for (ParamRef& param : Params()) grads_.push_back(param.grad);
  }
  for (Tensor* grad : grads_) grad->SetZero();
}

int64_t Network::ParameterCount() {
  int64_t count = 0;
  for (const ParamRef& param : Params()) {
    count += param.value->size();
  }
  return count;
}

void Network::ShareParamsFrom(Network& owner) {
  std::vector<ParamRef> mine = Params();
  std::vector<ParamRef> theirs = owner.Params();
  CHECK_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    CHECK(mine[i].value->shape() == theirs[i].value->shape())
        << mine[i].name;
    CHECK(mine[i].store != nullptr && theirs[i].store != nullptr)
        << mine[i].name;
    *mine[i].store = *theirs[i].store;
  }
}

ResidualBlock::ResidualBlock(std::string name,
                             std::vector<std::unique_ptr<Layer>> inner,
                             std::vector<std::unique_ptr<Layer>> projection)
    : name_(std::move(name)),
      inner_(std::move(inner)),
      projection_(std::move(projection)) {
  CHECK(!inner_.empty()) << name_;
}

Tensor ResidualBlock::Forward(const Tensor& input, bool training) {
  return Forward(Tensor(input), training);
}

Tensor ResidualBlock::Forward(Tensor&& input, bool training) {
  Tensor main_path = input;
  for (auto& layer : inner_) {
    main_path = layer->Forward(std::move(main_path), training);
  }
  Tensor shortcut = std::move(input);
  for (auto& layer : projection_) {
    shortcut = layer->Forward(std::move(shortcut), training);
  }
  CHECK(main_path.shape() == shortcut.shape())
      << name_ << ": inner " << main_path.shape().ToString()
      << " vs shortcut " << shortcut.shape().ToString();
  float* out = main_path.data();
  const float* sc = shortcut.data();
  for (int64_t i = 0; i < main_path.size(); ++i) out[i] += sc[i];
  return main_path;
}

Tensor ResidualBlock::Backward(const Tensor& output_grad) {
  return Backward(Tensor(output_grad));
}

Tensor ResidualBlock::Backward(Tensor&& output_grad) {
  Tensor main_grad = output_grad;
  for (auto it = inner_.rbegin(); it != inner_.rend(); ++it) {
    main_grad = (*it)->Backward(std::move(main_grad));
  }
  Tensor shortcut_grad = std::move(output_grad);
  for (auto it = projection_.rbegin(); it != projection_.rend(); ++it) {
    shortcut_grad = (*it)->Backward(std::move(shortcut_grad));
  }
  CHECK(main_grad.shape() == shortcut_grad.shape()) << name_;
  float* out = main_grad.data();
  const float* sc = shortcut_grad.data();
  for (int64_t i = 0; i < main_grad.size(); ++i) out[i] += sc[i];
  return main_grad;
}

void ResidualBlock::CollectParams(std::vector<ParamRef>* params) {
  for (auto& layer : inner_) layer->CollectParams(params);
  for (auto& layer : projection_) layer->CollectParams(params);
}

Shape ResidualBlock::OutputShape(const Shape& input_shape) const {
  Shape shape = input_shape;
  for (const auto& layer : inner_) shape = layer->OutputShape(shape);
  return shape;
}

}  // namespace lpsgd
