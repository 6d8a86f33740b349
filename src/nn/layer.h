// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_LAYER_H_
#define LPSGD_NN_LAYER_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace lpsgd {

// Role of a parameter tensor; the quantization policy treats convolutional
// and fully-connected matrices differently (Section 5.1, "Impact of Layer
// Types") and may bypass small tensors such as biases.
enum class ParamKind {
  kFullyConnected,
  kConvolutional,
  kBias,
  kOther,
};

// A view into one trainable parameter matrix of a network.
//
// `quant_shape` is the CNTK tensor shape of the parameter as seen by the
// quantizer: its first dimension is the "row" count and the remaining
// dimensions flatten onto columns (Section 3.2.1). For convolution kernels
// CNTK's first dimension is the (tiny) kernel width, which is what makes
// the stock per-column 1bitSGD pathological on convolutional networks; we
// reproduce that layout faithfully.
// `store` is the layer's shared handle to `value`, which
// Network::ShareParamsFrom rebinds; gradients are never shared.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  Shape quant_shape;
  ParamKind kind = ParamKind::kOther;
  std::shared_ptr<Tensor>* store = nullptr;
};

// One differentiable network module. Layers cache whatever they need from
// Forward to run Backward; a layer instance therefore belongs to exactly
// one replica and one in-flight batch at a time. Forward and Backward only
// read parameter values, so replicas that share them may run concurrently.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  // Computes the layer output for `input` (leading dimension = batch).
  // `training` toggles train-time behaviour (e.g. batch-norm statistics).
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  // Given the loss gradient w.r.t. the layer output, accumulates parameter
  // gradients (+=) and returns the loss gradient w.r.t. the layer input.
  // Must be called exactly once per Forward.
  virtual Tensor Backward(const Tensor& output_grad) = 0;

  // The same for a caller that is done with its tensor (Network moves
  // activations and gradients through these). By default they run the
  // forms above, then keep a training input as the storage of the next
  // input gradient and an output gradient as the storage of the next
  // output (see TakeSpare), so a steady step allocates nothing. Layers
  // that compute in place override them.
  virtual Tensor Forward(Tensor&& input, bool training);
  virtual Tensor Backward(Tensor&& output_grad);

  // Appends references to this layer's parameters. Default: none.
  virtual void CollectParams(std::vector<ParamRef>* params) {
    (void)params;
  }

  // Output shape for a given input shape (both without batch dimension).
  virtual Shape OutputShape(const Shape& input_shape) const = 0;

 protected:
  // Storage handed in through the owned forms, for the next input
  // gradient and the next output.
  Tensor input_spare_;
  Tensor output_spare_;
};

inline Tensor Layer::Forward(Tensor&& input, bool training) {
  Tensor output = Forward(static_cast<const Tensor&>(input), training);
  if (training) input_spare_ = std::move(input);
  return output;
}

inline Tensor Layer::Backward(Tensor&& output_grad) {
  Tensor input_grad = Backward(static_cast<const Tensor&>(output_grad));
  output_spare_ = std::move(output_grad);
  return input_grad;
}

// Takes the storage of `spare` (leaving it empty) as a tensor of shape
// `dims`, element values unspecified: a spare that has held a tensor at
// least this large allocates nothing.
inline Tensor TakeSpare(Tensor* spare, const std::vector<int64_t>& dims) {
  Tensor tensor = std::move(*spare);
  tensor.Resize(dims);
  return tensor;
}

inline Tensor TakeSpare(Tensor* spare, std::initializer_list<int64_t> dims) {
  Tensor tensor = std::move(*spare);
  tensor.Resize(dims);
  return tensor;
}

}  // namespace lpsgd

#endif  // LPSGD_NN_LAYER_H_
