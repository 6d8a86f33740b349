// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_LSTM_H_
#define LPSGD_NN_LSTM_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/layer.h"

namespace lpsgd {

// Single-layer LSTM over {batch, time, input_dim} sequences. With
// `return_sequences` false (default) it emits the final hidden state
// {batch, hidden_dim}; with true it emits every step's hidden state
// {batch, time, hidden_dim}, which is what stacked LSTMs consume (the
// paper's AN4 network has three LSTM components). Gate layout in the
// packed weight matrices is [input, forget, cell, output].
class LstmLayer : public Layer {
 public:
  LstmLayer(std::string name, int input_dim, int hidden_dim, Rng* rng,
            bool return_sequences = false);

  std::string name() const override { return name_; }
  using Layer::Backward;
  using Layer::Forward;
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  void CollectParams(std::vector<ParamRef>* params) override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  std::string name_;
  int input_dim_;
  int hidden_dim_;
  bool return_sequences_;
  std::shared_ptr<Tensor> wx_;    // {4h, input_dim}
  Tensor wx_grad_;
  std::shared_ptr<Tensor> wh_;    // {4h, hidden_dim}
  Tensor wh_grad_;
  std::shared_ptr<Tensor> bias_;  // {4h}
  Tensor bias_grad_;

  // Per-timestep caches from the last Forward: the first num_steps_
  // entries. The vector and its tensors are reused across calls and only
  // grow, so a steady batch shape allocates nothing here. Buffers that
  // live for one call only are per-thread scratch in lstm.cc.
  struct StepCache {
    Tensor x;      // {batch, input_dim}
    Tensor h_prev; // {batch, h}
    Tensor c_prev; // {batch, h}
    Tensor gates;  // {batch, 4h} post-nonlinearity: i, f, g, o
    Tensor c;      // {batch, h}
    Tensor tanh_c; // {batch, h}
  };
  std::vector<StepCache> steps_;
  int64_t num_steps_ = 0;
};

}  // namespace lpsgd

#endif  // LPSGD_NN_LSTM_H_
