// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/lstm.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/logging.h"
#include "tensor/ops.h"

namespace lpsgd {
namespace {

inline float SigmoidF(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Buffers that live for one Forward or Backward call. One set per thread
// serves every layer and replica that runs on it, so they cost memory per
// thread, not per rank, and stop allocating once they have seen the
// largest shapes.
struct LstmScratch {
  // Wx^T {input_dim, 4h} and Wh^T {h, 4h}, packed once per Forward so
  // every time step runs the untransposed Gemm kernel.
  Tensor wx_t;
  Tensor wh_t;
  Tensor h;     // Forward's running state {batch, h}
  Tensor c;
  Tensor dh;    // Backward's carried gradients {batch, h}
  Tensor dc;
  Tensor dh_next;
  Tensor dc_next;
  Tensor dgates;  // {batch, 4h}
  Tensor db;      // {4h}
  Tensor dx;      // {batch, input_dim}
};

LstmScratch& Scratch() {
  thread_local LstmScratch scratch;
  return scratch;
}

}  // namespace

LstmLayer::LstmLayer(std::string name, int input_dim, int hidden_dim,
                     Rng* rng, bool return_sequences)
    : name_(std::move(name)),
      input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      return_sequences_(return_sequences),
      wx_(std::make_shared<Tensor>(Shape({4 * hidden_dim, input_dim}))),
      wx_grad_(wx_->shape()),
      wh_(std::make_shared<Tensor>(Shape({4 * hidden_dim, hidden_dim}))),
      wh_grad_(wh_->shape()),
      bias_(std::make_shared<Tensor>(Shape({4 * hidden_dim}))),
      bias_grad_(bias_->shape()) {
  CHECK_GT(input_dim, 0);
  CHECK_GT(hidden_dim, 0);
  wx_->FillGaussian(rng, std::sqrt(1.0f / static_cast<float>(input_dim)));
  wh_->FillGaussian(rng, std::sqrt(1.0f / static_cast<float>(hidden_dim)));
  // Forget-gate bias starts at 1 (standard practice: remember by default).
  for (int j = 0; j < hidden_dim; ++j) bias_->at(hidden_dim + j) = 1.0f;
}

Tensor LstmLayer::Forward(const Tensor& input, bool /*training*/) {
  CHECK_EQ(input.shape().ndim(), 3) << name_;
  const int64_t batch = input.shape().dim(0);
  const int64_t time = input.shape().dim(1);
  CHECK_EQ(input.shape().dim(2), input_dim_) << name_;
  const int64_t h4 = 4 * int64_t{hidden_dim_};

  LstmScratch& scratch = Scratch();
  Tensor& wx_t = scratch.wx_t;
  Tensor& wh_t = scratch.wh_t;
  Tensor& h = scratch.h;
  Tensor& c = scratch.c;
  wx_t.Resize({input_dim_, h4});
  Transpose(*wx_, &wx_t);
  wh_t.Resize({hidden_dim_, h4});
  Transpose(*wh_, &wh_t);
  if (steps_.size() < static_cast<size_t>(time)) {
    steps_.resize(static_cast<size_t>(time));
  }
  num_steps_ = time;

  h.Resize({batch, hidden_dim_});
  h.SetZero();
  c.Resize({batch, hidden_dim_});
  c.SetZero();

  for (int64_t t = 0; t < time; ++t) {
    StepCache& step = steps_[static_cast<size_t>(t)];
    step.x.Resize({batch, input_dim_});
    for (int64_t b = 0; b < batch; ++b) {
      const float* src =
          input.data() + (b * time + t) * input_dim_;
      std::copy(src, src + input_dim_, step.x.data() + b * input_dim_);
    }
    step.h_prev = h;
    step.c_prev = c;

    Tensor& gates = step.gates;
    gates.Resize({batch, h4});
    Gemm(false, false, 1.0f, step.x, wx_t, 0.0f, &gates);
    Gemm(false, false, 1.0f, step.h_prev, wh_t, 1.0f, &gates);
    AddRowBroadcast(*bias_, &gates);

    step.c.Resize({batch, hidden_dim_});
    step.tanh_c.Resize({batch, hidden_dim_});
    for (int64_t b = 0; b < batch; ++b) {
      float* g = gates.data() + b * h4;
      const float* cp = step.c_prev.data() + b * hidden_dim_;
      float* cn = step.c.data() + b * hidden_dim_;
      float* tc = step.tanh_c.data() + b * hidden_dim_;
      float* hn = h.data() + b * hidden_dim_;
      for (int j = 0; j < hidden_dim_; ++j) {
        const float i_gate = SigmoidF(g[j]);
        const float f_gate = SigmoidF(g[hidden_dim_ + j]);
        const float g_gate = std::tanh(g[2 * hidden_dim_ + j]);
        const float o_gate = SigmoidF(g[3 * hidden_dim_ + j]);
        g[j] = i_gate;
        g[hidden_dim_ + j] = f_gate;
        g[2 * hidden_dim_ + j] = g_gate;
        g[3 * hidden_dim_ + j] = o_gate;
        cn[j] = f_gate * cp[j] + i_gate * g_gate;
        tc[j] = std::tanh(cn[j]);
        hn[j] = o_gate * tc[j];
      }
    }
    c = step.c;
  }

  if (!return_sequences_) {
    Tensor last = TakeSpare(&output_spare_, {batch, hidden_dim_});
    std::copy(h.data(), h.data() + h.size(), last.data());
    return last;
  }

  // Assemble the full hidden-state sequence {batch, time, hidden}.
  // h_t for step t is o_t * tanh(c_t), both cached per step.
  Tensor sequence = TakeSpare(&output_spare_, {batch, time, hidden_dim_});
  for (int64_t t = 0; t < time; ++t) {
    const StepCache& step = steps_[static_cast<size_t>(t)];
    for (int64_t b = 0; b < batch; ++b) {
      const float* gates = step.gates.data() + b * h4;
      const float* tc = step.tanh_c.data() + b * hidden_dim_;
      float* dst = sequence.data() + (b * time + t) * hidden_dim_;
      for (int j = 0; j < hidden_dim_; ++j) {
        dst[j] = gates[3 * hidden_dim_ + j] * tc[j];
      }
    }
  }
  return sequence;
}

Tensor LstmLayer::Backward(const Tensor& output_grad) {
  CHECK_GT(num_steps_, 0) << name_;
  const int64_t time = num_steps_;
  const int64_t batch = output_grad.shape().dim(0);
  if (return_sequences_) {
    CHECK_EQ(output_grad.shape().ndim(), 3) << name_;
    CHECK_EQ(output_grad.shape().dim(1), time) << name_;
    CHECK_EQ(output_grad.shape().dim(2), hidden_dim_) << name_;
  } else {
    CHECK_EQ(output_grad.cols(), hidden_dim_) << name_;
  }
  const int64_t h4 = 4 * int64_t{hidden_dim_};

  Tensor input_grad = TakeSpare(&input_spare_, {batch, time, input_dim_});
  LstmScratch& scratch = Scratch();
  Tensor& dh = scratch.dh;
  Tensor& dc = scratch.dc;
  Tensor& dh_next = scratch.dh_next;
  Tensor& dc_next = scratch.dc_next;
  Tensor& dgates = scratch.dgates;
  Tensor& db = scratch.db;
  Tensor& dx = scratch.dx;
  dh.Resize({batch, hidden_dim_});
  if (return_sequences_) {
    dh.SetZero();
  } else {
    std::copy(output_grad.data(), output_grad.data() + dh.size(), dh.data());
  }
  dc.Resize({batch, hidden_dim_});
  dc.SetZero();
  dh_next.Resize({batch, hidden_dim_});
  dc_next.Resize({batch, hidden_dim_});
  dgates.Resize({batch, h4});
  db.Resize({h4});
  dx.Resize({batch, input_dim_});

  for (int64_t t = time - 1; t >= 0; --t) {
    if (return_sequences_) {
      // Inject this step's own output gradient on top of the carried
      // recurrent gradient.
      for (int64_t b = 0; b < batch; ++b) {
        const float* src =
            output_grad.data() + (b * time + t) * hidden_dim_;
        float* dst = dh.data() + b * hidden_dim_;
        for (int j = 0; j < hidden_dim_; ++j) dst[j] += src[j];
      }
    }
    const StepCache& step = steps_[static_cast<size_t>(t)];

    for (int64_t b = 0; b < batch; ++b) {
      const float* g = step.gates.data() + b * h4;
      const float* cp = step.c_prev.data() + b * hidden_dim_;
      const float* tc = step.tanh_c.data() + b * hidden_dim_;
      const float* dhb = dh.data() + b * hidden_dim_;
      const float* dcb = dc.data() + b * hidden_dim_;
      float* dg = dgates.data() + b * h4;
      float* dcn = dc_next.data() + b * hidden_dim_;
      for (int j = 0; j < hidden_dim_; ++j) {
        const float i_gate = g[j];
        const float f_gate = g[hidden_dim_ + j];
        const float g_gate = g[2 * hidden_dim_ + j];
        const float o_gate = g[3 * hidden_dim_ + j];
        // dL/dc_t: through h_t = o * tanh(c_t) plus carried dc.
        const float dct =
            dcb[j] + dhb[j] * o_gate * (1.0f - tc[j] * tc[j]);
        dg[j] = dct * g_gate * i_gate * (1.0f - i_gate);            // di
        dg[hidden_dim_ + j] =
            dct * cp[j] * f_gate * (1.0f - f_gate);                 // df
        dg[2 * hidden_dim_ + j] =
            dct * i_gate * (1.0f - g_gate * g_gate);                // dg
        dg[3 * hidden_dim_ + j] =
            dhb[j] * tc[j] * o_gate * (1.0f - o_gate);              // do
        dcn[j] = dct * f_gate;  // toward c_{t-1}
      }
    }

    // Parameter gradients.
    Gemm(true, false, 1.0f, dgates, step.x, 1.0f, &wx_grad_);
    Gemm(true, false, 1.0f, dgates, step.h_prev, 1.0f, &wh_grad_);
    SumRowsTo(dgates, &db);
    Axpy(1.0f, db, &bias_grad_);

    // Input and recurrent gradients.
    Gemm(false, false, 1.0f, dgates, *wx_, 0.0f, &dx);
    for (int64_t b = 0; b < batch; ++b) {
      float* dst = input_grad.data() + (b * time + t) * input_dim_;
      std::copy(dx.data() + b * input_dim_, dx.data() + (b + 1) * input_dim_,
                dst);
    }
    Gemm(false, false, 1.0f, dgates, *wh_, 0.0f, &dh_next);

    std::swap(dh, dh_next);
    std::swap(dc, dc_next);
  }
  return input_grad;
}

void LstmLayer::CollectParams(std::vector<ParamRef>* params) {
  params->push_back(ParamRef{name_ + "/Wx", wx_.get(), &wx_grad_,
                             Shape({4 * hidden_dim_, input_dim_}),
                             ParamKind::kFullyConnected, &wx_});
  params->push_back(ParamRef{name_ + "/Wh", wh_.get(), &wh_grad_,
                             Shape({4 * hidden_dim_, hidden_dim_}),
                             ParamKind::kFullyConnected, &wh_});
  params->push_back(ParamRef{name_ + "/b", bias_.get(), &bias_grad_,
                             Shape({4 * hidden_dim_}), ParamKind::kBias,
                             &bias_});
}

Shape LstmLayer::OutputShape(const Shape& input_shape) const {
  CHECK_EQ(input_shape.ndim(), 2);  // {time, input_dim}
  CHECK_EQ(input_shape.dim(1), input_dim_);
  if (return_sequences_) return Shape({input_shape.dim(0), hidden_dim_});
  return Shape({hidden_dim_});
}

}  // namespace lpsgd
