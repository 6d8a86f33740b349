// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_LOSS_H_
#define LPSGD_NN_LOSS_H_

#include <vector>

#include "tensor/tensor.h"

namespace lpsgd {

// Result of evaluating softmax cross-entropy over a batch.
struct LossResult {
  double loss_sum = 0.0;   // summed (not averaged) over the batch
  int64_t correct = 0;     // top-1 correct predictions
  Tensor logits_grad;      // d(mean loss)/d(logits), shape of logits
};

// Computes softmax cross-entropy loss, top-1 accuracy counts, and the
// gradient of the *mean* loss w.r.t. the logits ({batch, classes}). The
// gradient is computed in the logits' buffer, so a caller done with the
// logits moves them in.
LossResult SoftmaxCrossEntropy(Tensor logits, const std::vector<int>& labels);

// Evaluation-only variant (no gradient allocation). Tracks both top-1 and
// top-5 correctness (the paper reports top-5 for ImageNet-scale tasks).
struct EvalResult {
  double loss_sum = 0.0;
  int64_t correct = 0;
  int64_t correct_top5 = 0;
};
EvalResult EvaluateSoftmaxCrossEntropy(const Tensor& logits,
                                       const std::vector<int>& labels);

// True when `label` is among the `k` largest logits of row `r`.
bool LabelInTopK(const Tensor& logits, int64_t r, int label, int k);

}  // namespace lpsgd

#endif  // LPSGD_NN_LOSS_H_
