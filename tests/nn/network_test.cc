// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/network.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "nn/pool.h"

namespace lpsgd {
namespace {

Network TwoLayerNet(uint64_t seed) {
  return BuildMlp({4, 8, 3}, seed);
}

TEST(NetworkTest, ForwardProducesLogits) {
  Network net = TwoLayerNet(1);
  Tensor input(Shape({5, 4}));
  Rng rng(2);
  input.FillGaussian(&rng, 1.0f);
  Tensor logits = net.Forward(input, true);
  EXPECT_EQ(logits.shape(), Shape({5, 3}));
}

TEST(NetworkTest, ParamsAreStableReferences) {
  Network net = TwoLayerNet(1);
  auto params1 = net.Params();
  auto params2 = net.Params();
  ASSERT_EQ(params1.size(), params2.size());
  for (size_t i = 0; i < params1.size(); ++i) {
    EXPECT_EQ(params1[i].value, params2[i].value);
    EXPECT_EQ(params1[i].grad, params2[i].grad);
  }
}

TEST(NetworkTest, ParameterCount) {
  Network net = TwoLayerNet(1);
  // fc0: 4*8 + 8; fc1: 8*3 + 3.
  EXPECT_EQ(net.ParameterCount(), 4 * 8 + 8 + 8 * 3 + 3);
}

TEST(NetworkTest, ZeroGradsClearsAccumulation) {
  Network net = TwoLayerNet(1);
  Tensor input(Shape({2, 4}), 1.0f);
  Tensor logits = net.Forward(input, true);
  LossResult loss = SoftmaxCrossEntropy(logits, {0, 1});
  net.Backward(loss.logits_grad);
  double grad_norm = 0.0;
  for (const ParamRef& p : net.Params()) grad_norm += p.grad->SumSquares();
  EXPECT_GT(grad_norm, 0.0);
  net.ZeroGrads();
  for (const ParamRef& p : net.Params()) {
    EXPECT_EQ(p.grad->SumSquares(), 0.0);
  }
}

TEST(NetworkTest, ShareParamsFromMakesReplicasReadOneStore) {
  Network a = TwoLayerNet(1);
  Network b = TwoLayerNet(99);  // different init
  b.ShareParamsFrom(a);
  Tensor input(Shape({3, 4}));
  Rng rng(5);
  input.FillGaussian(&rng, 1.0f);
  Tensor out_a = a.Forward(input, false);
  Tensor out_b = b.Forward(input, false);
  for (int64_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a.at(i), out_b.at(i));
  }

  // A write through the owner is what the sharer reads; the gradients
  // stay per network.
  std::vector<ParamRef> owner = a.Params();
  std::vector<ParamRef> sharer = b.Params();
  ASSERT_EQ(owner.size(), sharer.size());
  for (size_t m = 0; m < owner.size(); ++m) {
    EXPECT_EQ(sharer[m].value, owner[m].value) << owner[m].name;
    EXPECT_NE(sharer[m].grad, owner[m].grad) << owner[m].name;
  }
  owner[0].value->at(0) += 1.0f;
  EXPECT_EQ(sharer[0].value->at(0), owner[0].value->at(0));
  out_a = a.Forward(input, false);
  out_b = b.Forward(input, false);
  for (int64_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a.at(i), out_b.at(i));
  }
}

TEST(NetworkTest, SharedStoreOutlivesItsOwner) {
  Network b = TwoLayerNet(99);
  std::vector<float> expected;
  {
    Network a = TwoLayerNet(1);
    b.ShareParamsFrom(a);
    const Tensor& w = *a.Params()[0].value;
    expected.assign(w.data(), w.data() + w.size());
  }
  const Tensor& w = *b.Params()[0].value;
  EXPECT_EQ(std::vector<float>(w.data(), w.data() + w.size()), expected);
  Tensor logits = b.Forward(Tensor(Shape({2, 4}), 1.0f), false);
  EXPECT_EQ(logits.shape(), Shape({2, 3}));
}

TEST(SoftmaxCrossEntropyTest, PerfectPredictionHasLowLoss) {
  Tensor logits(Shape({1, 3}));
  logits.at(0) = 100.0f;  // class 0 dominant
  LossResult result = SoftmaxCrossEntropy(logits, {0});
  EXPECT_LT(result.loss_sum, 1e-3);
  EXPECT_EQ(result.correct, 1);
}

TEST(SoftmaxCrossEntropyTest, UniformPredictionLossIsLogC) {
  Tensor logits(Shape({2, 4}));
  LossResult result = SoftmaxCrossEntropy(logits, {1, 2});
  EXPECT_NEAR(result.loss_sum / 2.0, std::log(4.0), 1e-5);
}

TEST(SoftmaxCrossEntropyTest, GradientIsProbsMinusOneHotOverBatch) {
  Tensor logits(Shape({2, 2}));
  logits.at(0, 0) = 1.0f;
  LossResult result = SoftmaxCrossEntropy(logits, {0, 1});
  // Row sums of the gradient are zero (softmax property).
  for (int r = 0; r < 2; ++r) {
    EXPECT_NEAR(result.logits_grad.at(r, 0) + result.logits_grad.at(r, 1),
                0.0f, 1e-6);
  }
  // True-class entries are negative, others positive.
  EXPECT_LT(result.logits_grad.at(0, 0), 0.0f);
  EXPECT_GT(result.logits_grad.at(0, 1), 0.0f);
  EXPECT_LT(result.logits_grad.at(1, 1), 0.0f);
}

TEST(SoftmaxCrossEntropyTest, GradientMatchesFiniteDifferences) {
  Rng rng(7);
  Tensor logits(Shape({3, 4}));
  logits.FillGaussian(&rng, 1.0f);
  const std::vector<int> labels = {0, 3, 2};
  LossResult result = SoftmaxCrossEntropy(logits, labels);

  const float eps = 1e-3f;
  for (int64_t i = 0; i < logits.size(); ++i) {
    const float saved = logits.at(i);
    logits.at(i) = saved + eps;
    const double plus =
        SoftmaxCrossEntropy(logits, labels).loss_sum / labels.size();
    logits.at(i) = saved - eps;
    const double minus =
        SoftmaxCrossEntropy(logits, labels).loss_sum / labels.size();
    logits.at(i) = saved;
    EXPECT_NEAR(result.logits_grad.at(i), (plus - minus) / (2 * eps), 1e-3);
  }
}

TEST(EvaluateSoftmaxCrossEntropyTest, MatchesTrainingLoss) {
  Rng rng(8);
  Tensor logits(Shape({5, 3}));
  logits.FillGaussian(&rng, 2.0f);
  const std::vector<int> labels = {0, 1, 2, 1, 0};
  LossResult train = SoftmaxCrossEntropy(logits, labels);
  EvalResult eval = EvaluateSoftmaxCrossEntropy(logits, labels);
  EXPECT_DOUBLE_EQ(train.loss_sum, eval.loss_sum);
  EXPECT_EQ(train.correct, eval.correct);
}

TEST(LabelInTopKTest, CountsStrictlyLargerLogits) {
  Tensor logits(Shape({1, 6}));
  const float values[] = {0.9f, 0.1f, 0.8f, 0.7f, 0.6f, 0.5f};
  std::copy(values, values + 6, logits.data());
  // Ranking: 0 > 2 > 3 > 4 > 5 > 1.
  EXPECT_TRUE(LabelInTopK(logits, 0, 0, 1));
  EXPECT_FALSE(LabelInTopK(logits, 0, 2, 1));
  EXPECT_TRUE(LabelInTopK(logits, 0, 2, 2));
  EXPECT_TRUE(LabelInTopK(logits, 0, 5, 5));
  EXPECT_FALSE(LabelInTopK(logits, 0, 1, 5));
  EXPECT_TRUE(LabelInTopK(logits, 0, 1, 6));  // k >= classes
}

TEST(LabelInTopKTest, TiesFavorTheLabel) {
  Tensor logits(Shape({1, 3}));
  logits.Fill(1.0f);
  for (int label = 0; label < 3; ++label) {
    EXPECT_TRUE(LabelInTopK(logits, 0, label, 1));
  }
}

TEST(EvalResultTest, TopFiveAtLeastTopOne) {
  Rng rng(21);
  Tensor logits(Shape({50, 10}));
  logits.FillGaussian(&rng, 1.0f);
  std::vector<int> labels(50);
  for (int i = 0; i < 50; ++i) labels[static_cast<size_t>(i)] = i % 10;
  const EvalResult result = EvaluateSoftmaxCrossEntropy(logits, labels);
  EXPECT_GE(result.correct_top5, result.correct);
  EXPECT_LE(result.correct_top5, 50);
  // Random 10-class logits: top-5 should catch roughly half.
  EXPECT_GT(result.correct_top5, 10);
}

TEST(SgdMomentumOptimizerTest, PlainSgdStep) {
  Network net = BuildMlp({2, 1}, 3);
  auto params = net.Params();
  params[0].value->Fill(1.0f);
  params[0].grad->Fill(0.5f);
  params[1].value->Fill(0.0f);
  params[1].grad->Fill(0.0f);

  SgdMomentumOptimizer optimizer(/*learning_rate=*/0.1f, /*momentum=*/0.0f);
  optimizer.Step(params);
  EXPECT_NEAR(params[0].value->at(0), 1.0f - 0.1f * 0.5f, 1e-6);
}

TEST(SgdMomentumOptimizerTest, MomentumAccumulatesVelocity) {
  Network net = BuildMlp({1, 1}, 3);
  auto params = net.Params();
  params[0].value->Fill(0.0f);
  SgdMomentumOptimizer optimizer(1.0f, 0.9f);

  // Constant gradient 1: velocity 1, 1.9, 2.71, ...
  params[0].grad->Fill(1.0f);
  optimizer.Step(params);
  EXPECT_NEAR(params[0].value->at(0), -1.0f, 1e-6);
  params[0].grad->Fill(1.0f);
  optimizer.Step(params);
  EXPECT_NEAR(params[0].value->at(0), -1.0f - 1.9f, 1e-5);
}

TEST(ResidualBlockTest, IdentityInnerDoublesInput) {
  // inner = Flatten (identity on {b, n}): output = x + x.
  std::vector<std::unique_ptr<Layer>> inner;
  inner.push_back(std::make_unique<FlattenLayer>("id"));
  ResidualBlock block("res", std::move(inner));
  Tensor input(Shape({2, 3}));
  for (int64_t i = 0; i < 6; ++i) input.at(i) = static_cast<float>(i);
  Tensor out = block.Forward(input, true);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(out.at(i), 2.0f * input.at(i));
  }
  Tensor grad(out.shape(), 1.0f);
  Tensor in_grad = block.Backward(grad);
  for (int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(in_grad.at(i), 2.0f);
}

}  // namespace
}  // namespace lpsgd
