// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Allocation-regression tests for the NN layers that carry per-call work
// buffers: after warm-up, one Forward + Backward of an LSTM, conv or dense
// layer may allocate only the tensors it returns (the output and the
// input gradient). Step caches, im2col patches, packed weights and Gemm
// panels must all be reused. This test overrides the global allocator to
// count allocations, so it lives in its own binary (nn_alloc_test).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "tensor/tensor.h"

namespace {

// Counting is armed only around the calls under test.
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocation_count{0};

}  // namespace

// noinline keeps the replaced operators out of callers, so every
// allocation goes through the counter (see quant/workspace_test.cc).
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
  return operator new(size);
}

__attribute__((noinline)) void operator delete(void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete(void* ptr,
                                               std::size_t) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr,
                                                 std::size_t) noexcept {
  std::free(ptr);
}

namespace lpsgd {
namespace {

int64_t CountAllocations(const std::function<void()>& fn) {
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  fn();
  g_count_allocations.store(false);
  return g_allocation_count.load();
}

Tensor Gaussian(Shape shape, uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  t.FillGaussian(&rng, 1.0f);
  return t;
}

// Runs Forward + Backward twice to warm every buffer, then requires the
// third pair to allocate no more than building its two returned tensors
// from scratch does.
void ExpectOnlyReturnedTensorsAllocate(Layer* layer, const Tensor& input,
                                       const Tensor& output_grad) {
  for (int warm = 0; warm < 2; ++warm) {
    Tensor out = layer->Forward(input, /*training=*/true);
    Tensor grad = layer->Backward(output_grad);
  }
  const int64_t budget = CountAllocations([&] {
    Tensor out(output_grad.shape());
    Tensor grad(input.shape());
  });
  const int64_t used = CountAllocations([&] {
    Tensor out = layer->Forward(input, /*training=*/true);
    Tensor grad = layer->Backward(output_grad);
  });
  EXPECT_LE(used, budget) << layer->name();
}

TEST(LayerAllocTest, LstmReturningSequencesReusesItsBuffers) {
  Rng rng(1);
  LstmLayer layer("lstm0", 12, 64, &rng, /*return_sequences=*/true);
  ExpectOnlyReturnedTensorsAllocate(&layer, Gaussian(Shape({8, 10, 12}), 2),
                                    Gaussian(Shape({8, 10, 64}), 3));
}

TEST(LayerAllocTest, LstmReturningLastStateReusesItsBuffers) {
  Rng rng(4);
  LstmLayer layer("lstm1", 64, 64, &rng);
  ExpectOnlyReturnedTensorsAllocate(&layer, Gaussian(Shape({8, 10, 64}), 5),
                                    Gaussian(Shape({8, 64}), 6));
}

TEST(LayerAllocTest, Conv2dReusesPatchesAndWorkBuffers) {
  Rng rng(7);
  Conv2dLayer layer("conv2", 8, 16, 3, 1, 1, &rng);
  ExpectOnlyReturnedTensorsAllocate(&layer,
                                    Gaussian(Shape({8, 8, 4, 4}), 8),
                                    Gaussian(Shape({8, 16, 4, 4}), 9));
}

TEST(LayerAllocTest, DenseReusesItsBuffers) {
  Rng rng(10);
  DenseLayer layer("fc1", 512, 512, &rng);
  ExpectOnlyReturnedTensorsAllocate(&layer, Gaussian(Shape({2, 512}), 11),
                                    Gaussian(Shape({2, 512}), 12));
}

// A layer that alternates between a training batch and a larger
// evaluation batch stops allocating once it has seen both.
TEST(LayerAllocTest, LstmAlternatingBatchSizesStopsAllocating) {
  Rng rng(13);
  LstmLayer layer("lstm0", 12, 64, &rng, /*return_sequences=*/true);
  const Tensor train = Gaussian(Shape({8, 10, 12}), 14);
  const Tensor train_grad = Gaussian(Shape({8, 10, 64}), 15);
  const Tensor eval = Gaussian(Shape({32, 10, 12}), 16);
  for (int warm = 0; warm < 2; ++warm) {
    Tensor out = layer.Forward(train, /*training=*/true);
    Tensor grad = layer.Backward(train_grad);
    Tensor eval_out = layer.Forward(eval, /*training=*/false);
  }
  const int64_t budget = CountAllocations([&] {
    Tensor out(train_grad.shape());
    Tensor grad(train.shape());
    Tensor eval_out(Shape({32, 10, 64}));
  });
  const int64_t used = CountAllocations([&] {
    Tensor out = layer.Forward(train, /*training=*/true);
    Tensor grad = layer.Backward(train_grad);
    Tensor eval_out = layer.Forward(eval, /*training=*/false);
  });
  EXPECT_LE(used, budget);
}

}  // namespace
}  // namespace lpsgd
